import numpy as np
import pytest

from aqctensor import ansatz
from aqctensor.ansatz import (
    ansatz_ops,
    adjoint_ops,
    apply_ansatz,
    build_brickwork_ansatz,
    cnot_depth,
    export_circuit_records,
    slot_vjp,
    solve_triplet_angles,
    trotter_initialize,
)
from aqctensor.gates import CX_FORWARD, CX_REVERSED, CircuitOp, rz
from aqctensor.hamiltonian import (
    XYZHamiltonian,
    build_trotter_schedule,
    random_xyz,
    tebd_evolve,
    trotter_columns,
    two_site_unitary,
)
from aqctensor.mps import fidelity, from_product_state
from aqctensor.statevector import (
    basis_state,
    mps_to_statevector,
    sv_apply_schedule,
    sv_fidelity,
)

from conftest import EXACT
from oracles import (amplitude, apply_ansatz_adjoint, block_unitary, gate_walk_slots, initial_rotation,
                     op_from_record, parse_gate_line, random_mps, read_gate_list, schedule_cnot_depth,
                     shift_derivatives, triplet_unitary)


def dense_ops_matrix(ops, n):
    dim = 2**n
    out = np.eye(dim, dtype=complex)
    for idx in range(dim):
        col = np.zeros(dim, dtype=complex)
        col[idx] = 1.0
        out[:, idx] = sv_apply_schedule(col, ops)
    return out


def phase_distance(u, v):
    tr = np.trace(u.conj().T @ v)
    return 1.0 - abs(tr) / u.shape[0]


class TestStructure:
    def test_counts_n4_l2(self):
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        a = build_brickwork_ansatz(4, 2, ham, 0.1)
        assert a.num_params == 108
        assert a.num_blocks == 24

    def test_n2_l1(self):
        ham = XYZHamiltonian.uniform(2, 1, 1, 1)
        a = build_brickwork_ansatz(2, 1, ham, 0.1)
        assert len(a.slot_multiset()) == 2
        assert a.num_blocks == 6
        assert a.num_params == 30

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            build_brickwork_ansatz(1, 1, XYZHamiltonian.uniform(2, 1, 1, 1), 0.1)

    @pytest.mark.parametrize("n,l", [(4, 1), (5, 2), (6, 3), (7, 2)])
    def test_slots_mirror_schedule(self, n, l):
        ham = XYZHamiltonian.uniform(n, 1, 1, 1)
        a = build_brickwork_ansatz(n, l, ham, 0.2)
        schedule = build_trotter_schedule(ham, 0.2, l)
        expected = [(c.tag, g.sites[0]) for c in schedule.columns if c.tag != "field" for g in c.gates]
        assert a.slot_multiset() == expected

    def test_building_needs_no_gate_matrix(self, monkeypatch):
        from aqctensor import hamiltonian

        def refuse(*args):
            raise AssertionError("build_brickwork_ansatz built a two-site gate matrix")

        monkeypatch.setattr(hamiltonian, "two_site_unitary", refuse)
        a = build_brickwork_ansatz(5, 3, random_xyz(5, 0.375, 1.125, seed=4), 0.2)
        assert a.columns == trotter_columns(5, 3)

    def test_parameter_count_formula(self):
        for n, l in [(3, 1), (6, 2), (9, 3)]:
            ham = XYZHamiltonian.uniform(n, 1, 1, 1)
            a = build_brickwork_ansatz(n, l, ham, 0.1)
            assert a.num_params == 3 * n + 4 * a.num_blocks

    def test_triplet_reversal_convention(self):
        # each slot's blocks read cx (i+1, i), (i, i+1), (i+1, i) in the exported circuit
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        a = build_brickwork_ansatz(4, 2, ham, 0.1)
        lines = export_circuit_records(a, np.zeros(a.num_params))
        cx = [tuple(parse_gate_line(line)[1]) for line in lines if line.startswith("cx")]
        expected = [q for _, i in a.slot_multiset() for q in ((i + 1, i), (i, i + 1), (i + 1, i))]
        assert cx == expected


class TestBlockUnitary:
    def test_zero_angles_is_bare_cnot(self):
        np.testing.assert_allclose(block_unitary(np.zeros(4)), CX_FORWARD, atol=1e-14)
        np.testing.assert_allclose(block_unitary(np.zeros(4), reverse=True), CX_REVERSED, atol=1e-14)

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = block_unitary(rng.uniform(-np.pi, np.pi, 4), reverse=bool(rng.integers(2)))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


SLOT_SHAPES = [(2, 1, False), (5, 2, True), (8, 4, False), (17, 1, True), (32, 2, False)]
# Shapes run with a field h = 0.3 on every site. At odd n the last qubit's first slot comes after a
# field column, so a field rotation waits for it: fixed at (3, 1, False), trainable at (5, 2) and
# (7, 3). At n = 2 both qubits sit out the odd columns, so a slot absorbs two field columns on
# each after its last block.
FIELD_SHAPES = [(3, 1, False), (2, 1, True), (2, 1, False), (5, 2, True), (7, 3, True)]
FIELD_IDS = ["h-" + "-".join(map(str, shape)) for shape in FIELD_SHAPES]


def slot_ansatz(n, l, trainable_fields, seed, dt, h=0.0):
    base = random_xyz(n, 0.375, 1.125, seed=seed)
    ham = XYZHamiltonian(base.alpha, base.beta, base.delta, (h,) * n) if h else base
    return build_brickwork_ansatz(n, l, ham, dt, trainable_fields=trainable_fields)


class TestDerivativeMatrices:
    @pytest.mark.parametrize("n, l, trainable_fields, h",
                             [(3, 1, False, 0.0), (3, 1, True, 0.0), *((*s, 0.0) for s in SLOT_SHAPES),
                              *((*s, 0.3) for s in FIELD_SHAPES)],
                             ids=["False", "True", *("-".join(map(str, shape)) for shape in SLOT_SHAPES),
                                  *FIELD_IDS])
    def test_each_derivative_is_its_shift_difference(self, n, l, trainable_fields, h):
        a = slot_ansatz(n, l, trainable_fields, 8, 0.2, h)
        rng = np.random.default_rng(9)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        num_slots = len(a.slot_multiset())
        cot = rng.normal(size=(num_slots, 4, 4)) + 1j * rng.normal(size=(num_slots, 4, 4))
        # shifts[j, s] = sum(cot[s] * dM_s / dtheta_j), exactly 0 where slot s does not read angle j
        shifts = np.array([np.einsum("sab,sab->s", cot, dms) for dms in shift_derivatives(a, theta)])
        owner = (shifts != 0).argmax(1)
        assert np.count_nonzero(shifts, 1).tolist() == [1] * a.num_params  # one slot reads each angle
        np.testing.assert_allclose(slot_vjp(a, theta, cot), shifts.sum(1), rtol=0, atol=1e-14)
        for s in range(num_slots):  # a cotangent on one slot moves that slot's angles only
            one = np.zeros_like(cot)
            one[s] = cot[s]
            vjp = slot_vjp(a, theta, one)
            np.testing.assert_allclose(vjp, shifts[:, s], rtol=0, atol=1e-14)
            assert not vjp[owner != s].any()

    @pytest.mark.parametrize("n, l, trainable_fields, h", [*((*s, 0.0) for s in SLOT_SHAPES),
                                                           *((*s, 0.3) for s in FIELD_SHAPES)],
                             ids=[*("-".join(map(str, shape)) for shape in SLOT_SHAPES), *FIELD_IDS])
    def test_batched_build_equals_per_slot_build(self, n, l, trainable_fields, h):
        # every slot matrix against the 4x4 product of its gates, walked one gate at a time
        a = slot_ansatz(n, l, trainable_fields, n, 0.25, h)
        theta = np.random.default_rng(n + l).uniform(-np.pi, np.pi, a.num_params)
        ops, oracle = ansatz_ops(a, theta), gate_walk_slots(a, theta)
        assert [op.sites for op in ops] == [op.sites for op in oracle]
        for op, expected in zip(ops, oracle):
            np.testing.assert_allclose(op.matrix, expected.matrix, rtol=0, atol=1e-14)

    def test_building_a_layout_walks_no_gate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the slot layout walked the circuit gate by gate")

        monkeypatch.setattr(ansatz, "_primitive_gates", refuse)
        a = slot_ansatz(8, 40, False, 3, 0.05, h=0.3)
        theta = np.random.default_rng(3).uniform(-np.pi, np.pi, a.num_params)
        num_slots = len(a.slot_multiset())
        assert len(ansatz_ops(a, theta)) == num_slots
        assert slot_vjp(a, theta, np.ones((num_slots, 4, 4))).shape == (a.num_params,)


def per_gate_ops(a, theta):
    """The circuit one gate at a time, as it reads before slot fusion."""
    ops = [CircuitOp((q,), initial_rotation(theta[3 * q: 3 * q + 3])) for q in range(a.n)]
    slot = 0
    field = 3 * a.n + 4 * a.num_blocks
    for tag, pairs in a.columns:
        if tag == "field":
            for q in range(a.n):
                angle = theta[field + q] if a.trainable_fields else a.field_phis[q] / 2
                ops.append(CircuitOp((q,), rz(angle)))
            field += a.n if a.trainable_fields else 0
            continue
        for i in pairs:
            # block k of slot s owns angles 3n + 12s + 4k .. +4, reversed when k is even
            for k in range(3):
                o = 3 * a.n + 12 * slot + 4 * k
                ops.append(CircuitOp((i, i + 1), block_unitary(theta[o: o + 4], k % 2 == 0)))
            slot += 1
    return ops


class TestFusion:
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("trainable_fields", [False, True])
    def test_one_op_per_slot_equals_per_gate_circuit(self, n, l, trainable_fields):
        rng = np.random.default_rng(100 * n + 10 * l + trainable_fields)
        h = tuple(rng.uniform(-0.8, 0.8, n))
        ham = XYZHamiltonian((0.75,) * (n - 1), (0.75,) * (n - 1), (1.5,) * (n - 1), h)
        a = build_brickwork_ansatz(n, l, ham, 0.3, trainable_fields=trainable_fields)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        ops = ansatz_ops(a, theta)
        assert len(ops) == len(a.slot_multiset())
        assert all(len(op.sites) == 2 for op in ops)
        start = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        start /= np.linalg.norm(start)
        np.testing.assert_allclose(sv_apply_schedule(start, ops),
                                   sv_apply_schedule(start, per_gate_ops(a, theta)),
                                   rtol=0, atol=1e-12)

    def test_fused_matrices_are_unitary(self):
        ham = random_xyz(6, 0.375, 1.125, seed=14)
        a = build_brickwork_ansatz(6, 2, ham, 0.2, trainable_fields=True)
        rng = np.random.default_rng(15)
        for _ in range(200):
            for op in ansatz_ops(a, rng.uniform(-np.pi, np.pi, a.num_params)):
                np.testing.assert_allclose(op.matrix.conj().T @ op.matrix, np.eye(4),
                                           rtol=0, atol=1e-12)

    def test_ops_of_an_earlier_call_keep_their_values(self):
        # the slot layout is cached on the Ansatz; each call builds fresh matrices
        ham = random_xyz(5, 0.375, 1.125, seed=16)
        a = build_brickwork_ansatz(5, 2, ham, 0.2, trainable_fields=True)
        rng = np.random.default_rng(17)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        cot = rng.normal(size=(len(a.slot_multiset()), 4, 4))
        first, first_vjp = ansatz_ops(a, theta), slot_vjp(a, theta, cot)
        saved = [op.matrix.copy() for op in first]
        other = rng.uniform(-np.pi, np.pi, a.num_params)
        second, second_vjp = ansatz_ops(a, other), slot_vjp(a, other, cot)
        assert not np.array_equal(second[0].matrix, saved[0])
        assert not np.array_equal(second_vjp, first_vjp)
        for op, matrix in zip(first, saved):
            np.testing.assert_array_equal(op.matrix, matrix)
        np.testing.assert_array_equal(slot_vjp(a, theta, cot), first_vjp)
        layout = a._layout
        for arr in (layout.keys, layout.angles, layout.fixed, layout.derivatives):
            assert not arr.flags.writeable


class TestTripletSolve:
    def test_zero_couplings_give_identity_up_to_phase(self):
        angles = solve_triplet_angles(0.0, 0.0, 0.0, 0.1)
        assert phase_distance(triplet_unitary(angles), np.eye(4)) < 1e-12

    def test_xxz_values(self):
        angles = solve_triplet_angles(0.75, 0.75, 1.5, 0.1)
        target = two_site_unitary(0.75, 0.75, 1.5, 0.1)
        assert phase_distance(triplet_unitary(angles), target) < 1e-10

    def test_random_couplings(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, d = rng.uniform(-2, 2, 3)
            dt = rng.uniform(0.01, 0.6)
            angles = solve_triplet_angles(a, b, d, dt)
            assert phase_distance(triplet_unitary(angles), two_site_unitary(a, b, d, dt)) < 1e-10


class TestTrotterInitialize:
    @pytest.mark.parametrize("trainable_fields", [False, True])
    def test_each_slot_slice_is_its_triplet_solve(self, trainable_fields):
        ham = random_xyz(5, 0.375, 1.125, seed=16)
        dt = 0.3
        a = build_brickwork_ansatz(5, 2, ham, dt, trainable_fields=trainable_fields)
        theta = trotter_initialize(a, ham, dt)
        for s, (tag, i) in enumerate(a.slot_multiset()):
            tau = dt / 2 if tag == "even-half" else dt
            o = 3 * a.n + 12 * s
            np.testing.assert_array_equal(
                theta[o: o + 12], solve_triplet_angles(ham.alpha[i], ham.beta[i], ham.delta[i], tau))

    def test_cost_against_trotter_target_is_zero(self):
        ham = random_xyz(6, 0.375, 1.125, seed=4)
        dt, l = 0.25, 2
        target = tebd_evolve(from_product_state("101010"), ham, dt, l, EXACT)
        a = build_brickwork_ansatz(6, l, ham, dt)
        theta0 = trotter_initialize(a, ham, dt, bits="101010")
        from aqctensor.cost import CostConfig, cost_local_truncated

        cost = cost_local_truncated(a, theta0, target, CostConfig(policy=EXACT)).total
        assert cost == pytest.approx(0.0, abs=1e-8)

    def test_dense_equality_with_fields(self):
        rng = np.random.default_rng(5)
        base = random_xyz(6, 0.375, 1.125, seed=6)
        ham = XYZHamiltonian(base.alpha, base.beta, base.delta, tuple(rng.uniform(-0.5, 0.5, 6)))
        dt, l = 0.2, 2
        a = build_brickwork_ansatz(6, l, ham, dt)
        theta0 = trotter_initialize(a, ham, dt, bits="110010")
        circuit_state = sv_apply_schedule(basis_state("0" * 6), ansatz_ops(a, theta0))
        trotter_state = sv_apply_schedule(basis_state("110010"), build_trotter_schedule(ham, dt, l))
        assert sv_fidelity(circuit_state, trotter_state) == pytest.approx(1.0, abs=1e-10)

    def test_structure_mismatch_rejected(self):
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        a = build_brickwork_ansatz(4, 1, ham, 0.1)
        with pytest.raises(ValueError, match="Hamiltonian / time step"):
            trotter_initialize(a, ham, 0.2)
        other = XYZHamiltonian.uniform(4, 1, 1, 1, h=0.7)
        with pytest.raises(ValueError, match="field rotations"):
            trotter_initialize(a, other, 0.1)
        with pytest.raises(ValueError, match="Hamiltonian / time step"):
            trotter_initialize(a, XYZHamiltonian.uniform(5, 1, 1, 1), 0.1)
        with pytest.raises(ValueError, match="Hamiltonian has 4 sites, expected 5"):
            build_brickwork_ansatz(5, 1, ham, 0.1)

    def test_other_couplings_accepted(self):
        # the layout depends on n, dt and the fields only; the angles follow the couplings given
        other = random_xyz(4, 0.375, 1.125, seed=3)
        a = build_brickwork_ansatz(4, 1, XYZHamiltonian.uniform(4, 1, 1, 1), 0.1)
        np.testing.assert_array_equal(trotter_initialize(a, other, 0.1),
                                      trotter_initialize(build_brickwork_ansatz(4, 1, other, 0.1), other, 0.1))


class TestApply:
    def test_matches_statevector(self):
        rng = np.random.default_rng(7)
        ham = random_xyz(6, 0.375, 1.125, seed=8)
        a = build_brickwork_ansatz(6, 2, ham, 0.15)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        psi = apply_ansatz(a, theta, from_product_state("0" * 6), EXACT)
        dense = sv_apply_schedule(basis_state("0" * 6), ansatz_ops(a, theta))
        assert sv_fidelity(mps_to_statevector(psi), dense) == pytest.approx(1.0, abs=1e-10)

    def test_zero_angles_fix_the_vacuum(self):
        ham = XYZHamiltonian.uniform(5, 1, 1, 1)  # h = 0, CNOTs fix |0...0>
        a = build_brickwork_ansatz(5, 1, ham, 0.1)
        psi = apply_ansatz(a, np.zeros(a.num_params), from_product_state("0" * 5), EXACT)
        assert amplitude(psi, "0" * 5) == pytest.approx(1.0, abs=1e-12)

    def test_adjoint_inverts_forward(self):
        rng = np.random.default_rng(9)
        ham = random_xyz(5, 0.375, 1.125, seed=9)
        a = build_brickwork_ansatz(5, 1, ham, 0.2)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        start = from_product_state("01011")
        round_trip = apply_ansatz_adjoint(a, theta, apply_ansatz(a, theta, start, EXACT), EXACT)
        assert fidelity(round_trip, start) == pytest.approx(1.0, abs=1e-10)

    def test_adjoint_of_own_output_hits_vacuum(self):
        rng = np.random.default_rng(10)
        ham = random_xyz(4, 0.375, 1.125, seed=10)
        a = build_brickwork_ansatz(4, 1, ham, 0.3)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        target = apply_ansatz(a, theta, from_product_state("0000"), EXACT)
        phi = apply_ansatz_adjoint(a, theta, target, EXACT)
        assert abs(amplitude(phi, "0000")) == pytest.approx(1.0, abs=1e-10)

    def test_adjoint_dense_matrix_is_conjugate_transpose(self):
        rng = np.random.default_rng(11)
        ham = random_xyz(4, 0.375, 1.125, seed=11)
        a = build_brickwork_ansatz(4, 1, ham, 0.2)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        ops = ansatz_ops(a, theta)
        forward = dense_ops_matrix(ops, 4)
        backward = dense_ops_matrix(adjoint_ops(ops), 4)
        np.testing.assert_allclose(backward, forward.conj().T, atol=1e-10)

    def test_wrong_parameter_count(self):
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        a = build_brickwork_ansatz(4, 1, ham, 0.1)
        with pytest.raises(ValueError):
            apply_ansatz(a, np.zeros(a.num_params - 1), from_product_state("0000"), EXACT)


class TestDepth:
    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_depth_formula(self, n, l):
        ham = XYZHamiltonian.uniform(n, 1, 1, 1)
        a = build_brickwork_ansatz(n, l, ham, 0.1)
        assert cnot_depth(a.columns) == 3 * (2 * l + 1)

    def test_two_qubit_depth(self):
        ham = XYZHamiltonian.uniform(2, 1, 1, 1)
        a = build_brickwork_ansatz(2, 1, ham, 0.1)
        assert cnot_depth(a.columns) == 6

    @pytest.mark.parametrize("n,l", [(4, 1), (5, 2), (8, 3), (9, 4)])
    def test_equals_trotter_depth(self, n, l):
        ham = XYZHamiltonian.uniform(n, 1, 1, 1)
        a = build_brickwork_ansatz(n, l, ham, 0.1)
        assert cnot_depth(a.columns) == schedule_cnot_depth(build_trotter_schedule(ham, 0.1, l), n)


class TestTrainableFields:
    def make(self):
        rng = np.random.default_rng(40)
        base = random_xyz(4, 0.375, 1.125, seed=41)
        ham = XYZHamiltonian(base.alpha, base.beta, base.delta, tuple(rng.uniform(-0.5, 0.5, 4)))
        a = build_brickwork_ansatz(4, 1, ham, 0.2, trainable_fields=True)
        return ham, a

    def test_parameter_count_grows_by_field_rotations(self):
        ham, a = self.make()
        fixed = build_brickwork_ansatz(4, 1, ham, 0.2)
        assert a.num_params == fixed.num_params + 2 * 1 * 4  # 2l field columns, n each

    def test_initialization_still_exact(self):
        ham, a = self.make()
        theta0 = trotter_initialize(a, ham, 0.2, bits="1010")
        circuit = sv_apply_schedule(basis_state("0000"), ansatz_ops(a, theta0))
        trotter = sv_apply_schedule(basis_state("1010"), build_trotter_schedule(ham, 0.2, 1))
        assert sv_fidelity(circuit, trotter) == pytest.approx(1.0, abs=1e-10)

    def test_field_gradient_components_exist_and_match_fd(self):
        from aqctensor.cost import CostConfig, cost_and_gradient, cost_local_truncated, gradient_fd

        ham, a = self.make()
        rng = np.random.default_rng(42)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        target = random_mps(4, seed=43)
        cfg = CostConfig(alphas=(0.75,), policy=EXACT)
        g = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1]
        assert g.size == a.num_params
        np.testing.assert_allclose(g, gradient_fd(a, theta, target, cfg), atol=1e-6)
        # the promoted components actually carry signal
        assert np.max(np.abs(g[-2 * 4:])) > 1e-8


class TestExport:
    def test_round_trip_reproduces_circuit(self, tmp_path):
        from aqctensor.gates import write_gate_list

        rng = np.random.default_rng(12)
        # n=6, l=2: odd-full columns of two slots, which ansatz_ops runs right to left
        for n, l, h in ((4, 1, (0.1, -0.2, 0.3, 0.0)), (6, 2, (0.1, -0.2, 0.3, 0.0, 0.2, -0.1))):
            base = random_xyz(n, 0.375, 1.125, seed=13)
            ham = XYZHamiltonian(base.alpha, base.beta, base.delta, h)
            a = build_brickwork_ansatz(n, l, ham, 0.2)
            theta = rng.uniform(-np.pi, np.pi, a.num_params)

            path = tmp_path / f"circuit-{n}.txt"
            write_gate_list(export_circuit_records(a, theta), str(path))
            ops = [op_from_record(*rec) for rec in read_gate_list(str(path))]

            direct = sv_apply_schedule(basis_state("0" * n), ansatz_ops(a, theta))
            parsed = sv_apply_schedule(basis_state("0" * n), ops)
            np.testing.assert_allclose(parsed, direct, atol=1e-12)

    def test_parse_gate_line(self):
        name, qubits, angles = parse_gate_line("ry q3 0.25")
        assert (name, qubits, angles) == ("ry", [3], [0.25])
        name, qubits, angles = parse_gate_line("cx q2 q1")
        assert (name, qubits, angles) == ("cx", [2, 1], [])
