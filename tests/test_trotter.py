import numpy as np
import pytest

from aqctensor import hamiltonian
from aqctensor.ansatz import (build_brickwork_ansatz, cnot_depth, export_circuit_records,
                              trotter_initialize)
from aqctensor.gates import CircuitOp, rz
from aqctensor.hamiltonian import (
    Column,
    GateSchedule,
    XYZHamiltonian,
    build_trotter_schedule,
    expectation_energy,
    random_xyz,
    tebd_evolve,
    trotter_columns,
    two_site_unitary,
)
from aqctensor.mps import MPS, TruncationPolicy, canonicalize, fidelity, from_product_state
from aqctensor.statevector import basis_state, mps_to_statevector, sv_apply_schedule, sv_fidelity

from conftest import EXACT
from oracles import (dense_hamiltonian, op_from_record, parse_gate_line, random_mps, schedule_cnot_depth,
                     sv_exact_evolution, tebd_evolve_by_column, total_sz)


def expm_eig(generator: np.ndarray) -> np.ndarray:
    """Independent matrix-exponential oracle via Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(1j * w)) @ v.conj().T


def dense_unfused_step(ham: XYZHamiltonian, dt: float) -> np.ndarray:
    """One second-order step assembled directly: even halves around fields and odd bonds."""
    n = ham.n
    dim = 2**n

    def embed2(u, i):
        out = np.array([[1.0]], dtype=complex)
        k = 0
        while k < n:
            if k == i:
                out = np.kron(out, u)
                k += 2
            else:
                out = np.kron(out, np.eye(2))
                k += 1
        return out

    def column(start, tau):
        m = np.eye(dim, dtype=complex)
        for i in range(start, n - 1, 2):
            m = embed2(two_site_unitary(ham.alpha[i], ham.beta[i], ham.delta[i], tau), i) @ m
        return m

    field = np.eye(dim, dtype=complex)
    for j in range(n):
        u = np.array([[1.0]], dtype=complex)
        for k in range(n):
            u = np.kron(u, rz(ham.h[k] * dt / 2) if k == j else np.eye(2))
        field = u @ field
    even_half = column(0, dt / 2)
    odd_full = column(1, dt)
    return even_half @ field @ odd_full @ field @ even_half


def dense_schedule_product(ham: XYZHamiltonian, dt: float, steps: int) -> np.ndarray:
    dim = 2**ham.n
    out = np.eye(dim, dtype=complex)
    for idx in range(dim):
        col = np.zeros(dim, dtype=complex)
        col[idx] = 1.0
        out[:, idx] = sv_apply_schedule(col, build_trotter_schedule(ham, dt, steps))
    return out


class TestTwoSiteUnitary:
    def test_zero_couplings_identity(self):
        np.testing.assert_allclose(two_site_unitary(0, 0, 0, 0.7), np.eye(4), atol=1e-14)

    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, d, dt = rng.uniform(-2, 2, 4)
            u = two_site_unitary(a, b, d, dt)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_against_eigendecomposition_oracle(self):
        a = b = d = 0.75
        dt = 0.1
        ham = XYZHamiltonian.uniform(2, a, b, d)
        expected = expm_eig(dt * ham.bond_matrix(0))
        np.testing.assert_allclose(two_site_unitary(a, b, d, dt), expected, atol=1e-12)


class TestFieldRotation:
    """The schedule's field columns: half-step rotations exp(-i h Sz dt / 2)."""

    @staticmethod
    def field_gate(h, dt):
        ham = XYZHamiltonian.uniform(2, 0.75, 0.75, 0.75, h=h)
        field = next(c for c in build_trotter_schedule(ham, dt, 1).columns if c.tag == "field")
        return field.gates[0].matrix

    def test_zero_field_identity(self):
        np.testing.assert_allclose(self.field_gate(0.0, 0.3), np.eye(2), atol=1e-14)

    def test_two_halves_make_a_full(self):
        half = self.field_gate(1.3, 0.2)
        full = np.diag(np.exp([-0.5j * 1.3 * 0.2, 0.5j * 1.3 * 0.2]))  # exp(-i h Sz dt)
        np.testing.assert_allclose(half @ half, full, atol=1e-14)

    def test_frozen_phases(self):
        u = self.field_gate(1.0, 0.2)
        np.testing.assert_allclose(np.diag(u), [np.exp(-0.05j), np.exp(0.05j)], atol=1e-14)


class TestSchedule:
    def test_dt_zero_fixes_any_state(self):
        ham = random_xyz(5, 0.375, 1.125, seed=3)
        psi0 = from_product_state("10101")
        out = tebd_evolve(psi0, ham, 0.0, 3, EXACT)
        assert fidelity(out, psi0) == pytest.approx(1.0, abs=1e-12)

    def test_steps_must_be_positive(self):
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        with pytest.raises(ValueError):
            build_trotter_schedule(ham, 0.1, 0)

    def test_fused_product_equals_squared_step(self):
        ham = random_xyz(4, 0.375, 1.125, seed=5)
        ham = XYZHamiltonian(ham.alpha, ham.beta, ham.delta, (0.3, -0.2, 0.5, 0.1))
        dt = 0.17
        step = dense_unfused_step(ham, dt)
        np.testing.assert_allclose(dense_schedule_product(ham, dt, 2), step @ step, atol=1e-12)

    def test_column_counts_with_fusion(self):
        ham = XYZHamiltonian.uniform(6, 1, 1, 1)
        schedule = build_trotter_schedule(ham, 0.1, 3)
        two_site = [c for c in schedule.columns if c.tag != "field"]
        assert len(two_site) == 7  # 2 * 3 + 1 fused columns
        tags = [c.tag for c in schedule.columns if c.tag != "field"]
        assert tags[0] == "even-half" and tags[-1] == "even-half"
        assert tags.count("even-full") == 2 and tags.count("odd-full") == 3
        assert sum(1 for c in schedule.columns if c.tag == "field") == 6

    def test_steps1_column_pattern(self):
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        tags = [c.tag for c in build_trotter_schedule(ham, 0.1, 1).columns]
        assert tags == ["even-half", "field", "odd-full", "field", "even-half"]

    def test_schedule_unitarity(self):
        ham = random_xyz(6, 0.375, 1.125, seed=8)
        u = dense_schedule_product(ham, 0.23, 2)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(64), atol=1e-10)

    def test_time_symmetry(self):
        ham = random_xyz(6, 0.375, 1.125, seed=9)  # h = 0
        forward = dense_schedule_product(ham, 0.19, 1)
        backward = dense_schedule_product(ham, -0.19, 1)
        np.testing.assert_allclose(forward @ backward, np.eye(64), atol=1e-10)


class TestTrotterColumns:
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_layout_is_the_schedule_tags_and_pair_sites(self, n, steps):
        schedule = build_trotter_schedule(random_xyz(n, 0.375, 1.125, seed=n), 0.1, steps)
        expected = tuple((c.tag, tuple(g.sites[0] for g in c.gates if len(g.sites) == 2))
                         for c in schedule.columns)
        assert trotter_columns(n, steps) == expected

    def test_two_sites_have_empty_odd_columns(self):
        layout = trotter_columns(2, 3)
        assert [pairs for tag, pairs in layout if tag == "odd-full"] == [()] * 3
        assert all(pairs == (0,) for tag, pairs in layout if tag.startswith("even"))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_must_be_positive(self, steps):
        with pytest.raises(ValueError):
            trotter_columns(4, steps)


def fresh_schedule(ham: XYZHamiltonian, dt: float, steps: int) -> GateSchedule:
    """Oracle: the fused schedule with every column built afresh, gate by gate."""

    def pairs(start, tau, tag):
        return Column(tag, tuple(
            CircuitOp((i, i + 1), two_site_unitary(ham.alpha[i], ham.beta[i], ham.delta[i], tau))
            for i in range(start, ham.n - 1, 2)))

    def fields():
        return Column("field", tuple(CircuitOp((j,), rz(ham.h[j] * dt / 2)) for j in range(ham.n)))

    cols = [pairs(0, dt / 2, "even-half")]
    for s in range(steps):
        last = s == steps - 1
        cols += [fields(), pairs(1, dt, "odd-full"), fields(),
                 pairs(0, dt / 2 if last else dt, "even-half" if last else "even-full")]
    return GateSchedule(tuple(cols))


class TestColumnReuse:
    @staticmethod
    def ham():
        base = random_xyz(7, 0.375, 1.125, seed=21)
        return XYZHamiltonian(base.alpha, base.beta, base.delta, (0.3, -0.2, 0.5, 0.1, 0.0, 0.4, -0.6))

    @pytest.mark.parametrize("steps", [1, 5, 40])
    def test_each_distinct_column_is_built_once(self, steps, monkeypatch):
        ham = self.ham()
        calls = [0]

        def counted(*args, _build=hamiltonian.two_site_unitary):
            calls[0] += 1
            return _build(*args)

        monkeypatch.setattr(hamiltonian, "two_site_unitary", counted)
        build_trotter_schedule(ham, 0.1, steps)
        assert calls[0] <= 3 * (ham.n - 1)

    @pytest.mark.parametrize("steps", [1, 5, 40])
    def test_columns_equal_a_fresh_build(self, steps):
        ham = self.ham()
        built, fresh = build_trotter_schedule(ham, 0.1, steps), fresh_schedule(ham, 0.1, steps)
        assert [c.tag for c in built.columns] == [c.tag for c in fresh.columns]
        for col, want in zip(built.columns, fresh.columns):
            assert [g.sites for g in col.gates] == [g.sites for g in want.gates]
            assert all(np.array_equal(g.matrix, w.matrix) for g, w in zip(col.gates, want.gates))
        assert cnot_depth(trotter_columns(ham.n, steps)) == schedule_cnot_depth(fresh, ham.n)


class TestTebdEvolve:
    def test_size_mismatch(self):
        ham = XYZHamiltonian.uniform(4, 1, 1, 1)
        with pytest.raises(ValueError):
            tebd_evolve(from_product_state("000"), ham, 0.1, 1, EXACT)

    def test_xxx_matches_exact_evolution(self):
        ham = XYZHamiltonian.uniform(8, 0.75, 0.75, 0.75)
        psi0 = from_product_state("10101010")
        evolved = tebd_evolve(psi0, ham, 0.05, 20, EXACT)
        exact = sv_exact_evolution(ham, basis_state("10101010"), 1.0)
        assert sv_fidelity(mps_to_statevector(evolved), exact) >= 1 - 1e-4

    def test_halving_dt_quarters_the_error(self):
        ham = XYZHamiltonian.uniform(6, 0.75, 0.75, 0.75)
        exact = sv_exact_evolution(ham, basis_state("101010"), 1.0)
        errs = []
        for steps in (5, 10):
            state = sv_apply_schedule(basis_state("101010"),
                                      build_trotter_schedule(ham, 1.0 / steps, steps))
            errs.append(np.linalg.norm(state - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)

    def test_magnetization_conserved_when_alpha_equals_beta(self):
        rng = np.random.default_rng(10)
        n = 6
        alpha = tuple(rng.uniform(0.4, 1.1, n - 1))
        delta = tuple(rng.uniform(0.4, 1.1, n - 1))
        h = tuple(rng.uniform(-0.3, 0.3, n))
        ham = XYZHamiltonian(alpha, alpha, delta, h)
        psi0 = from_product_state("110100")
        evolved = tebd_evolve(psi0, ham, 0.1, 10, EXACT)
        assert total_sz(evolved) == pytest.approx(total_sz(psi0), abs=1e-8)

    def test_energy_drift_scales_quadratically(self):
        ham = XYZHamiltonian.uniform(6, 0.75, 0.75, 0.75)
        psi0 = from_product_state("101010")
        e0 = expectation_energy(ham, psi0)

        def max_drift(dt, steps):
            psi, drift = psi0, 0.0
            for _ in range(steps):
                psi = tebd_evolve(psi, ham, dt, 1, EXACT)
                drift = max(drift, abs(expectation_energy(ham, psi) - e0))
            return drift

        ratio = max_drift(0.2, 5) / max_drift(0.1, 10)
        assert 2.5 <= ratio <= 6.5

    @staticmethod
    def count_qr_steps(monkeypatch) -> list[int]:
        """A one-item list that counts the QR and LQ re-gauge steps from now on."""
        from aqctensor import mps

        calls = [0]
        for name in ("_shift_center_right", "_shift_center_left"):
            def counted(*args, _step=getattr(mps, name)):
                calls[0] += 1
                return _step(*args)
            monkeypatch.setattr(mps, name, counted)
        return calls

    def test_one_qr_step_per_two_site_gate(self, monkeypatch):
        # odd-full columns run right to left, so the center never walks back
        # across the chain between columns
        calls = self.count_qr_steps(monkeypatch)
        ham = random_xyz(12, 0.375, 1.125, seed=19)
        tebd_evolve(from_product_state("10" * 6), ham, 0.2, 4, EXACT)
        gates = sum(len(g.sites) == 2 for g in build_trotter_schedule(ham, 0.2, 4).flat_gates())
        assert calls[0] <= gates

    @pytest.mark.parametrize("h, chi_max", [(0.0, None), (0.0, 4), (0.3, 5)])
    def test_one_pass_matches_column_by_column(self, h, chi_max, monkeypatch):
        # one iter_ops pass lets each column's last gate end next to the next column
        calls = self.count_qr_steps(monkeypatch)
        base = random_xyz(8, 0.375, 1.125, seed=23)
        ham = XYZHamiltonian(base.alpha, base.beta, base.delta, (h,) * 8)
        policy = TruncationPolicy(chi_max=chi_max, cutoff=1e-12)
        psi0, stats, ref_stats = from_product_state("10" * 4), {}, {}
        out = tebd_evolve(psi0, ham, 0.2, 3, policy, stats=stats)
        one_pass, calls[0] = calls[0], 0
        ref = tebd_evolve_by_column(psi0, ham, 0.2, 3, policy, ref_stats)
        assert fidelity(out, ref) == pytest.approx(1.0, abs=1e-13)
        assert stats["max_bond"] == ref_stats["max_bond"]
        assert stats["discarded_weight"] == pytest.approx(ref_stats["discarded_weight"], rel=0, abs=1e-20)
        assert chi_max is None or stats["discarded_weight"] > 1e-10  # the cap binds
        assert one_pass < calls[0]

    def test_stats_reporting(self):
        ham = XYZHamiltonian.uniform(6, 0.75, 0.75, 0.75)
        stats = {}
        tebd_evolve(from_product_state("101010"), ham, 0.1, 5, EXACT, stats=stats)
        assert stats["max_bond"] >= 2
        assert stats["discarded_weight"] == pytest.approx(0.0, abs=1e-12)


class TestExpectationEnergy:
    @pytest.mark.parametrize("center", [None, 0, 5])
    def test_equals_dense_expectation(self, center):
        rng = np.random.default_rng(20)
        base = random_xyz(6, 0.375, 1.125, seed=21)
        ham = XYZHamiltonian(base.alpha, base.beta, base.delta, tuple(rng.uniform(-0.5, 0.5, 6)))
        psi = random_mps(6, seed=22, entangling_layers=3)
        if center is None:  # an invertible gauge on bond 2 leaves no site canonical
            tensors = list(psi.tensors)
            g = np.eye(tensors[2].shape[2]) + 0.3 * rng.normal(size=(tensors[2].shape[2],) * 2)
            tensors[2] = tensors[2] @ g
            tensors[3] = np.einsum("ab,bsc->asc", np.linalg.inv(g), tensors[3])
            psi = MPS(tensors, center=None)
        else:
            psi = canonicalize(psi, center)
        vec = mps_to_statevector(psi)
        want = np.vdot(vec, dense_hamiltonian(ham) @ vec).real
        assert expectation_energy(ham, psi) == pytest.approx(want, abs=1e-12)


class TestPrimitiveRecords:
    """Trotter steps as gate-list lines: the exported Trotter-initialized ansatz."""

    @staticmethod
    def trotter_ops(ham, dt, steps):
        a = build_brickwork_ansatz(ham.n, steps, ham, dt)
        return [op_from_record(*parse_gate_line(line))
                for line in export_circuit_records(a, trotter_initialize(a, ham, dt))]

    def test_three_cnot_form_matches_exponential(self):
        # n = 2, one step, no field: two half-step gates, whose product is the full exponential
        rng = np.random.default_rng(14)
        for _ in range(5):
            a, b, d = rng.uniform(-1.5, 1.5, 3)
            dt = rng.uniform(0.05, 0.5)
            ops = self.trotter_ops(XYZHamiltonian((a,), (b,), (d,), (0.0, 0.0)), dt, 1)
            built = np.column_stack([sv_apply_schedule(col, ops) for col in np.eye(4, dtype=complex)])
            target = two_site_unitary(a, b, d, dt)
            overlap = abs(np.trace(target.conj().T @ built)) / 4
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_schedule_records_reproduce_evolution(self):
        rng = np.random.default_rng(15)
        base = random_xyz(5, 0.375, 1.125, seed=16)
        ham = XYZHamiltonian(base.alpha, base.beta, base.delta, tuple(rng.uniform(-0.4, 0.4, 5)))
        from_records = sv_apply_schedule(basis_state("10101"), self.trotter_ops(ham, 0.21, 2))
        direct = sv_apply_schedule(basis_state("10101"), build_trotter_schedule(ham, 0.21, 2))
        assert sv_fidelity(from_records, direct) == pytest.approx(1.0, abs=1e-12)


class TestRandomXYZ:
    def test_degenerate_range_gives_xxx(self):
        ham = random_xyz(5, 0.75, 0.75, seed=1)
        assert all(a == 0.75 for a in ham.alpha + ham.beta + ham.delta)
        assert all(h == 0.0 for h in ham.h)

    def test_determinism(self):
        assert random_xyz(10, 0.375, 1.125, seed=7) == random_xyz(10, 0.375, 1.125, seed=7)

    def test_range_at_n100(self):
        ham = random_xyz(100, 0.375, 1.125, seed=12)
        values = np.array(ham.alpha + ham.beta + ham.delta)
        assert values.min() >= 0.375 and values.max() <= 1.125

    def test_bad_range(self):
        with pytest.raises(ValueError):
            random_xyz(4, 2.0, 1.0, seed=0)

    def test_serialization_round_trip(self):
        ham = random_xyz(6, 0.375, 1.125, seed=3)
        assert XYZHamiltonian.from_dict(ham.to_dict()) == ham

    def test_validation(self):
        with pytest.raises(ValueError):
            XYZHamiltonian((1.0,), (1.0,), (1.0, 2.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            XYZHamiltonian((np.inf,), (1.0,), (1.0,), (0.0, 0.0))
