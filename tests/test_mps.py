import numpy as np
import pytest

from aqctensor import mps
from aqctensor.gates import CX_FORWARD, CircuitOp, rz
from aqctensor.hamiltonian import random_xyz, tebd_evolve
from aqctensor.mps import (
    MPS,
    TruncationPolicy,
    apply_ops,
    apply_single_site_gate,
    apply_two_site_gate,
    canonicalize,
    fidelity,
    from_product_state,
    inner_product,
    iter_ops,
    max_bond,
    normalize,
    norm,
)
from aqctensor.statevector import mps_to_statevector

from conftest import EXACT, assert_canonical, assert_left_orthonormal, random_circuit_pair
from oracles import amplitude, random_mps

H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)


class TestProductState:
    def test_neel_amplitude(self):
        psi = from_product_state("1010")
        assert amplitude(psi, "1010") == pytest.approx(1.0)
        assert amplitude(psi, "0101") == pytest.approx(0.0)
        assert all(d == 1 for d in psi.bond_dims())

    def test_single_qubit(self):
        psi = from_product_state("0")
        assert norm(psi) == pytest.approx(1.0)

    def test_orthogonal_product_states(self):
        assert inner_product(from_product_state("11"), from_product_state("00")) == 0

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            from_product_state("")

    def test_bad_character_rejected(self):
        with pytest.raises(ValueError):
            from_product_state("012")


class TestConstruction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_tensor_rejected(self, bad):
        tensors = [t.copy() for t in from_product_state("00").tensors]
        tensors[1][0, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            MPS(tensors)


class TestInnerProduct:
    def test_self_overlap_of_normalized_state(self):
        psi = random_mps(6, seed=1)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert inner_product(from_product_state("1010"), from_product_state("0101")) == 0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            inner_product(from_product_state("00"), from_product_state("000"))

    def test_against_dense_dot_product(self):
        rng = np.random.default_rng(42)
        a, dense_a = random_circuit_pair(8, rng)
        b, dense_b = random_circuit_pair(8, rng)
        expected = np.vdot(dense_a, dense_b)
        assert inner_product(a, b) == pytest.approx(expected, abs=1e-12)


class TestFidelity:
    def test_identical_states(self):
        psi = random_mps(5, seed=2)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(from_product_state("11"), from_product_state("00")) == 0

    def test_global_phase_invariance(self):
        psi = random_mps(5, seed=3)
        rotated = psi.copy()
        rotated.tensors[2] = rotated.tensors[2] * np.exp(0.73j)
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)


class TestAmplitude:
    def test_product_state_hit_and_miss(self):
        psi = from_product_state("10")
        assert amplitude(psi, "10") == pytest.approx(1.0)
        assert amplitude(psi, "01") == pytest.approx(0.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            amplitude(from_product_state("10"), "101")

    def test_all_strings_match_statevector(self):
        rng = np.random.default_rng(5)
        psi, dense = random_circuit_pair(6, rng)
        for idx in range(64):
            bits = format(idx, "06b")
            assert amplitude(psi, bits) == pytest.approx(dense[idx], abs=1e-12)


class TestSingleSiteGate:
    def test_identity_leaves_state(self, monkeypatch):
        psi = random_mps(4, seed=7)
        out = apply_single_site_gate(psi, np.eye(2), 2)
        assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

        # an exact identity is a copy sharing every tensor: no unitarity check, no matmul
        def unreachable(u, dim):
            raise AssertionError("unitarity checked")

        monkeypatch.setattr(mps, "_check_unitary", unreachable)
        psi = MPS(psi.tensors, center=psi.center, discarded_weight=0.25)
        for u in (np.eye(2), np.eye(2, dtype=int), [[1, 0], [0, 1]]):
            out = apply_single_site_gate(psi, u, 2)
            assert out is not psi and out.tensors is not psi.tensors
            assert len(out.tensors) == psi.n and all(t is s for t, s in zip(out.tensors, psi.tensors))
            assert (out.center, out.discarded_weight) == (psi.center, 0.25)
        with pytest.raises(AssertionError, match="unitarity checked"):
            apply_single_site_gate(psi, rz(0.3), 2)

    def test_x_flips_bit(self):
        out = apply_single_site_gate(from_product_state("00"), X_GATE, 0)
        assert amplitude(out, "10") == pytest.approx(1.0)

    def test_rotation_inverse_pair(self):
        psi = random_mps(5, seed=8)
        out = apply_single_site_gate(apply_single_site_gate(psi, rz(0.4), 3), rz(-0.4), 3)
        assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_single_site_gate(from_product_state("0"), np.array([[1, 1], [0, 1.0]]), 0)

    def test_bonds_and_norm_preserved(self):
        psi = random_mps(6, seed=9)
        out = apply_single_site_gate(psi, H_GATE, 3)
        assert out.bond_dims() == psi.bond_dims()
        assert norm(out) == pytest.approx(1.0, abs=1e-12)


class TestConstruction:
    def test_bad_bonds_rejected(self):
        with pytest.raises(ValueError):
            MPS([])
        with pytest.raises(ValueError):
            MPS([np.zeros((2, 2, 1))])
        with pytest.raises(ValueError):
            MPS([np.zeros((1, 2, 2)), np.zeros((3, 2, 1))])

    def test_copy_skips_the_bond_checks(self, monkeypatch):
        psi = random_mps(5, seed=21)
        checks = [0]
        monkeypatch.setattr(MPS, "__post_init__", lambda self: checks.__setitem__(0, checks[0] + 1))
        out = psi.copy()
        assert checks[0] == 0
        assert (out.center, out.discarded_weight) == (psi.center, psi.discarded_weight)
        out.tensors[0] = None
        assert psi.tensors[0] is not None

    @pytest.mark.parametrize("center", [0, 2, 3, 5])
    def test_two_site_gate_copies_the_state_once(self, center, monkeypatch):
        psi = canonicalize(random_mps(6, seed=22), center)
        copies = [0]

        def counted(self, _copy=MPS.copy):
            copies[0] += 1
            return _copy(self)

        monkeypatch.setattr(MPS, "copy", counted)
        apply_two_site_gate(psi, np.eye(4), 2, EXACT)
        assert copies[0] == 1


class TestTwoSiteGate:
    def test_identity_gate(self):
        psi = random_mps(5, seed=11)
        out = apply_two_site_gate(psi, np.eye(4), 2, EXACT)
        assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_cnot_on_10(self):
        out = apply_two_site_gate(from_product_state("10"), CX_FORWARD, 0, EXACT)
        assert amplitude(out, "11") == pytest.approx(1.0)

    def test_random_sequence_matches_statevector(self):
        rng = np.random.default_rng(13)
        psi, dense = random_circuit_pair(8, rng, layers=4)
        np.testing.assert_allclose(mps_to_statevector(psi), dense, atol=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_two_site_gate(from_product_state("00"), np.ones((4, 4)), 0, EXACT)

    def test_center_ends_on_right_site(self):
        psi = random_mps(6, seed=14)
        out = apply_two_site_gate(psi, np.eye(4), 2, EXACT)
        assert out.center == 3

    def test_end_left_moves_the_weights_not_the_state(self):
        from scipy.stats import unitary_group

        psi = random_mps(6, seed=17)
        u = unitary_group.rvs(4, random_state=np.random.default_rng(17))
        right = apply_two_site_gate(psi, u, 2, EXACT)
        left = apply_two_site_gate(psi, u, 2, EXACT, True)
        assert left.center == 2
        assert_canonical(left)
        np.testing.assert_allclose(mps_to_statevector(left), mps_to_statevector(right),
                                   rtol=0, atol=1e-12)

    def test_discarded_weight_is_the_dropped_mass(self):
        # |00> + 1e-14 |11>: the cutoff drops a Schmidt value of 1e-14, a mass
        # of 1e-28, far below the rounding error of the pair's norm
        a = np.zeros((1, 2, 2), dtype=complex)
        a[0, 0, 0], a[0, 1, 1] = 1.0, 1e-14
        b = np.zeros((2, 2, 1), dtype=complex)
        b[0, 0, 0] = b[1, 1, 0] = 1.0
        out = apply_two_site_gate(MPS([a, b], center=0), np.eye(4), 0,
                                  TruncationPolicy(cutoff=1e-12))
        assert max_bond(out) == 1
        assert out.discarded_weight == pytest.approx(1e-28, rel=1e-9, abs=0)

    def test_chi_max_enforced(self):
        rng = np.random.default_rng(15)
        policy = TruncationPolicy(chi_max=3)
        psi, _ = random_circuit_pair(8, rng, layers=1)
        from scipy.stats import unitary_group

        for i in range(7):
            psi = apply_two_site_gate(psi, unitary_group.rvs(4, random_state=rng), i, policy)
        assert max_bond(psi) <= 3

    @pytest.mark.parametrize("end_left", [False, True])
    def test_truncated_factors_own_their_memory(self, end_left):
        # a view of the SVD factors would keep all of their buffer alive
        from scipy.stats import unitary_group

        psi = canonicalize(random_mps(6, seed=19), 2)
        u = unitary_group.rvs(4, random_state=np.random.default_rng(19))
        out = apply_two_site_gate(psi, u, 2, TruncationPolicy(chi_max=2), end_left)
        assert out.discarded_weight > 0  # the cap binds
        for t in out.tensors:
            owner = t
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == t.nbytes

    def test_renormalization_keeps_unit_norm(self):
        rng = np.random.default_rng(16)
        policy = TruncationPolicy(chi_max=2)
        psi = from_product_state("010101")
        from scipy.stats import unitary_group

        for layer in range(3):
            for i in range(layer % 2, 5, 2):
                psi = apply_two_site_gate(psi, unitary_group.rvs(4, random_state=rng), i, policy)
        assert norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert psi.discarded_weight > 0


class TestIterOps:
    def test_each_gate_ends_next_to_the_following_one(self):
        u = np.eye(4)
        ops = [CircuitOp((3, 4), u), CircuitOp((1, 2), u), CircuitOp((0,), np.eye(2)),
               CircuitOp((0, 1), u), CircuitOp((2, 3), u)]
        states = list(iter_ops(random_mps(6, seed=18), ops, EXACT))
        assert len(states) == len(ops)
        # a single-site op keeps the center; the last gate has no successor
        assert [psi.center for psi in states] == [3, 1, 1, 1, 3]


    @pytest.mark.parametrize("sites", [(0, 2), (1, 0), (0, 1, 2), ()])
    def test_ops_off_a_pair_of_neighbours_raise(self, sites):
        matrix = np.eye(2 ** len(sites), dtype=complex)
        ops = [CircuitOp((0,), X_GATE), CircuitOp(sites, matrix)]
        psi = from_product_state("100")
        with pytest.raises(ValueError, match="sites must be"):
            apply_ops(psi, ops, EXACT)
        with pytest.raises(ValueError, match="sites must be"):
            next(iter_ops(psi, ops, EXACT))  # before the first gate, which is a valid one


class TestCanonicalize:
    def test_product_state_any_center(self):
        psi = from_product_state("0110")
        for c in range(4):
            out = canonicalize(psi, c)
            assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)
            assert_canonical(out)

    def test_round_trip_preserves_state(self):
        psi = random_mps(7, seed=21)
        out = canonicalize(canonicalize(psi, 0), 6)
        assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_left_orthonormality_by_definition(self):
        psi = canonicalize(random_mps(6, seed=22), 4)
        for i in range(4):
            assert_left_orthonormal(psi.tensors[i])

    def test_out_of_range_center(self):
        with pytest.raises(ValueError):
            canonicalize(from_product_state("00"), 2)


class TestMaxBond:
    def test_product_state(self):
        assert max_bond(from_product_state("0000")) == 1

    def test_bell_pair(self):
        psi = apply_single_site_gate(from_product_state("00"), H_GATE, 0)
        psi = apply_two_site_gate(psi, CX_FORWARD, 0, EXACT)
        assert max_bond(psi) == 2

    def test_tebd_respects_cap(self):
        ham = random_xyz(8, 0.375, 1.125, seed=23)
        policy = TruncationPolicy(chi_max=16)
        out = tebd_evolve(from_product_state("10101010"), ham, 0.1, 20, policy)
        assert max_bond(out) <= 16


class TestTruncationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(chi_max=0)
        with pytest.raises(ValueError):
            TruncationPolicy(cutoff=1.0)
        with pytest.raises(ValueError):
            TruncationPolicy(cutoff=-0.1)

    def test_defaults(self):
        policy = TruncationPolicy()
        assert policy.chi_max is None
        assert policy.cutoff == 1e-12


class TestInvariants:
    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            psi, dense = random_circuit_pair(n, rng)
            np.testing.assert_allclose(mps_to_statevector(psi), dense, atol=1e-10)

    def test_norm_preserved_through_sequence(self):
        rng = np.random.default_rng(31)
        psi, _ = random_circuit_pair(7, rng, layers=4)
        assert norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_monotonicity(self):
        ham = random_xyz(8, 0.375, 1.125, seed=99)
        psi0 = from_product_state("10101010")
        reference = tebd_evolve(psi0, ham, 0.1, 10, EXACT)
        fids = []
        for chi in (16, 8, 4, 2):
            truncated = tebd_evolve(psi0, ham, 0.1, 10, TruncationPolicy(chi_max=chi))
            fids.append(fidelity(truncated, reference))
        for tighter, looser in zip(fids[1:], fids[:-1]):
            assert tighter <= looser + 1e-12

    def test_normalize_after_scaling(self):
        psi = random_mps(5, seed=33)
        scaled = psi.copy()
        scaled.tensors[0] = scaled.tensors[0] * 3.7
        assert norm(normalize(scaled)) == pytest.approx(1.0, abs=1e-12)
