import numpy as np
import pytest

from aqctensor.gates import CX_FORWARD
from aqctensor.hamiltonian import XYZHamiltonian, build_trotter_schedule, random_xyz
from aqctensor.mps import fidelity, from_product_state
from aqctensor.statevector import basis_state, mps_to_statevector, sv_apply_schedule, sv_fidelity

from conftest import random_circuit_pair
from oracles import dense_hamiltonian, random_mps, statevector_to_mps, sv_exact_evolution


def test_basis_ordering_site0_most_significant():
    vec = mps_to_statevector(from_product_state("10"))
    assert vec[2] == pytest.approx(1.0)


class TestApplySchedule:
    def test_identity_schedule(self):
        ham = XYZHamiltonian.uniform(4, 0.0, 0.0, 0.0)
        schedule = build_trotter_schedule(ham, 0.3, 2)
        state = basis_state("1010")
        np.testing.assert_allclose(sv_apply_schedule(state, schedule), state, atol=1e-14)

    def test_cnot(self):
        class Op:
            sites = (0, 1)
            matrix = CX_FORWARD

        out = sv_apply_schedule(basis_state("10"), [Op()])
        np.testing.assert_allclose(out, basis_state("11"), atol=1e-14)

    def test_matches_mps_at_unbounded_chi(self):
        ham = random_xyz(6, 0.375, 1.125, seed=4)
        schedule = build_trotter_schedule(ham, 0.1, 2)
        from aqctensor.hamiltonian import tebd_evolve
        from conftest import EXACT

        evolved = tebd_evolve(from_product_state("101010"), ham, 0.1, 2, EXACT)
        dense = sv_apply_schedule(basis_state("101010"), schedule)
        assert sv_fidelity(mps_to_statevector(evolved), dense / np.linalg.norm(dense)) == pytest.approx(1.0, abs=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sv_apply_schedule(np.zeros(2**15, dtype=complex), [])


class TestExactEvolution:
    def test_t_zero(self):
        ham = random_xyz(5, 0.375, 1.125, seed=6)
        psi0 = basis_state("10101")
        np.testing.assert_allclose(sv_exact_evolution(ham, psi0, 0.0), psi0, atol=1e-12)

    def test_norm_preserved(self):
        ham = random_xyz(6, 0.375, 1.125, seed=7)
        out = sv_exact_evolution(ham, basis_state("101010"), 3.7)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_bond_spectrum(self):
        # 0.75 (SxSx + SySy + SzSz) has the singlet-triplet split:
        # eigenvalues 0.75 * {1/4 (x3), -3/4}
        ham = XYZHamiltonian.uniform(2, 0.75, 0.75, 0.75)
        spectrum = np.sort(np.linalg.eigvalsh(ham.bond_matrix(0)))
        np.testing.assert_allclose(spectrum, [-0.5625, 0.1875, 0.1875, 0.1875], atol=1e-12)
        # the Hamiltonian carries the opposite sign
        h_spectrum = np.sort(np.linalg.eigvalsh(dense_hamiltonian(ham)))
        np.testing.assert_allclose(h_spectrum, [-0.1875, -0.1875, -0.1875, 0.5625], atol=1e-12)

    def test_size_guard(self):
        ham = XYZHamiltonian.uniform(13, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sv_exact_evolution(ham, np.zeros(2**13, dtype=complex), 1.0)


class TestFidelityAndConversion:
    def test_identical_and_orthogonal(self):
        a = basis_state("0101")
        b = basis_state("1010")
        assert sv_fidelity(a, a) == pytest.approx(1.0)
        assert sv_fidelity(a, b) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sv_fidelity(np.zeros(4), np.zeros(8))

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_round_trip(self, n):
        psi = random_mps(n, seed=n)
        back = statevector_to_mps(mps_to_statevector(psi))
        assert fidelity(psi, back) == pytest.approx(1.0, abs=1e-12)

    def test_dense_conversion_matches_circuit(self):
        rng = np.random.default_rng(12)
        psi, dense = random_circuit_pair(7, rng)
        np.testing.assert_allclose(mps_to_statevector(psi), dense, atol=1e-10)
