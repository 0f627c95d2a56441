"""The reshape-and-matmul contractions of the gate path against einsum oracles,
and its LAPACK factorizations against numpy.linalg.

Each oracle spells out the index sum of one contraction with np.einsum, a
form kept off the library's hot path because einsum without optimize does not
call BLAS, and the library result must match it to 1e-12. The chains are random tensors with set bond dimensions, so
the bra and ket bonds, and the left and right bonds, all differ and a swapped
axis cannot cancel out.
"""
import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from aqctensor.cost import _local_operator
from aqctensor.mps import (
    MPS,
    _env_step_left,
    _env_step_right,
    _qr,
    _shift_center_left,
    _shift_center_right,
    _svd,
    apply_single_site_gate,
    apply_two_site_gate,
    canonicalize,
    from_product_state,
    norm,
    normalize,
)

from conftest import EXACT, assert_left_orthonormal, assert_right_orthonormal
from oracles import amplitude

ATOL = 1e-12


def random_tensor(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_chain(bonds, rng) -> MPS:
    """A normalized MPS with random tensors and the given bond list (both ends 1)."""
    return normalize(MPS([random_tensor(rng, bonds[i], 2, bonds[i + 1]) for i in range(len(bonds) - 1)]))


def pair_oracle(a, b):
    """theta[l, s, t, r] of two neighbouring site tensors."""
    return np.einsum("asb,btc->astc", a, b)


def gate_oracle(u, a, b):
    """The pair after a 4x4 gate, (out_l, out_r, in_l, in_r) on the physical axes."""
    return np.einsum("wxst,astc->awxc", u.reshape(2, 2, 2, 2), pair_oracle(a, b))


def env_left_oracle(env, tb, tk):
    return np.einsum("pq,psa,qsb->ab", env, tb.conj(), tk)


def env_right_oracle(env, tb, tk):
    return np.einsum("psa,ab,qsb->pq", tb.conj(), env, tk)


def local_operator_oracle(left, right, bi, bj, ki, kj):
    """E[(s1, s2), (t1, t2)] = <bra| (|s1 s2><t1 t2| on the pair) |ket>."""
    e = np.einsum("pq,psc,qtd,cue,dvf,ef->sutv", left, bi.conj(), ki, bj.conj(), kj, right)
    return e.reshape(4, 4)


# (bond list, left site of the pair): outer pair bonds (1, 1), (3, 5) and (32, 32)
CHAINS = {
    (1, 1): ([1, 2, 1], 0),
    (3, 5): ([1, 2, 3, 6, 5, 4, 2, 1], 2),
    (32, 32): ([1, 2, 4, 8, 16, 32, 64, 32, 16, 8, 4, 2, 1], 5),
}


class TestTwoSiteGate:
    @pytest.mark.parametrize("end_left", [False, True])
    @pytest.mark.parametrize("outer", list(CHAINS))
    def test_matches_the_einsum_oracle(self, outer, end_left):
        bonds, i = CHAINS[outer]
        rng = np.random.default_rng(sum(outer))
        psi = canonicalize(random_chain(bonds, rng), i)
        a, b = psi.tensors[i], psi.tensors[i + 1]
        assert (a.shape[0], b.shape[2]) == outer
        u = unitary_group.rvs(4, random_state=rng)

        out = apply_two_site_gate(psi, u, i, EXACT, end_left)

        np.testing.assert_allclose(pair_oracle(out.tensors[i], out.tensors[i + 1]),
                                   gate_oracle(u, a, b), rtol=0, atol=ATOL)
        assert out.center == (i if end_left else i + 1)
        if end_left:
            assert_right_orthonormal(out.tensors[i + 1])
        else:
            assert_left_orthonormal(out.tensors[i])
        untouched = [j for j in range(psi.n) if j not in (i, i + 1)]
        assert all(out.tensors[j] is psi.tensors[j] for j in untouched)


class TestShiftCenter:
    BONDS = [1, 2, 4, 8, 16, 32, 64, 64, 64, 32, 16, 8, 4, 2, 1]  # sites 6 and 7 have chi = 64 on both sides

    def test_right_step(self):
        psi = canonicalize(random_chain(self.BONDS, np.random.default_rng(64)), 6)
        tensors = list(psi.tensors)
        _, r = np.linalg.qr(tensors[6].reshape(-1, 64))

        _shift_center_right(tensors, 6)

        assert tensors[6].shape == (64, 2, 64)
        assert_left_orthonormal(tensors[6])
        np.testing.assert_allclose(tensors[7], np.einsum("ab,bsc->asc", r, psi.tensors[7]), rtol=0, atol=ATOL)
        np.testing.assert_allclose(pair_oracle(tensors[6], tensors[7]),
                                   pair_oracle(psi.tensors[6], psi.tensors[7]), rtol=0, atol=ATOL)

    def test_left_step(self):
        psi = canonicalize(random_chain(self.BONDS, np.random.default_rng(65)), 7)
        tensors = list(psi.tensors)
        _, r = np.linalg.qr(tensors[7].reshape(64, -1).conj().T)

        _shift_center_left(tensors, 7)

        assert tensors[7].shape == (64, 2, 64)
        assert_right_orthonormal(tensors[7])
        np.testing.assert_allclose(tensors[6], np.einsum("asb,bc->asc", psi.tensors[6], r.conj().T),
                                   rtol=0, atol=ATOL)
        np.testing.assert_allclose(pair_oracle(tensors[6], tensors[7]),
                                   pair_oracle(psi.tensors[6], psi.tensors[7]), rtol=0, atol=ATOL)


# (rows, columns) of the pair and re-gauge matrices: tall, square and wide (2 chi_l < chi_r)
SHAPES = [(16, 4), (8, 8), (4, 10)]


class TestFactorizations:
    """The LAPACK helpers against numpy.linalg."""

    @pytest.mark.parametrize("shape", SHAPES, ids=["tall", "square", "wide"])
    def test_svd(self, shape):
        a = random_tensor(np.random.default_rng(shape[0] + shape[1]), *shape)
        u, s, vh = _svd(a)
        k = min(shape)
        assert u.shape == (shape[0], k) and s.shape == (k,) and vh.shape == (k, shape[1])
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=0, atol=ATOL)
        np.testing.assert_allclose((u * s) @ vh, a, rtol=0, atol=ATOL)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), rtol=0, atol=ATOL)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(k), rtol=0, atol=ATOL)

    @pytest.mark.parametrize("shape", SHAPES, ids=["tall", "square", "wide"])
    def test_qr(self, shape):
        a = random_tensor(np.random.default_rng(shape[0] * shape[1]), *shape)
        q, r = _qr(a)
        want_q, want_r = np.linalg.qr(a)
        k = min(shape)
        assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
        np.testing.assert_allclose(q, want_q, rtol=0, atol=ATOL)
        np.testing.assert_allclose(r, want_r, rtol=0, atol=ATOL)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(k), rtol=0, atol=ATOL)
        assert not np.tril(r, -1).any()  # upper trapezoidal in the wide case
        np.testing.assert_allclose(q @ r, a, rtol=0, atol=ATOL)

    # zgesdd flags a NaN input; for an inf one it returns NaN factors, which _svd checks for
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.inf)],
                             ids=["nan", "inf", "-inf", "imag-inf"])
    def test_svd_of_nan_raises(self, entry):
        a = np.eye(4, dtype=complex)
        a[1, 2] = entry
        with pytest.raises(np.linalg.LinAlgError):
            _svd(a)


class TestEnvironments:
    # bra bonds (3, 5), ket bonds (2, 7): every axis has its own length
    def test_left_step(self):
        rng = np.random.default_rng(1)
        env, tb, tk = random_tensor(rng, 3, 2), random_tensor(rng, 3, 2, 5), random_tensor(rng, 2, 2, 7)
        np.testing.assert_allclose(_env_step_left(env, tb, tk), env_left_oracle(env, tb, tk),
                                   rtol=0, atol=ATOL)

    def test_right_step(self):
        rng = np.random.default_rng(2)
        env, tb, tk = random_tensor(rng, 5, 7), random_tensor(rng, 3, 2, 5), random_tensor(rng, 2, 2, 7)
        np.testing.assert_allclose(_env_step_right(env, tb, tk), env_right_oracle(env, tb, tk),
                                   rtol=0, atol=ATOL)

    @pytest.mark.parametrize("bra_bonds, ket_bonds", [((1, 1, 1), (1, 1, 1)), ((3, 5, 4), (2, 6, 7))])
    def test_local_operator(self, bra_bonds, ket_bonds):
        rng = np.random.default_rng(3)

        def chain(p, c, e):  # four sites, the pair (1, 2) with bonds p | c | e
            return MPS([random_tensor(rng, 1, 2, p), random_tensor(rng, p, 2, c),
                        random_tensor(rng, c, 2, e), random_tensor(rng, e, 2, 1)])

        bra, ket = chain(*bra_bonds), chain(*ket_bonds)
        left = random_tensor(rng, bra_bonds[0], ket_bonds[0])
        right = random_tensor(rng, bra_bonds[2], ket_bonds[2])
        want = local_operator_oracle(left, right, bra.tensors[1], bra.tensors[2], ket.tensors[1], ket.tensors[2])
        np.testing.assert_allclose(_local_operator(left, right, bra, ket, 1), want, rtol=0, atol=ATOL)


class TestUnitarityTolerance:
    """The check allows a deviation |u^dag u - 1| of at most 1e-10."""

    @staticmethod
    def perturbed(dim, eps, off_diagonal, real=False):
        """u (1 + eps A) for a random unitary u, so u'^dag u' - 1 = 2 eps A + eps^2 A^2.

        A is the identity, or the symmetric A with A[0, 1] = A[1, 0] = 1 and
        zeros elsewhere. With real set, u is a real orthogonal matrix (float64).
        """
        a = np.eye(dim)
        if off_diagonal:
            a = np.zeros((dim, dim))
            a[0, 1] = a[1, 0] = 1.0
        group = ortho_group if real else unitary_group
        return group.rvs(dim, random_state=np.random.default_rng(dim)) @ (np.eye(dim) + eps * a)

    @pytest.mark.parametrize("off_diagonal", [False, True])
    def test_single_site_gate(self, off_diagonal):
        psi = from_product_state("01")
        # next to an exact identity, which is not checked, the check still runs
        near_identity = np.array([[1, 1e-9], [1e-9, 1]]) if off_diagonal else np.diag([1 + 1e-9, 1])
        for u in (self.perturbed(2, 1e-9, off_diagonal), near_identity):
            with pytest.raises(ValueError, match="not unitary"):
                apply_single_site_gate(psi, u, 1)
        apply_single_site_gate(psi, self.perturbed(2, 1e-12, off_diagonal), 1)

    @pytest.mark.parametrize("off_diagonal", [False, True])
    def test_two_site_gate(self, off_diagonal):
        psi = from_product_state("01")
        with pytest.raises(ValueError, match="not unitary"):
            apply_two_site_gate(psi, self.perturbed(4, 1e-9, off_diagonal), 0, EXACT)
        apply_two_site_gate(psi, self.perturbed(4, 1e-12, off_diagonal), 0, EXACT)

    @pytest.mark.parametrize("off_diagonal", [False, True])
    def test_real_gates(self, off_diagonal):
        psi = from_product_state("01")
        with pytest.raises(ValueError, match="not unitary"):
            apply_single_site_gate(psi, self.perturbed(2, 1e-9, off_diagonal, real=True), 1)
        with pytest.raises(ValueError, match="not unitary"):
            apply_two_site_gate(psi, self.perturbed(4, 1e-9, off_diagonal, real=True), 0, EXACT)
        apply_single_site_gate(psi, self.perturbed(2, 1e-12, off_diagonal, real=True), 1)
        apply_two_site_gate(psi, self.perturbed(4, 1e-12, off_diagonal, real=True), 0, EXACT)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the gram matrix
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gates_raise(self, bad):
        psi = from_product_state("01")
        u2, u4 = np.eye(2), np.eye(4)
        u2[0, 0] = u4[3, 2] = bad  # an identity with one non-finite entry is not an exact identity
        with pytest.raises(ValueError, match="not unitary"):
            apply_single_site_gate(psi, u2, 1)
        with pytest.raises(ValueError, match="not unitary"):
            apply_two_site_gate(psi, u4, 0, EXACT)

    def test_integer_gates_pass(self):
        psi = from_product_state("10")
        out = apply_single_site_gate(psi, np.array([[0, 1], [1, 0]]), 1)
        out = apply_two_site_gate(out, np.eye(4, dtype=int)[[0, 1, 3, 2]], 0, EXACT)
        assert amplitude(out, "10") == pytest.approx(1.0)

    @staticmethod
    def unitaries(dtype):
        """(2x2, 4x4) unitaries of one dtype; the complex64 ones are exact (Pauli Y and Y x S)."""
        rng = np.random.default_rng(40)
        if dtype == np.int64:
            return np.array([[0, 1], [1, 0]]), np.eye(4, dtype=np.int64)[[0, 1, 3, 2]]
        if dtype == np.float64:
            return ortho_group.rvs(2, random_state=rng), ortho_group.rvs(4, random_state=rng)
        if dtype == np.complex64:
            y = np.array([[0, -1j], [1j, 0]], dtype=np.complex64)
            return y, np.kron(y, np.diag([1, 1j]).astype(np.complex64))
        return unitary_group.rvs(2, random_state=rng), unitary_group.rvs(4, random_state=rng)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex64, np.complex128])
    def test_every_gate_dtype_passes_and_acts_as_complex128(self, dtype):
        u2, u4 = self.unitaries(dtype)
        assert (u2.dtype, u4.dtype) == (dtype, dtype)
        psi = canonicalize(random_chain([1, 3, 2, 1], np.random.default_rng(41)), 1)
        pairs = [(apply_single_site_gate(psi, u2, 1), apply_single_site_gate(psi, u2.astype(complex), 1)),
                 (apply_two_site_gate(psi, u4, 1, EXACT), apply_two_site_gate(psi, u4.astype(complex), 1, EXACT))]
        for out, ref in pairs:
            for t, r in zip(out.tensors, ref.tensors):
                np.testing.assert_allclose(t, r, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 3), (4,), (2, 4), (1, 2, 2)])
    def test_wrong_shape_raises(self, shape):
        psi = from_product_state("01")
        # identity-valued, so no wrong shape passes as the exact 2x2 identity, which is not checked
        u = np.eye(*shape[-2:]).reshape(shape) if len(shape) > 1 else np.ones(shape)
        if shape != (2, 2):
            with pytest.raises(ValueError, match="gate must be 2x2"):
                apply_single_site_gate(psi, u, 1)
        if shape != (4, 4):
            with pytest.raises(ValueError, match="gate must be 4x4"):
                apply_two_site_gate(psi, u, 0, EXACT)

    @pytest.mark.parametrize("end_left", [False, True])
    def test_gate_that_drops_nothing_adds_exactly_zero(self, end_left):
        rng = np.random.default_rng(42)
        psi = canonicalize(random_chain([1, 2, 4, 3, 1], rng), 2)
        for site in (1, 0, 2, 1):
            out = apply_two_site_gate(psi, unitary_group.rvs(4, random_state=rng), site, EXACT, end_left)
            chi_l, chi_r = psi.tensors[site].shape[0], psi.tensors[site + 1].shape[2]
            assert out.bond_dims()[site] == min(2 * chi_l, 2 * chi_r)  # full rank: nothing dropped
            assert out.discarded_weight == psi.discarded_weight == 0.0
            assert norm(out) == pytest.approx(1.0, abs=1e-14)
            psi = out
