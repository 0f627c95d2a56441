"""Matrix product state core: mixed-canonical MPS with SVD-truncated gate application.

Conventions: site 0 is the leftmost tensor and the leftmost character of basis
strings. Site tensors have shape (chi_left, 2, chi_right) with boundary bonds of
dimension 1. The orthogonality center, when tracked, is the index of the single
non-isometric tensor; tensors left of it are left-orthonormal, tensors right of
it are right-orthonormal.

A two-site gate leaves the center on the side of the next one, so an op list
sweeping back and forth needs about one QR step per gate.

Each contraction step on the gate path (gate, QR re-gauging, single-site gate,
overlap environments) is reshapes plus one matmul, never einsum or tensordot:
einsum without optimize does not call BLAS.

The factorizations on the gate path (the gate's SVD, the QR and LQ re-gauge
steps) call numpy's LAPACK gufuncs, the kernels of numpy.linalg.svd and qr
without their Python wrappers: one zgesdd per gate, one zgeqrf + zungqr per
re-gauge step. So every SVD, QR and matmul runs in numpy's one OpenBLAS and its
one thread pool. A failed SVD, or one of a NaN or inf input, raises LinAlgError
before the truncation.

At small chi the glue around LAPACK is about half of a two-site step (see the
README's library layout), so a step that drops nothing skips the truncation
sums and the rescale by 1, and R is masked in place. Every gate matrix is
checked: the shape, and max |u^dag u - 1| <= 1e-10, which also rejects NaN and
inf. A public gate call checks its own matrix; iter_ops checks each distinct
matrix of its op list once, before the first gate, with one batched product
per dimension, and tells the gates it calls that their matrix is checked. An
exact 2x2 identity (rz(0)) is exactly unitary: it returns a copy sharing every
tensor. A truncating two-site gate stores compact factors, not views of its
SVD buffer.

All operations return new MPS values; inputs are never mutated.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

logger = logging.getLogger(__name__)

_UNITARY_ATOL = 1e-10
_IDENTITY = {dim: np.eye(dim, dtype=complex) for dim in (2, 4)}


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond truncation knobs for two-site gate application.

    chi_max: hard cap on kept singular values (None = unbounded).
    cutoff: relative threshold; singular values below cutoff * s_max are dropped.
    """

    chi_max: int | None = None
    cutoff: float = 1e-12

    def __post_init__(self) -> None:
        if self.chi_max is not None and self.chi_max < 1:
            raise ValueError(f"chi_max must be >= 1, got {self.chi_max}")
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError(f"cutoff must be in [0, 1), got {self.cutoff}")


#: Policy used when a caller wants exact (cutoff-only) evolution.
EXACT = TruncationPolicy(chi_max=None, cutoff=0.0)


@dataclass
class MPS:
    """An n-site matrix product state.

    tensors[i] has shape (chi_i, 2, chi_{i+1}); chi_0 = chi_n = 1.
    center is the orthogonality-center index, or None when unknown.
    discarded_weight accumulates the total squared singular-value mass dropped
    by truncation over the state's history.
    """

    tensors: list[np.ndarray]
    center: int | None = None
    discarded_weight: float = 0.0

    def __post_init__(self) -> None:
        if not self.tensors:
            raise ValueError("MPS needs at least one site")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for i in range(self.n - 1):
            if self.tensors[i].shape[2] != self.tensors[i + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        if not all(np.isfinite(t).all() for t in self.tensors):
            raise ValueError("MPS tensors must be finite")

    @property
    def n(self) -> int:
        return len(self.tensors)

    def copy(self) -> "MPS":  # no __post_init__: the bonds were checked when self was made
        out = object.__new__(MPS)
        out.__dict__.update(self.__dict__, tensors=list(self.tensors))
        return out

    def bond_dims(self) -> list[int]:
        """Internal bond dimensions (length n - 1)."""
        return [t.shape[2] for t in self.tensors[:-1]]


def from_product_state(bits: str) -> MPS:
    """Build the computational-basis product state for a 0/1 string.

    The state |bits> has amplitude 1 on that string and every bond dimension is 1.
    """
    if not bits:
        raise ValueError("bits must be a nonempty 0/1 string")
    tensors = []
    for ch in bits:
        if ch not in "01":
            raise ValueError(f"invalid character {ch!r} in basis string")
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, int(ch), 0] = 1.0
        tensors.append(t)
    return MPS(tensors, center=0)


def max_bond(psi: MPS) -> int:
    """Largest internal bond dimension (1 for a product state)."""
    if psi.n == 1:
        return 1
    return max(psi.bond_dims())


def _env_step_left(env: np.ndarray, tb: np.ndarray, tk: np.ndarray) -> np.ndarray:
    """One site of <bra|ket> absorbed from the left; env is indexed (bra bond, ket bond)."""
    x = (env @ tk.reshape(tk.shape[0], -1)).reshape(-1, tk.shape[2])  # ((p, s), b)
    return tb.reshape(-1, tb.shape[2]).conj().T @ x  # (a, b)


def _env_step_right(env: np.ndarray, tb: np.ndarray, tk: np.ndarray) -> np.ndarray:
    """One site of <bra|ket> absorbed from the right."""
    x = (tb.reshape(-1, tb.shape[2]).conj() @ env).reshape(tb.shape[0], -1)  # (p, (s, b))
    return x @ tk.reshape(tk.shape[0], -1).T  # (p, q)


def inner_product(a: MPS, b: MPS) -> complex:
    """<a|b> via left-to-right transfer contraction, O(n chi^3)."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    env = np.ones((1, 1), dtype=complex)
    for ta, tb in zip(a.tensors, b.tensors):
        env = _env_step_left(env, ta, tb)
    return complex(env[0, 0])


def norm(psi: MPS) -> float:
    return math.sqrt(max(inner_product(psi, psi).real, 0.0))


def fidelity(a: MPS, b: MPS) -> float:
    """|<a|b>|^2; symmetric and global-phase invariant."""
    return abs(inner_product(a, b)) ** 2


def normalize(psi: MPS) -> MPS:
    """Scale to unit norm (at the center tensor when one is tracked)."""
    nrm = norm(psi)
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero state")
    out = psi.copy()
    at = psi.center if psi.center is not None else 0
    out.tensors[at] = out.tensors[at] / nrm
    return out


def _check_unitary(u: np.ndarray, dim: int, err: float | None = None) -> None:
    """Raise ValueError unless u is a dim x dim unitary; err is max |u^dag u - 1| when already known."""
    if u.shape != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got {u.shape}")
    if err is None:
        err = np.maximum.reduce(np.abs(np.dot(u.conj().T, u) - _IDENTITY[dim]), axis=None)
    if not err <= _UNITARY_ATOL:  # also catches a NaN deviation
        raise ValueError(f"gate is not unitary (deviation {err:.2e})")


def _check_op_matrices(ops: list) -> None:
    """_check_unitary of each distinct matrix of ops, in op order, with one batched product per dimension."""
    mats = {}  # (id, dim) -> matrix; ops holds every matrix, so no id is reused meanwhile
    for op in ops:
        key = (id(op.matrix), 2 ** len(op.sites))
        if key not in mats:
            mats[key] = np.asarray(op.matrix)
    errs = {}
    for dim in (2, 4):
        keys = [key for key, u in mats.items() if key[1] == dim and u.shape == (dim, dim)]
        if keys:
            us = np.stack([mats[key] for key in keys])
            errs.update(zip(keys, np.maximum.reduce(
                np.abs(np.matmul(us.conj().swapaxes(1, 2), us) - _IDENTITY[dim]), axis=(1, 2)).tolist()))
    if len(errs) < len(mats) or not all(err <= _UNITARY_ATOL for err in errs.values()):
        for key, u in mats.items():  # raises at the first bad matrix in op order
            _check_unitary(u, key[1], errs.get(key))


def apply_single_site_gate(psi: MPS, u: np.ndarray, site: int, checked: bool = False) -> MPS:
    """Apply a 2x2 unitary at one site. Bonds and center are unchanged. checked: u passed _check_unitary."""
    if not 0 <= site < psi.n:
        raise ValueError(f"site {site} out of range for {psi.n} qubits")
    u = np.asarray(u)
    if u.tolist() == [[1, 0], [0, 1]]:  # an exact identity is exactly unitary: a copy, no check or matmul
        return psi.copy()
    if not checked:
        _check_unitary(u, 2)
    out = psi.copy()
    out.tensors[site] = np.matmul(u, psi.tensors[site])  # u on the physical axis of every (2, chi_r) slice
    return out


def _svd_failed(err: str, flag: int) -> None:
    raise LinAlgError("SVD did not converge")


@np.errstate(call=_svd_failed, invalid="call")
def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vh) of a complex matrix, one zgesdd call; a failed or NaN SVD sets
    the invalid flag, which raises LinAlgError here instead of a RuntimeWarning. An inf
    input sets no flag but leaves NaN singular values, so s[0] is checked too."""
    u, s, vh = _umath_linalg.svd_s(a)
    if not s[0] < np.inf:
        raise LinAlgError("SVD of a non-finite matrix")
    return u, s, vh


@functools.lru_cache(maxsize=128)
def _lower(k: int, n: int) -> np.ndarray:
    """Read-only boolean mask of the strict lower triangle of a k x n matrix (shared by every caller)."""
    mask = np.tri(k, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR (q, r) of an m x n complex matrix: q is m x k, r is k x n, k = min(m, n).
    qr_r_raw (zgeqrf) overwrites its argument with R and the reflectors: a Fortran-ordered copy of a."""
    a = np.array(a, order="F")
    tau = _umath_linalg.qr_r_raw(a)
    q = _umath_linalg.qr_reduced(a, tau)
    r = a[: tau.shape[0]]
    r[_lower(*r.shape)] = 0
    return q, r


def _shift_center_right(tensors: list[np.ndarray], c: int) -> None:
    """QR step: make site c left-orthonormal, push R into c+1."""
    chi_l, d, chi_r = tensors[c].shape
    q, r = _qr(tensors[c].reshape(chi_l * d, chi_r))
    k = q.shape[1]
    tensors[c] = q.reshape(chi_l, d, k)
    nxt = tensors[c + 1]
    tensors[c + 1] = (r @ nxt.reshape(nxt.shape[0], -1)).reshape(k, d, nxt.shape[2])


def _shift_center_left(tensors: list[np.ndarray], c: int) -> None:
    """LQ step: make site c right-orthonormal, push L into c-1."""
    chi_l, d, chi_r = tensors[c].shape
    q, r = _qr(tensors[c].reshape(chi_l, d * chi_r).T)  # m = r^T q^T, and q^T has orthonormal rows
    k = q.shape[1]
    tensors[c] = q.T.reshape(k, d, chi_r)
    prv = tensors[c - 1]
    tensors[c - 1] = (prv.reshape(-1, chi_l) @ r.T).reshape(prv.shape[0], d, k)


def canonicalize(psi: MPS, center: int) -> MPS:
    """Bring the state to mixed-canonical form with the given center.

    The represented state is unchanged (pure gauge transformation). When the
    current center is known only the tensors between old and new center are
    touched; otherwise a full two-sided sweep is done.
    """
    if not 0 <= center < psi.n:
        raise ValueError(f"center {center} out of range for {psi.n} sites")
    out = psi.copy()
    tensors = out.tensors
    if psi.center is None:
        for c in range(center):
            _shift_center_right(tensors, c)
        for c in range(psi.n - 1, center, -1):
            _shift_center_left(tensors, c)
    elif psi.center < center:
        for c in range(psi.center, center):
            _shift_center_right(tensors, c)
    else:
        for c in range(psi.center, center, -1):
            _shift_center_left(tensors, c)
    out.center = center
    return out


def apply_two_site_gate(
    psi: MPS, u: np.ndarray, left_site: int, policy: TruncationPolicy, end_left: bool = False,
    checked: bool = False,
) -> MPS:
    """Apply a 4x4 unitary to (left_site, left_site + 1) with SVD truncation.

    The orthogonality center is moved onto the touched pair first so the local
    SVD truncation is globally optimal, and ends on the right site
    (left_site + 1), or on left_site when end_left is set. The dropped share of
    the pair's squared singular-value mass is added to discarded_weight; kept
    singular values are rescaled so the state norm is preserved. checked: u
    passed _check_unitary (as iter_ops checks its op list before the first gate).
    """
    if not 0 <= left_site < psi.n - 1:
        raise ValueError(f"left_site {left_site} out of range for {psi.n} qubits")
    u = np.asarray(u)
    if not checked:
        _check_unitary(u, 4)

    if psi.center is not None and left_site <= psi.center <= left_site + 1:
        out = psi.copy()
    else:  # canonicalize returns a fresh copy
        out = canonicalize(psi, left_site if psi.center is None or psi.center < left_site else left_site + 1)
    tensors = out.tensors

    a, b = tensors[left_site], tensors[left_site + 1]
    chi_l, chi_r = a.shape[0], b.shape[2]
    theta = a.reshape(chi_l * 2, -1) @ b.reshape(b.shape[0], 2 * chi_r)  # ((chi_l, s), (t, chi_r))
    theta = np.matmul(u, theta.reshape(chi_l, 4, chi_r))  # u on the (s, t) axis of every chi_l slice

    uu, s, vh = _svd(theta.reshape(chi_l * 2, 2 * chi_r))

    cut = policy.cutoff * s[0]
    keep = len(s) if s[-1] > cut else int(np.count_nonzero(s > cut)) if s[0] > 0 else 1
    if policy.chi_max is not None:
        keep = min(keep, policy.chi_max)
    if keep < len(s):  # sorted s: nothing dropped otherwise, and the rescale would be by exactly 1
        s2 = s * s
        total, kept, discarded = float(s2.sum()), float(s2[:keep].sum()), float(s2[keep:].sum())
        if discarded > 0:
            logger.debug("truncation at bond %d: kept %d of %d, discarded weight %.3e",
                         left_site, keep, len(s), discarded)
        s = s[:keep]  # the factor stored unscaled is copied: a view would keep zgesdd's whole buffer alive
        uu, vh = (uu[:, :keep], np.copy(vh[:keep])) if end_left else (np.copy(uu[:, :keep]), vh[:keep])
        if kept > 0 and kept != total:
            s = s * math.sqrt(total / kept)
        out.discarded_weight += discarded / total if total > 0 else 0.0

    uu, vh = (uu * s, vh) if end_left else (uu, s[:, None] * vh)
    tensors[left_site] = uu.reshape(chi_l, 2, keep)
    tensors[left_site + 1] = vh.reshape(keep, 2, chi_r)
    out.center = left_site if end_left else left_site + 1
    return out


def iter_ops(psi: MPS, ops: Iterable, policy: TruncationPolicy) -> Iterator[MPS]:
    """Apply ops with .sites and .matrix in order, yielding the state after each.

    A two-site gate ends on its left site when the next two-site op lies further left.
    Sites other than (i,) or (i, i + 1), and a matrix that is not a unitary of
    their dimension, raise ValueError before the first gate; each distinct
    matrix is checked once, and the gates are told so.
    """
    ops = list(ops)
    for op in ops:
        if len(op.sites) not in (1, 2) or op.sites[-1] != op.sites[0] + len(op.sites) - 1:
            raise ValueError(f"op sites must be (i,) or (i, i + 1), got {tuple(op.sites)}")
    _check_op_matrices(ops)
    following = iter([op.sites[0] for op in ops if len(op.sites) == 2][1:] + [psi.n])
    for op in ops:
        if len(op.sites) == 1:
            psi = apply_single_site_gate(psi, op.matrix, op.sites[0], True)
        else:
            psi = apply_two_site_gate(psi, op.matrix, op.sites[0], policy, next(following) < op.sites[0], True)
        yield psi


def apply_ops(psi: MPS, ops: Iterable, policy: TruncationPolicy) -> MPS:
    """The state after all ops of iter_ops; the one gate-list path onto an MPS."""
    for psi in iter_ops(psi, ops, policy):
        pass
    return psi
