"""The intrinsic-torsion space W inside V* (x) Lambda^4 V*.

W is the image of the fiber of admissible mixed 2-form families under the
row-wise embedding

    F(c)_x = (1/4) sum_A i_A(c_x) ^ w_A,

where the fiber consists of the c whose rows satisfy

    i)*   c_x + sum_A c_x(A., A.) = 0
    ii)*  <c_x, w_A> = 0           for A = I, J, K.

Because F acts row by row, W = V* (x) W4 for a fixed subspace W4 of 4-forms.
``fiber_basis_matrix`` gives an orthonormal basis Q of W4, so a tensor a has
W coordinates C = aQ, and its relative distance |a - C Q^T| / |a| from W is
the membership residual.  F is a quarter of AE: b -> sum_A i_A(b) ^ w_A on
2-forms (``threeform.se_core``).  Its inverse on W is the contraction with
the R table (``threeform.r_matrix``):

    -8n c(x, y, z) = <x hook a, y ^ (z hook Omega) - z ^ (y hook Omega)>.
"""

from __future__ import annotations

import math

import numpy as np

from .exterior import MixedTorsion, dense_forms
from .structure import AXES, QuatStructure
from .threeform import r_matrix, se_core


class MembershipError(ValueError):
    """Raised when a tensor fails a required subspace membership test."""


def w_dim(n: int) -> int:
    """dim W = 4n * 3(2n+1)(n-1)."""
    return 4 * n * 3 * (2 * n + 1) * (n - 1)


def _traces(mats: np.ndarray, s: QuatStructure) -> np.ndarray:
    """The traces <c, w_A> (..., 3) of a stack (..., dim, dim) of 2-forms."""
    return 0.5 * np.einsum("...ij,aij->...a", mats, s.IJK)


def _conj_sum(mats: np.ndarray, s: QuatStructure) -> np.ndarray:
    """sum_A A^T c A = sum_A c(A., A.) on a stack (..., dim, dim)."""
    return sum(s.mats[a].T @ mats @ s.mats[a] for a in AXES)


def _fiber_project(mats: np.ndarray, s: QuatStructure) -> np.ndarray:
    """Orthogonal projection onto the fiber of a stack (..., dim, dim) of
    antisymmetric matrices: with T c = sum_A c(A., A.) take (3c - Tc)/4,
    then remove the w_A traces.  The w_A are mutually orthogonal, so their
    traces go in one step."""
    out = (3.0 * mats - _conj_sum(mats, s)) / 4.0
    tr = _traces(out, s) / (2 * s.n)
    return out - sum(tr[..., k, None, None] * s.mats[a]
                     for k, a in enumerate(AXES))


def F_rows(mats: np.ndarray, s: QuatStructure) -> np.ndarray:
    """F on a stack (..., dim, dim, dim) of mixed 2-form families, each row
    an antisymmetric matrix: the 4-form rows (..., dim, N4), read on the
    fiber (_fiber_project projects onto it)."""
    i, j = s.tab.columns(2)
    return 0.25 * mats[..., i, j] @ se_core(s).T


def f_inverse_mats(rows: np.ndarray, s: QuatStructure) -> np.ndarray:
    """The contraction inverse of F on a stack (..., dim, N4) of rows, valid
    on W (no membership check): the families c = -a R / (8n)
    (..., dim, dim, dim), R = r_matrix read as R[y, u, z]."""
    R = r_matrix(s).reshape(s.dim, -1, s.dim)
    return np.tensordot(rows, R, (-1, 1)) / (-8 * s.n)


def _w_project(a: MixedTorsion, s: QuatStructure,
               size: float = 1e-300) -> tuple[np.ndarray, float]:
    """(C, residual): the W coordinates C = aQ and the relative distance
    |a - C Q^T| / max(|a|, size) of a from W = V* (x) span(Q)."""
    Q = fiber_basis_matrix(s)
    C = a.rows @ Q
    return C, float(np.linalg.norm(a.rows - C @ Q.T)) / max(a.norm(), size)


def check_tol(tol: float) -> float:
    """Return a relative tolerance that is finite with 0 < tol < 1 (NaN fails
    both bounds); raise ValueError otherwise."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol!r}")
    return tol


def require_in_W(a: MixedTorsion, s: QuatStructure,
                 tol: float = 1e-8) -> np.ndarray:
    """Raise MembershipError unless a lies within tol*|a| of W; return the
    W coordinates C = aQ.  A bad tol raises ValueError (check_tol)."""
    check_tol(tol)
    C, resid = _w_project(a, s)
    if not resid <= tol:
        raise MembershipError(
            f"tensor is not in the torsion space (residual {resid:.2e})")
    return C


def w_coords(a: MixedTorsion, s: QuatStructure) -> np.ndarray:
    """Coordinates C = aQ (dim x r) of a in the orthonormal W basis, with no
    membership test (require_in_W is the checked route)."""
    return a.rows @ fiber_basis_matrix(s)


def w_embed(C: np.ndarray, s: QuatStructure) -> MixedTorsion:
    """The tensor with W coordinates C (dim x r): rows C Q^T."""
    return MixedTorsion(s.dim, C @ fiber_basis_matrix(s).T)


def extract_cA(a: MixedTorsion, s: QuatStructure) -> np.ndarray:
    """The unique triple with a = sum_A c_A ^ w_A, as a (3, dim, dim, dim)
    stack, for a within 1e-8 of W (require_in_W).  Row by row c_A is the
    adjoint of ^ w_A applied to a, divided by 2n: the transpose of
    ``reassemble`` up to that factor."""
    require_in_W(a, s)
    rows = s.ae_factors(2)[0].T(a.rows).reshape(s.dim, 3, -1) / (2 * s.n)
    return dense_forms(rows.transpose(1, 0, 2), s.dim, 2)


def _admissibility(c: np.ndarray,
                   s: QuatStructure) -> tuple[np.ndarray, float]:
    """Norms of i) c_A(x; A., A.) + c_A, per axis, and of ii) the cyclic
    mixed-insertion sum I_(2)J_(3)c_K + J_(2)K_(3)c_I + K_(2)I_(3)c_J, on a
    stack c (3, dim, dim, dim)."""
    A = s.IJK[:, None]
    At = A.transpose(0, 1, 3, 2)
    res_i = np.linalg.norm((At @ c @ A + c).reshape(3, -1), axis=1)
    # A_(2)B_(3)c_C over the cyclic moves (A, B, C) = (I, J, K), (J, K, I), ..
    mix = (At @ c[[2, 0, 1]] @ A[[1, 2, 0]]).sum(axis=0)
    return res_i, float(np.linalg.norm(mix))


def family_conditions(cA: np.ndarray, s: QuatStructure) -> dict[str, float]:
    """Residuals of the three conditions satisfied by the c_A stack:
    i) c_A(x; A., A.) = -c_A, ii) the cyclic mixed-insertion sum vanishes,
    iii) all w_B traces vanish."""
    res_i, res_ii = _admissibility(cA, s)
    return {"i": float(np.linalg.norm(res_i)), "ii": res_ii,
            "iii": float(np.linalg.norm(_traces(cA, s)))}


def reassemble(cA: np.ndarray, s: QuatStructure) -> MixedTorsion:
    """sum_A c_A ^ w_A for a stack cA (3, dim, dim, dim), the wedge acting on
    the form slots only: the W of ``ae_factors(2)`` on the coefficient rows
    of the c_A side by side."""
    i, j = s.tab.columns(2)
    rows = cA[..., i, j].transpose(1, 0, 2).reshape(s.dim, -1)
    return MixedTorsion(s.dim, s.ae_factors(2)[0](rows))


def from_nabla_omegas(d: np.ndarray, s: QuatStructure) -> MixedTorsion:
    """Assemble sum_A d_A ^ w_A from the stack d (3, dim, dim, dim) of
    d_A = 2 nabla w_A, after validating the two admissibility conditions
    i)', ii)' the d_A must satisfy, to 1e-6 relative."""
    # the 2-form norm counts each pair of an antisymmetric row once
    scale = max(float(np.linalg.norm(d.reshape(3, -1), axis=1).max())
                / math.sqrt(2.0), 1e-300)
    res_i, res_ii = _admissibility(d, s)
    res_i = res_i / scale
    res_ii /= scale
    if not max(res_i.max(), res_ii) <= 1e-6:
        raise MembershipError(
            "input two-form families are not admissible: "
            + ", ".join(f"i)'[{k}]={v:.2e}" for k, v in zip(AXES, res_i))
            + f", ii)'={res_ii:.2e}")
    return reassemble(d, s)


def _fiber_maps(s: QuatStructure) -> tuple[np.ndarray, np.ndarray]:
    """(Q, M): M = F P (N4 x N2) is F after the fiber projection P on the
    2-form coefficients of one row, and Q an orthonormal basis (N4 x r) of
    its range, the 4-form subspace F(fiber rows)."""

    def build():
        i, j = s.tab.columns(2)
        basis = _fiber_project(dense_forms(np.eye(len(i)), s.dim, 2), s)
        M = 0.25 * se_core(s) @ basis[:, i, j].T
        u, sv, _ = np.linalg.svd(M, full_matrices=False)
        r = w_dim(s.n) // s.dim
        if not (sv[r - 1] > 1e-10 and (len(sv) <= r or sv[r] < 1e-10)):
            raise MembershipError("unexpected fiber rank")
        return u[:, :r], M

    return s.cache("fiber_basis", build)


def fiber_basis_matrix(s: QuatStructure) -> np.ndarray:
    """Orthonormal basis Q (N4 x r) of the 4-form subspace F(fiber rows);
    W = V* (x) span(Q)."""
    return _fiber_maps(s)[0]


def random_W_element(s: QuatStructure, seed: int) -> MixedTorsion:
    """Gaussian rows, projected to the fiber, pushed through F: the 2-form
    coefficients of the antisymmetrised rows times M^T (_fiber_maps)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((s.dim, s.dim, s.dim))
    i, j = s.tab.columns(2)
    return MixedTorsion(s.dim,
                        (raw[:, i, j] - raw[:, j, i]) @ _fiber_maps(s)[1].T)
