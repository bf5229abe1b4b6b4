"""Reference forms that only the tests use: dense matrices, dense tensors,
mixed 2-form families and F, F^-1 and the fiber projection on them, the
component norms of one tensor, the fiber residuals, the per-rotation
fundamental-form check, compound
matrices, interior products by slot slicing, the increasing tuples by
itertools,
the per-axis nabla w_A and N_A, and the JSON form of a single alternating
form, and the rows of Tables 2 and 3 read directly on a context, as verify
reads them.
The tests compare the library's routes against these."""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from aqh import projectors as PR
from aqh import threeform as TF
from aqh import torsion as T
from aqh.classify import RowResult, ctx_from_derived, ctx_from_torsion
from aqh.exterior import (AltForm, DegreeError, MixedTorsion, _json_coeffs,
                          _json_index, _json_n, alternate5, contract12, tables)
from aqh.structure import AXES, insert, rotate_adapted
from aqh.verify import dstar_on_W


@lru_cache(maxsize=None)
def tuples(dim: int, p: int) -> tuple:
    """The increasing p-tuples of range(dim) in lexicographic order, the
    order of the coefficient vectors, enumerated by itertools."""
    return tuple(itertools.combinations(range(dim), p))


@lru_cache(maxsize=None)
def tuple_index(dim: int, p: int) -> dict:
    """p-tuple -> its position in ``tuples(dim, p)``."""
    return {T: i for i, T in enumerate(tuples(dim, p))}


@dataclass
class MixedTwoFormFamily:
    """Element of V* (x) Lambda^2 V*: row x kept as an antisymmetric matrix."""

    dim: int
    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.shape != (self.dim, self.dim, self.dim):
            raise DegreeError("mixed 2-form tensor needs (dim,dim,dim) array")

    def norm(self) -> float:
        # rows are antisymmetric matrices; the form norm counts each pair once
        i, j = tables(self.dim).columns(2)
        return float(np.linalg.norm(self.mats[:, i, j]))


def fiber_project(c, s) -> MixedTwoFormFamily:
    """Row-wise orthogonal projection of a family onto the fiber."""
    return MixedTwoFormFamily(c.dim, T._fiber_project(c.mats, s))


def F_map(c, s) -> MixedTorsion:
    """F on the rows of a family (torsion.F_rows)."""
    return MixedTorsion(c.dim, T.F_rows(c.mats, s))


def f_inverse_raw(a, s) -> MixedTwoFormFamily:
    """The contraction inverse of F on one tensor (torsion.f_inverse_mats)."""
    return MixedTwoFormFamily(a.dim, T.f_inverse_mats(a.rows, s))


def rotation_invariance_loop(s, rng) -> float:
    """The largest |Omega' - Omega| over 100 rotated structures built one by
    one, each rotation Q of the QR of one normal draw with the diagonal of R
    made positive and its first two columns swapped where det Q < 0."""
    worst = 0.0
    for _ in range(100):
        Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if np.linalg.det(Q) < 0:
            Q[:, [0, 1]] = Q[:, [1, 0]]
        s2 = rotate_adapted(Q, s)
        worst = max(worst,
                    float(np.abs(s2.Omega.coeffs - s.Omega.coeffs).max()))
    return worst


def component_norms(C, ds, s) -> dict:
    """projectors.component_norms of one tensor as it was before it took
    stacks, each norm np.linalg.norm of one array."""
    core = PR._w_core(s)
    parts = TF.proj3_parts(ds, s)
    v = (C.reshape(-1) - core["hat_w"] @ ds).reshape(s.dim, -1)
    h = PR.lcal_hpart(v, s)
    return dict(zip(PR._ORDER, [
        *map(float, core["c"] * np.linalg.norm(parts, axis=1)),
        float(np.linalg.norm(h)), float(np.linalg.norm(v - h))]))


def fiber_residuals(c, s) -> tuple[float, float]:
    """Norms of the two fiber conditions on the rows of a mixed 2-form
    family c, i)* c_x + sum_A c_x(A., A.) and ii)* the traces <c_x, w_A>,
    not normalised."""
    res_i = float(np.linalg.norm(c.mats + T._conj_sum(c.mats, s)))
    return res_i / np.sqrt(2.0), float(np.linalg.norm(T._traces(c.mats, s)))


def i_axis(s, axis, a):
    """i_A a = -D_A a (QuatStructure.deriv_op), zero on degree 0."""
    if a.degree == 0:
        return a * 0.0
    D = s.deriv_op(a.degree)(a.coeffs).reshape(3, -1)
    return AltForm(s.dim, a.degree, -D[AXES.index(axis)])


def component_matrices_on_W(s) -> dict:
    """Matrices (dim*r x dim*r) of the library's six component projectors
    and of the two Lcal halves (Lcal + 2)/6 and (4 - Lcal)/6, in the
    orthonormal W basis, cached on the structure."""

    def build():
        D = T.w_dim(s.n)
        basis = np.eye(D).reshape(D, s.dim, -1)
        ds = dstar_on_W(s).T
        mats = {X: c.reshape(D, D).T
                for X, c in PR.split_coords(basis, ds, s).items()}
        mats["hpart"] = PR.lcal_hpart(basis, s).reshape(D, D).T
        mats["s3hpart"] = np.eye(D) - mats["hpart"]
        return mats

    return s.cache("component_matrices_W", build)


def slot_sum(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """i_A on a dense (0,s)-tensor: the sum of all slot insertions."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for i in range(1, t.ndim + 1):
        out += insert(A, i, t)
    return out


def nabla_dense(g, G: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Covariant derivative of an invariant dense (0,s)-tensor:
    out[x, ...] = (nabla_{e_x} t)(...)."""
    # G[x].T is the matrix of nabla_{e_x}: e_j -> sum_k G[x,j,k] e_k, and
    # its slot sum carries the minus sign of insert
    return np.stack([slot_sum(G[x].T, t) for x in range(g.dim)])


def nabla_omega(g, G: np.ndarray, axis: str) -> np.ndarray:
    """nabla w_A of one axis, (dim, dim, dim): row x is the 2-form
    nabla_{e_x} w_A = -(G[x] A + A G[x]^T)."""
    A = g.structure.mats[axis]
    return -(G @ A + A @ G.transpose(0, 2, 1))


def nijenhuis(g, axis: str) -> np.ndarray:
    """N_A(x, y, z) = <e_x, N_A(e_y, e_z)> of one axis, with
    N_A(Y, Z) = [Y,Z] + A[AY,Z] + A[Y,AZ] - [AY,AZ], from
    P[y, z] = [A e_y, e_z] = tensordot(A, c) in (y, z, x) order."""
    A = g.structure.mats[axis]
    P = np.tensordot(A, g.c, (0, 0))
    Q = P @ A.T
    N = g.c + Q - Q.transpose(1, 0, 2) - A.T @ P
    return N.transpose(2, 0, 1)


def volume_form(s) -> AltForm:
    """The unit top form vol_coeff e_1 ^ .. ^ e_4n of a structure."""
    top = AltForm.zero(s.dim, s.dim)
    top.coeffs[0] = s.vol_coeff
    return top


def form_to_json(a: AltForm) -> dict:
    coeffs = {
        ",".join(map(str, T)): float(v)
        for T, v in zip(tuples(a.dim, a.degree), a.coeffs)
        if v != 0.0
    }
    return {"n": a.dim // 4, "degree": a.degree, "coeffs": coeffs}


def form_from_json(data: dict) -> AltForm:
    """A form document, read by the library's JSON key parser with no row
    index in front of the form part."""
    dim = 4 * _json_n(data)
    p = _json_index("key 'degree'", data.get("degree"), dim + 1)
    out = AltForm.zero(dim, p)
    _, u, vals = _json_coeffs(data, dim, p, 0)
    out.coeffs[u] = vals
    return out


def compound(A: np.ndarray, p: int) -> np.ndarray:
    """The p-th compound of a square matrix, or of each in a stack (..., d,
    d): the minors det A[S, T] over increasing p-tuples, by Laplace expansion
    along the first column T_0 of T = T_0 T':
    det A[S, T] = sum_m (-1)^m A[S_m, T_0] det A[S - S_m, T'],
    the terms read off ``exp_table(q)`` for q = 2..p, whose q rows of a
    tuple run over the position m."""
    A = np.asarray(A, dtype=float)
    tab = tables(A.shape[-1])
    C = A if p else np.ones(A.shape[:-2] + (1, 1))
    for q in range(2, p + 1):
        u, r, t, sign = tab.exp_table(q)
        m = np.arange(u.size) % q
        # T_0, T' of every q-tuple in order; the q rows of an S are adjacent
        T0, rest = r[m == 0], t[m == 0]
        a = (sign[:, None] * A.take(r, -2)).take(T0, -1)
        a = a.reshape(A.shape[:-2] + (-1, q, len(T0)))
        c = C.take(t, -2).take(rest, -1).reshape(a.shape)
        C = np.einsum("...umj,...umj->...uj", a, c)
    return C


def hooks(b: AltForm) -> np.ndarray:
    """The rows e_y hook b (dim, N_{p-1}) by slot slicing: entry T of row y
    is b(e_y, e_T), the entry (y, *T) of b.dense(), read without forming the
    dense tensor: b at the sorted tuple times (-1)^m, m the number of
    entries of T below y, and 0 when y is in T."""
    idx = tuple_index(b.dim, b.degree)
    out = np.zeros((b.dim, tables(b.dim).nforms(b.degree - 1)))
    for y in range(b.dim):
        for k, T in enumerate(tuples(b.dim, b.degree - 1)):
            if y not in T:
                m = sum(x < y for x in T)
                out[y, k] = (-1.0) ** m * b.coeffs[idx[T[:m] + (y,) + T[m:]]]
    return out


def torsion_ctx(a, s):
    """ctx_from_torsion of the one tensor a (no membership test)."""
    return ctx_from_torsion(T.w_coords(a, s),
                            contract12(a).coeffs, s, a.norm())


def derived_ctx(x, s):
    """ctx_from_derived at scale |x| of alternate5(x) when x is a tensor,
    and of x when it is a 5-form."""
    dOm = alternate5(x) if isinstance(x, MixedTorsion) else x
    return ctx_from_derived(dOm.coeffs, s, x.norm())


def col2(a, s, row) -> RowResult:
    """The covariant column of a row on the tensor a (no membership test)."""
    return RowResult.evaluate(row, row.col2, torsion_ctx(a, s))


def col3(x, s, row) -> RowResult:
    """The exterior-derivative column of a row, of Table 2 or of Table 3, on
    derived_ctx(x, s)."""
    return RowResult.evaluate(row, row.col3, derived_ctx(x, s))
