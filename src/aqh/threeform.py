"""Analysis of 3-forms: the one-forms xi and xi_A, the projectors onto the
four pieces of Lambda^3, applied through the factors the formulas below
show (proj3_parts), the fifteen membership conditions on the invariant
subspaces of Lambda^3, the right inverse of the torsion contraction, and
an orthonormal basis of Lambda^3 adapted to the four pieces (piece_basis).
The membership conditions are written in the condition language of the class
tables, and _eval_cond is the one evaluator of Tables 1-3.

Lambda^3 splits as (K + E)H + (L3E + E)S^3H with

    (K+E)H    = { L(b) =  3 b },
    (L3E+E)S3H = { L(b) = -3 b },
    EH        = { b = xi_b hook Omega },
    E(H+S3H)  = { b = -2 sum_A (A xi_{b;A}) ^ w_A },

where
    xi_b(x)     = (1/(12(2n+1))) sum_A b(e_r, A e_r, A x)
    xi_{b;A}(x) = -(3/(2(n-1))) xi_b(x) - (1/(4(n-1))) <Ax hook b, w_A>.

The right inverse hat_dstar of the torsion contraction sends a 3-form b to

    (1/18) sum_A i_A(. hook L b) ^ w_A
    - (2 k1 / 3 k2) sum_{A,B} i_A(. hook (B xi_{b;B} ^ w_B)) ^ w_A
    - ((4 k1^2 + k2^2)/(12 k1 k2)) { . ^ (xi_b hook Omega) - xi_b ^ (. hook Omega) }

with k1 = n - 1, k2 = 2n + 1.  It is applied on full rows as SE H3 - R H1
(hat_factors): SE takes each row x hook b through se_core, R is r_matrix, and
no full-row matrix is assembled.
On the basis U of the pieces (piece_basis), H3 is diagonal (piece_h3).
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache, reduce

import numpy as np

from .exterior import (AltForm, DegreeError, MixedTorsion, wedge1_stack,
                        wedge_op)
from .structure import AXES, QuatStructure, StructureError


# ---------------------------------------------------------------------------
# xi maps as matrices Lambda^3 -> one-forms
# ---------------------------------------------------------------------------


def xi_maps(s: QuatStructure) -> np.ndarray:
    """The stack (4 x dim x N3) of the maps b -> xi_b, xi_{b;I}, xi_{b;J},
    xi_{b;K}: xi_b(x) = -(1/(6 k2)) sum_A <Ax hook b, w_A> and xi_{b;A} as
    in the module docstring.  The one-forms of b are the stack
    xi_maps(s) @ b: row 0 is xi, rows 1-3 are xi_I, xi_J, xi_K.  The
    traces V_A b = (<e_y hook b, w_A>)_y are the transpose of
    wedge_op(w_A, 1)."""

    def build():
        V = np.stack([wedge_op(s.omega[a], 1).dense().T for a in AXES])
        AV = s.IJK @ V
        xi = AV.sum(axis=0) / (6 * s.k2)
        return np.concatenate([xi[None], (1.0 / (4 * s.k1)) * AV
                               - (3.0 / (2 * s.k1)) * xi])

    return s.cache("xi_maps", build)


# ---------------------------------------------------------------------------
# the projectors of Lambda^3, applied through their factors
# ---------------------------------------------------------------------------

# the labels of proj3 as sums of the parts of proj3_parts
PROJ3_LABELS = {"KH": [0], "EH": [1], "ES3H": [2], "L3ES3H": [3],
                "plus3": [0, 1], "minus3": [2, 3], "EHS3H": [1, 2]}


def hook_omega_matrix(s: QuatStructure) -> np.ndarray:
    """K1 (N3 x dim): columns e_y hook Omega."""

    return s.cache("hook_omega_matrix", lambda:
        s.tab.hook(4)(s.Omega.coeffs).reshape(s.dim, -1).T)


def m_matrix(s: QuatStructure) -> np.ndarray:
    """Matrix (N3 x 3 dim) of (xi_I, xi_J, xi_K) -> sum_A (A xi_A) ^ w_A."""
    return s.cache("m_matrix", lambda: np.concatenate(
        [wedge_op(s.omega[a], 1).dense() @ s.mats[a] for a in AXES], axis=1))


def proj3_parts(x: np.ndarray, s: QuatStructure) -> np.ndarray:
    """P_X x (..., 4, N3) on 3-form coefficients x (..., N3), for X = KH, EH,
    ES3H, L3ES3H: hook_omega xi_0 onto EH, -2 M3 (xi_I, xi_J, xi_K) onto
    EH + ES3H (m_matrix) and plus3 = (3 + L)/6 onto KH + EH."""
    plus3 = s.cache("plus3", lambda: (3 * np.eye(s.tab.nforms(3))
                                      + s.L_matrix(3)) / 6.0)
    y = x @ xi_maps(s).reshape(4 * s.dim, -1).T
    eh = y[..., :s.dim] @ hook_omega_matrix(s).T
    e = -2.0 * (y[..., s.dim:] @ m_matrix(s).T)
    h = x @ plus3.T
    return np.stack([h - eh, eh, e - eh, x - h - e + eh], axis=-2)


def proj3(b: AltForm, label: str, s: QuatStructure) -> AltForm:
    if label not in PROJ3_LABELS:
        raise KeyError(f"unknown 3-form subspace label {label!r}")
    if b.degree != 3:
        raise DegreeError("proj3 acts on 3-forms")
    return AltForm(b.dim, 3, proj3_parts(b.coeffs, s)[PROJ3_LABELS[label]]
                   .sum(axis=0))


# ---------------------------------------------------------------------------
# the condition evaluator; the fifteen membership rows, zero and full space
# ---------------------------------------------------------------------------


class _Ctx:
    """The fields the conditions read, on a stack of tensors (..., N3 for
    dstar; a single tensor is a stack of one), and the scale of the
    residuals.  Every context holds dstar and xi (..., 4, dim), the one-forms
    xi and (xi_I, xi_J, xi_K) of dstar.  with_f3 fills the table f3: the
    3-form dstar, Ldstar = L dstar, xiC = xi hook Omega and m = sum_A
    (A xi_A) ^ w_A; the torsion contexts (classify.ctx_from_*) also fill the
    tables w and f5, and a derived one the alternation misses (miss) that
    require_alternation reads.  A report sets profile, the component norms
    (..., 6) its Schur forms read, and fills no table.

    Every field is linear in the tensor.  A packed context holds all of its
    fields as views of one array, fields (stack, F); mix(S, scale) is then
    the context of the mixtures S @ stack, block by block, in one product."""

    def __init__(self, s: QuatStructure, scale, dstar: np.ndarray):
        self.scale, self.n, self.dstar = np.maximum(scale, 1e-300), s.n, dstar
        xi = xi_maps(s).reshape(4 * s.dim, -1)
        self.xi = (dstar @ xi.T).reshape(*dstar.shape[:-1], 4, s.dim)
        self.f3, self.w, self.f5 = {}, {}, {}
        self.profile = self.miss = None

    def with_f3(self, s: QuatStructure) -> "_Ctx":
        xi = self.xi
        self.f3 = {"dstar": self.dstar, "Ldstar": self.dstar @ s.L_matrix(3).T,
                   "xiC": xi[..., 0, :] @ hook_omega_matrix(s).T,
                   "m": xi[..., 1:, :].reshape(*xi.shape[:-2], -1)
                   @ m_matrix(s).T}
        return self

    def packed(self) -> "_Ctx":
        """self with dstar, xi, miss and every table field views of one new
        array, fields (stack, F), in the order of layout."""
        lead = self.dstar.shape[:-1]
        parts = {(None, k): getattr(self, k) for k in ("dstar", "xi", "miss")
                 if getattr(self, k) is not None}
        parts.update(((t, k), v) for t in ("f3", "w", "f5")
                     for k, v in getattr(self, t).items())
        self.layout = {k: v.shape[len(lead):] for k, v in parts.items()}
        return self._view(np.concatenate(
            [v.reshape(lead + (-1,)) for v in parts.values()], axis=-1))

    def mix(self, S: np.ndarray, scale) -> "_Ctx":
        """The context of the mixtures of a packed context, at scale (one
        per mixture) and with no profile.  S (..., mixtures, stack) mixes the
        stack block by block: its leading axes split the stack into blocks
        of S.shape[-1] entries, each mixed by its own S in one product, and
        the mixtures come block-major (a 2-D S is one block)."""
        out = copy.copy(self)
        out.scale, out.profile = np.maximum(scale, 1e-300), None
        F = self.fields.shape[-1]
        blocks = self.fields.reshape(*S.shape[:-2], S.shape[-1], F)
        return out._view((S @ blocks).reshape(-1, F))

    def _view(self, fields: np.ndarray) -> "_Ctx":
        self.fields, self.f3, self.w, self.f5, at = fields, {}, {}, {}, 0
        for (table, key), shape in self.layout.items():
            size = math.prod(shape)
            v = fields[..., at:at + size].reshape(fields.shape[:-1] + shape)
            at += size
            if table:
                getattr(self, table)[key] = v
            else:
                setattr(self, key, v)
        return self


def _norm(x: np.ndarray):
    """The norms along the last axis."""
    return np.sqrt(np.vecdot(x, x))


def wedge_norms(dstar: np.ndarray, xi: np.ndarray, n: int) -> dict:
    """The wedge norms of dOm from dstar = d*Omega (..., N3) and its one-forms
    xi (..., 4, dim), star being an isometry: |star(dOm) ^ Omega| =
    12(2n+1) |xi| (wOm0); the larger difference (wAAeq) and the largest norm
    (wAA0) of star_inv(star(dOm) ^ w_A ^ w_A) = -12 xi - 8(n-1) xi_A, which
    holds when dOm is the alternation of a tensor in W; |Omega^(n-2) ^ dOm|
    = |d*Omega| (2n-1)!/(6(n-1)) (wOmdeg0).  The six one-forms are one
    product with (xi, xi_I, xi_J, xi_K) and their norms one pass."""
    k1 = n - 1
    v = _norm(_wedge_rows(8 * k1) @ xi)
    return {"wOm0": 12 * (2 * n + 1) * v[..., 0],
            "wAAeq": 8 * k1 * np.maximum(v[..., 1], v[..., 2]),
            "wAA0": v[..., 3:].max(axis=-1),
            "wOmdeg0": _norm(dstar) * math.factorial(2 * n - 1) / (6 * k1)}


@lru_cache(maxsize=None)
def _wedge_rows(c: float) -> np.ndarray:
    """xi, xi_I - xi_J, xi_J - xi_K and 12 xi + c xi_A as rows on the
    stack (xi, xi_I, xi_J, xi_K)."""
    return np.array([[1, 0, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1],
                     [12, c, 0, 0], [12, 0, c, 0], [12, 0, 0, c]], float)


def require_alternation(ctx: _Ctx) -> None:
    """ValueError unless every entry of the derived context ctx misses the
    identity star_inv(star(dOm) ^ w_I ^ w_I) = -12 xi - 8(n-1) xi_I, which
    the wedge norms wAAeq and wAA0 read (wedge_norms), by at most
    1e-8 |dOm|.  The misses are linear in dOm, so on a mixed context they
    are the mixed misses, and the test is that of the mixed 5-forms."""
    miss = _norm(ctx.miss)
    if not np.all(miss <= 1e-8 * _norm(ctx.f5["dOm"])):
        raise ValueError(f"dOmega is not the alternation of a tensor in W: "
                         f"the wedge identity misses by {miss.max():.2e}")


def _eval_cond(cond, ctx: _Ctx):
    """Residual norms of one condition, one per stack entry: a combination
    of the fields of one table (f3, or the w and f5 tables of a torsion
    context), a Schur form of the context's profile (classify.schur_table),
    a norm of the one-forms, a wedge norm (wedge_norms), or the best branch
    of an or, entry by entry."""
    tag = cond[0]
    if tag == "schur":
        # a Schur form: the norm of nu_X |a_X| over the components
        return _norm(np.multiply(cond[1], ctx.profile))
    if tag in ("w", "f5", "f3"):
        table = getattr(ctx, tag)
        acc = None
        for key, coef in cond[1].items():
            v = coef * table[key]
            acc = v if acc is None else acc + v
        return _norm(acc)
    if tag == "xi0":
        return _norm(ctx.xi[..., 0, :])
    if tag == "xiA0":
        return _norm(ctx.xi[..., 1:, :]).max(axis=-1)
    if tag == "xiA_eq":
        return _norm(ctx.xi[..., 1:3, :] - ctx.xi[..., 2:, :]).max(axis=-1)
    if tag in ("wOm0", "wAAeq", "wAA0", "wOmdeg0"):
        if tag in ("wAAeq", "wAA0") and ctx.miss is not None:
            require_alternation(ctx)
        return wedge_norms(ctx.dstar, ctx.xi, ctx.n)[tag]
    if tag == "true":
        return 0.0 * ctx.scale
    if tag == "or":
        return reduce(np.minimum, (
            reduce(np.maximum, (_eval_cond(c, ctx) for c in branch))
            for branch in cond[1]))
    raise KeyError(f"unknown condition tag {tag!r}")


def _cond(tag: str):
    """Maker of the conditions on one field table: _cond("f3")(dstar=1,
    xiC=-1) is the norm of dstar - xiC."""
    return lambda **kw: (tag, kw)


# Table 1, row -> (components, conditions on b), the conditions read on the
# context of b: dstar = b, so Ldstar = L b, xiC = xi_b hook Omega and
# m = sum_A (A xi_{b;A}) ^ w_A.  The "KH + ES3H" row reads
# L(b) = 3b + 12 m, the reading that annihilates projected members.
_f3 = _cond("f3")
TABLE1 = {
    "0": ((), [_f3(dstar=1)]),
    "KH": (("KH",), [_f3(Ldstar=1, dstar=-3), ("xi0",)]),
    "EH": (("EH",), [_f3(dstar=1, xiC=-1)]),
    "L3E.S3H": (("L3ES3H",), [_f3(Ldstar=1, dstar=3), ("xiA0",)]),
    "E.S3H": (("ES3H",), [_f3(dstar=1, m=2), ("xi0",)]),
    "(K+E)H": (("KH", "EH"), [_f3(Ldstar=1, dstar=-3)]),
    "KH+L3E.S3H": (("KH", "L3ES3H"), [("xiA0",)]),
    "KH+E.S3H": (("KH", "ES3H"), [_f3(Ldstar=1, dstar=-3, m=-12)]),
    "EH+L3E.S3H": (("EH", "L3ES3H"),
                   [_f3(Ldstar=1, dstar=3, xiC=-6), ("xiA_eq",)]),
    "E(H+S3H)": (("EH", "ES3H"), [_f3(dstar=1, m=2)]),
    "(L3E+E)S3H": (("L3ES3H", "ES3H"), [_f3(Ldstar=1, dstar=3)]),
    "(K+E)H+L3E.S3H": (("KH", "EH", "L3ES3H"), [("xiA_eq",)]),
    "(K+E)H+E.S3H": (("KH", "EH", "ES3H"),
                     [_f3(Ldstar=1, dstar=-3, xiC=-6, m=-12)]),
    "KH+(L3E+E)S3H": (("KH", "L3ES3H", "ES3H"), [("xi0",)]),
    "EH+(L3E+E)S3H": (("EH", "L3ES3H", "ES3H"),
                      [_f3(Ldstar=1, dstar=3, xiC=-6)]),
    "full": (("KH", "EH", "L3ES3H", "ES3H"), [("true",)]),
}
TABLE1_COMPONENTS = {row: frozenset(c) for row, (c, _) in TABLE1.items()}


def table1_residuals(b: AltForm, row_id: str, s: QuatStructure) -> list[float]:
    """Residual norms of the conditions of one TABLE1 row."""
    if row_id not in TABLE1:
        raise KeyError(f"unknown Table-1 row {row_id!r}")
    if b.degree != 3:
        raise DegreeError("membership rows act on 3-forms")
    ctx = _Ctx(s, b.norm(), b.coeffs).with_f3(s)
    return [float(_eval_cond(c, ctx)) for c in TABLE1[row_id][1]]


# ---------------------------------------------------------------------------
# the canonical embedding of 3-forms and the right inverse of the contraction
# ---------------------------------------------------------------------------


def se_core(s: QuatStructure) -> np.ndarray:
    """Matrix (N4 x N2) of c -> sum_A i_A(c) ^ w_A, taken of each x hook b:
    the dense -W D of ``ae_factors(2)``."""

    def build():
        W, D = s.ae_factors(2)
        return -(W.dense() @ D.dense())

    return s.cache("se_core", build)


def r_matrix(s: QuatStructure) -> np.ndarray:
    """Matrix (dim*N4 x dim) of zeta -> rows
    x ^ (zeta hook Omega) - zeta ^ (x hook Omega), from G[y, z] =
    e_y ^ (e_z hook Omega) (exterior.wedge1_stack)."""

    def build():
        G = wedge1_stack(hook_omega_matrix(s).T, s.dim, 3)
        G = G - G.transpose(1, 0, 2)  # frees the table before the copy
        return G.transpose(0, 2, 1).reshape(s.dim * s.tab.nforms(4), s.dim)

    return s.cache("r_matrix", build)


def _e_projector(s: QuatStructure) -> np.ndarray:
    """P_E = -2 M3 (N3 x N3), the E(H+S3H) projector, M3 = m_matrix applied
    to (xi_I, xi_J, xi_K)."""
    return -2.0 * (m_matrix(s) @ xi_maps(s)[1:].reshape(3 * s.dim, -1))


def hat_factors(s: QuatStructure) -> tuple[np.ndarray, np.ndarray]:
    """(H3, H1), hat_dstar = SE H3 - R H1 (module docstring): H3 = L/18 +
    (k1/3k2) P_E (_e_projector), H1 = c xi."""
    k1, k2 = s.k1, s.k2
    return (s.L_matrix(3) / 18.0 + (k1 / (3.0 * k2)) * _e_projector(s),
            (4 * k1 ** 2 + k2 ** 2) / (12.0 * k1 * k2) * xi_maps(s)[0])


def piece_h3(s: QuatStructure) -> np.ndarray:
    """H3 of hat_factors on KH, EH, ES3H, L3ES3H, where it is a scalar:
    L/18 is 1/6 on (K+E)H and -1/6 on (L3E+E)S3H, P_E is 1 on E(H+S3H)."""
    e = s.k1 / (3.0 * s.k2)
    return np.array([1 / 6, 1 / 6 + e, -1 / 6 + e, -1 / 6])


def piece_basis(s: QuatStructure) -> tuple[np.ndarray, tuple]:
    """(U, sizes): U (N3 x N3) orthonormal, its column blocks of sizes
    (dim KH, dim EH, dim ES3H, dim L3ES3H) spanning those pieces, so
    P_X = U_X U_X^T.  The blocks are the eigenspaces of L + P_E, of
    eigenvalues 3, 4, -2, -3; StructureError unless every eigenvalue lies
    within 1e-8 of one of them and every block has the dimension of its
    piece (projectors.COMPONENT_DIMS; the L3ES3H block is empty at
    n = 2)."""

    def build():
        # projectors imports this module when it loads
        from .projectors import COMPONENT_DIMS, VISIBLE

        A = s.L_matrix(3) + _e_projector(s)
        w, V = np.linalg.eigh(0.5 * (A + A.T))
        lam = np.array([3.0, 4.0, -2.0, -3.0])
        piece = np.abs(w[:, None] - lam).argmin(axis=1)
        sizes = tuple(int(k) for k in np.bincount(piece, minlength=4))
        want = tuple(COMPONENT_DIMS[X](s.n) for X in VISIBLE)
        miss = float(np.abs(w - lam[piece]).max())
        if miss > 1e-8 or sizes != want:
            raise StructureError(
                "L + P_E has eigenvalues off (3, 4, -2, -3) by "
                f"{miss:.1e} or eigenspaces of dimensions {sizes}, not {want}")
        return V[:, np.argsort(piece, kind="stable")], sizes

    return s.cache("piece_basis", build)


def _embed_rows(x: np.ndarray, s: QuatStructure) -> np.ndarray:
    """The rows (..., dim, N4) of torsion_embed of 3-form coefficients x
    (..., N3): se_core on each x hook b."""
    X = s.tab.hook(3)(x).reshape(*x.shape[:-1], s.dim, -1)
    return X @ se_core(s).T


def torsion_embed(b: AltForm, s: QuatStructure) -> MixedTorsion:
    """rows x -> sum_A i_A(x hook b) ^ w_A: se_core on each x hook b."""
    if b.degree != 3:
        raise DegreeError("the embedding acts on 3-forms")
    return MixedTorsion(s.dim, _embed_rows(b.coeffs, s))


def hat_rows(x: np.ndarray, s: QuatStructure) -> np.ndarray:
    """The rows (..., dim, N4) of hat_dstar of 3-form coefficients x
    (..., N3), hat_factors formed once for the stack."""
    H3, H1 = hat_factors(s)
    return _embed_rows(x @ H3.T, s) - (x @ H1.T @ r_matrix(s).T).reshape(
        *x.shape[:-1], s.dim, -1)


def hat_dstar(b: AltForm, s: QuatStructure) -> MixedTorsion:
    """SE H3 b - R H1 b on full rows, (H3, H1) = hat_factors."""
    if b.degree != 3:
        raise DegreeError("hat_dstar acts on 3-forms")
    return MixedTorsion(s.dim, hat_rows(b.coeffs, s))
