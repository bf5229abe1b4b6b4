"""Analysis of 3-forms: the one-forms xi and xi_A, the eigenprojectors of L,
the fifteen membership conditions on the invariant subspaces of Lambda^3, and
the right inverse of the torsion contraction.  The membership conditions are
written in the condition language of the class tables, and _eval_cond is the
one evaluator of Tables 1-3.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import AltForm, DegreeError, MixedTorsion, wedge_op
from .structure import AXES, QuatStructure


@dataclass
class OneFormTriple:
    """The basis-dependent one-forms (xi_I, xi_J, xi_K) of a 3-form plus the
    global xi."""

    xi_I: np.ndarray
    xi_J: np.ndarray
    xi_K: np.ndarray
    xi: np.ndarray

    def __getitem__(self, axis: str) -> np.ndarray:
        return {"I": self.xi_I, "J": self.xi_J, "K": self.xi_K}[axis]


# ---------------------------------------------------------------------------
# xi maps as matrices Lambda^3 -> one-forms
# ---------------------------------------------------------------------------


def _interior_stack(s: QuatStructure) -> np.ndarray:
    """INT (dim x N2 x N3): INT[y] is the matrix of b -> e_y hook b."""

    def build():
        u, _m, r, t, sign = s.tab.exp_table(3)
        INT = np.zeros((s.dim, s.tab.nforms(2), s.tab.nforms(3)))
        INT[r, t, u] = sign
        return INT

    return s.cache("interior_stack", build)


def _trace_matrices(s: QuatStructure) -> dict[str, np.ndarray]:
    """V_A (dim x N3): (V_A b)[y] = <e_y hook b, w_A>."""

    def build():
        INT = _interior_stack(s)
        return {a: np.einsum("c,ycb->yb", s.omega[a].coeffs, INT)
                for a in AXES}

    return s.cache("trace_matrices", build)


def xi_matrix(s: QuatStructure) -> np.ndarray:
    """Matrix of b -> xi_b: xi_b(x) = -(1/(6 k2)) sum_A <Ax hook b, w_A>."""

    def build():
        V = _trace_matrices(s)
        out = np.zeros((s.dim, s.tab.nforms(3)))
        for a in AXES:
            out += s.mats[a] @ V[a]
        return out / (6 * s.k2)

    return s.cache("xi_matrix", build)


def xia_matrix(s: QuatStructure, axis: str) -> np.ndarray:
    """Matrix of b -> xi_{b;A}."""

    def build():
        V = _trace_matrices(s)
        return (-(3.0 / (2 * s.k1)) * xi_matrix(s)
                + (1.0 / (4 * s.k1)) * (s.mats[axis] @ V[axis]))

    return s.cache(("xia_matrix", axis), build)


def xi(b: AltForm, s: QuatStructure) -> np.ndarray:
    if b.degree != 3:
        raise DegreeError("xi is defined on 3-forms")
    return xi_matrix(s) @ b.coeffs


def xi_triple(b: AltForm, s: QuatStructure) -> OneFormTriple:
    if b.degree != 3:
        raise DegreeError("xi_triple is defined on 3-forms")
    vals = {a: xia_matrix(s, a) @ b.coeffs for a in AXES}
    return OneFormTriple(vals["I"], vals["J"], vals["K"], xi(b, s))


# ---------------------------------------------------------------------------
# projector matrices on Lambda^3
# ---------------------------------------------------------------------------

PROJ3_LABELS = ("KH", "EH", "L3ES3H", "ES3H", "plus3", "minus3", "EHS3H")


def hook_omega_matrix(s: QuatStructure) -> np.ndarray:
    """K1 (N3 x dim): columns e_y hook Omega."""

    def build():
        # (t, r) fixes u, so the scatter writes each entry once
        u, _m, r, t, sign = s.tab.exp_table(4)
        K1 = np.zeros((s.tab.nforms(3), s.dim))
        K1[t, r] = sign * s.Omega.coeffs[u]
        return K1

    return s.cache("hook_omega_matrix", build)


def m_matrix(s: QuatStructure) -> np.ndarray:
    """Matrix (N3 x 3 dim) of (xi_I, xi_J, xi_K) -> sum_A (A xi_A) ^ w_A."""
    return s.cache("m_matrix", lambda: np.concatenate(
        [wedge_op(s.omega[a], 1).dense() @ s.mats[a] for a in AXES], axis=1))


def proj3_matrix(s: QuatStructure, label: str) -> np.ndarray:
    def build():
        N3 = s.tab.nforms(3)
        L3 = s.L_matrix(3)
        eye = np.eye(N3)
        plus3 = (3 * eye + L3) / 6.0
        minus3 = (3 * eye - L3) / 6.0
        P_EH = hook_omega_matrix(s) @ xi_matrix(s)
        # -2 M3, M3: b -> sum_A (A xi_{b;A}) ^ w_A
        P_EHS = -2.0 * (m_matrix(s) @ np.concatenate(
            [xia_matrix(s, a) for a in AXES]))
        mats = {
            "plus3": plus3,
            "minus3": minus3,
            "EH": P_EH,
            "EHS3H": P_EHS,
            "ES3H": P_EHS - P_EH,
            "KH": plus3 - P_EH,
        }
        mats["L3ES3H"] = minus3 - mats["ES3H"]
        return mats

    if label not in PROJ3_LABELS:
        raise KeyError(f"unknown 3-form subspace label {label!r}")
    return s.cache("proj3", build)[label]


def proj3(b: AltForm, label: str, s: QuatStructure) -> AltForm:
    if b.degree != 3:
        raise DegreeError("proj3 acts on 3-forms")
    return AltForm(b.dim, 3, proj3_matrix(s, label) @ b.coeffs)


# ---------------------------------------------------------------------------
# the condition evaluator; the fifteen membership rows, zero and full space
# ---------------------------------------------------------------------------


class _Fields(dict):
    """The fields read so far, each computed by its builder in ``make``."""

    def __init__(self, **make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make[key]()
        return value


class _Ctx:
    """The fields the conditions read, each computed when a condition first
    reads it, and the scale of the residuals.  The table f3 holds the 3-form
    dstar, Ldstar = L dstar, xiC = xi hook Omega and m = sum_A (A xi_A) ^ w_A;
    xi and xiA = (xi_I, xi_J, xi_K) are the one-forms of dstar, given as tri.
    The torsion contexts (classify.ctx_from_*) also fill the tables w and f5
    and give derived(), the DerivedFromDOmega of the tensor's 5-form."""

    def __init__(self, s: QuatStructure, scale: float, dstar: np.ndarray,
                 tri: OneFormTriple, derived):
        # builders hold what they read, not the context: no reference cycle
        self.scale, self.derived = max(scale, 1e-300), derived
        self.xi, self.xiA = tri.xi, tri
        self.xi3 = xi3 = np.concatenate([tri.xi_I, tri.xi_J, tri.xi_K])
        self.f3 = _Fields(dstar=lambda: dstar,
                          Ldstar=lambda: s.L_matrix(3) @ dstar,
                          xiC=lambda: hook_omega_matrix(s) @ tri.xi,
                          m=lambda: m_matrix(s) @ xi3)
        self.w = self.f5 = _Fields()


def _eval_cond(cond, ctx: _Ctx) -> float:
    """Residual norm of one condition: a combination of the fields of one
    table (f3, or the w and f5 tables of a torsion context), a norm of the
    one-forms, a wedge norm of ctx.derived(), or the best branch of an or."""
    tag = cond[0]
    if tag in ("w", "f5", "f3"):
        table = getattr(ctx, tag)
        acc = None
        for key, coef in cond[1].items():
            v = coef * table[key]
            acc = v if acc is None else acc + v
        return float(np.linalg.norm(acc))
    if tag == "xi0":
        return float(np.linalg.norm(ctx.xi))
    if tag == "xiA0":
        return max(float(np.linalg.norm(ctx.xiA[a])) for a in AXES)
    if tag == "xiA_eq":
        return max(
            float(np.linalg.norm(ctx.xiA["I"] - ctx.xiA["J"])),
            float(np.linalg.norm(ctx.xiA["J"] - ctx.xiA["K"])))
    if tag in ("wOm0", "wAAeq", "wAA0", "wOmdeg0"):
        return ctx.derived().wedge_norms()[tag]
    if tag == "true":
        return 0.0
    if tag == "or":
        return min(max(_eval_cond(c, ctx) for c in branch)
                   for branch in cond[1])
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
    ctx = _Ctx(s, b.norm(), b.coeffs, xi_triple(b, s), None)
    return [_eval_cond(c, ctx) for c in TABLE1[row_id][1]]


def table1_member(b: AltForm, row_id: str, s: QuatStructure,
                  tol: float = 1e-9) -> bool:
    scale = max(b.norm(), 1e-300)
    return max(table1_residuals(b, row_id, s)) <= tol * scale


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
    x ^ (zeta hook Omega) - zeta ^ (x hook Omega), from G[y, u, z] =
    coefficient u of e_y ^ (e_z hook Omega)."""

    def build():
        u, _m, r, t, sign = s.tab.exp_table(4)
        G = np.zeros((s.dim, s.tab.nforms(4), s.dim))
        G[r, u] = sign[:, None] * hook_omega_matrix(s)[t]
        return (G - G.transpose(2, 1, 0)).reshape(s.dim * s.tab.nforms(4),
                                                  s.dim)

    return s.cache("r_matrix", build)


def hat_factors(s: QuatStructure) -> tuple[np.ndarray, np.ndarray]:
    """(H3, H1), hat_dstar = SE H3 - R H1 (module docstring): H3 = L/18 -
    (2k1/3k2) M3 with -2 M3 the E(H+S3H) projector, H1 = c xi."""
    k1, k2 = s.k1, s.k2
    return (s.L_matrix(3) / 18.0
            + (k1 / (3.0 * k2)) * proj3_matrix(s, "EHS3H"),
            (4 * k1 ** 2 + k2 ** 2) / (12.0 * k1 * k2) * xi_matrix(s))


def torsion_embed(b: AltForm, s: QuatStructure) -> MixedTorsion:
    """rows x -> sum_A i_A(x hook b) ^ w_A: se_core on each x hook b."""
    if b.degree != 3:
        raise DegreeError("the embedding acts on 3-forms")
    return MixedTorsion(s.dim, (_interior_stack(s) @ b.coeffs) @ se_core(s).T)


def hat_dstar(b: AltForm, s: QuatStructure) -> MixedTorsion:
    """SE H3 b - R H1 b on full rows, (H3, H1) = hat_factors."""
    if b.degree != 3:
        raise DegreeError("hat_dstar acts on 3-forms")
    H3, H1 = hat_factors(s)
    return (torsion_embed(AltForm(s.dim, 3, H3 @ b.coeffs), s)
            - MixedTorsion.from_flat(s.dim, r_matrix(s) @ (H1 @ b.coeffs)))
