"""Class assignment on the lattice of torsion components, and the explicit
per-class conditions in terms of the covariant derivative (column 2) or the
exterior derivative (column 3), plus the dimension-8 partial table and the
wedge criteria.

Table 2 is written once, as column 2; column 3 is its alternation (see
_alternated), which is faithful for n >= 3.  Table 3 (dimension 8, where the
alternation is not injective) is transcribed in 5-form terms.

The one-forms appearing in the conditions are always those of the 3-form
d* a; in the exterior-derivative column they are recovered from the 5-form
alone through Hodge identities (see DerivedFromDOmega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exterior import AltForm, MixedTorsion, alternate5, contract12, wedge, wedge1, wedge_power
from .projectors import ComponentLabel, lcal_coords, profile as component_profile
from .structure import AXES, QuatStructure
from .threeform import (
    OneFormTriple,
    hook_omega_matrix,
    r_matrix,
    se_matrix,
    xi_triple,
)
from .torsion import require_in_W, w_coords, w_matrix

ALIASES = {
    frozenset(): ("QK", "quaternion-Kähler"),
    frozenset({ComponentLabel.EH}): (
        "l.c.q.K.", "locally conformal quaternion-Kähler"),
    frozenset({ComponentLabel.KH, ComponentLabel.EH}): ("QKT",),
    frozenset({ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH}):
        ("quaternionic",),
}


def _factor_display(hs: set, ss: set) -> str:
    sym = {ComponentLabel.L3EH: "Λ₀³E",
           ComponentLabel.KH: "K", ComponentLabel.EH: "E",
           ComponentLabel.L3ES3H: "Λ₀³E",
           ComponentLabel.KS3H: "K", ComponentLabel.ES3H: "E"}
    order = ["Λ₀³E", "K", "E"]

    def grp(mods: list[str]) -> str:
        mods = [m for m in order if m in mods]
        if len(mods) == 1:
            return mods[0]
        return "(" + "+".join(mods) + ")"

    hmods = [sym[x] for x in hs]
    smods = [sym[x] for x in ss]
    common = [m for m in hmods if m in smods]
    parts = []
    if common:
        parts.append(grp(common) + "(H+S³H)")
    rem_h = [m for m in hmods if m not in common]
    rem_s = [m for m in smods if m not in common]
    if rem_h:
        parts.append(grp(rem_h) + "H")
    if rem_s:
        parts.append(grp(rem_s) + "S³H")
    return " + ".join(parts) if parts else "{0}"


@dataclass(frozen=True)
class ClassLabel:
    components: frozenset

    @property
    def key(self) -> str:
        if not self.components:
            return "QK"
        return "+".join(x.value for x in ComponentLabel
                        if x in self.components)

    @property
    def display(self) -> str:
        hs = {x for x in self.components
              if x in (ComponentLabel.L3EH, ComponentLabel.KH,
                       ComponentLabel.EH)}
        ss = self.components - hs
        return _factor_display(hs, ss)

    @property
    def aliases(self) -> tuple[str, ...]:
        return ALIASES.get(self.components, ())

    def to_json(self) -> dict:
        return {"key": self.key, "display": self.display,
                "aliases": list(self.aliases)}


def classify(a: MixedTorsion, s: QuatStructure, tol: float = 1e-8):
    """Smallest component subset containing a, with the component profile."""
    prof = component_profile(a, s, tol)
    if prof.total < 1e-14:
        return ClassLabel(frozenset()), prof
    comps = frozenset(
        X for X, v in prof.norms.items() if v > tol * prof.total)
    return ClassLabel(comps), prof


# ---------------------------------------------------------------------------
# quantities derived from the exterior derivative alone
# ---------------------------------------------------------------------------


@dataclass
class DerivedFromDOmega:
    """d*Omega, xi and the xi_A triple reconstructed from the 5-form dOmega.

    The reconstruction uses (with star_inv for the outermost star):
      d*Omega = ((-1)^n 6(n-1)/(2n-1)!) * star(Omega^(n-2) ^ dOmega)
      xi      = -(1/(12(2n+1))) star_inv(star(dOmega) ^ Omega)
      star(star(d*Omega) ^ w_A) = 4 k1 A xi_A + 6 A xi,
    the last solved for xi_A."""

    dOmega: AltForm
    dstarOmega: AltForm
    xi: np.ndarray
    xi_triple: OneFormTriple
    scale: float = 0.0          # reference size for relative residuals

    @classmethod
    def from_dOmega(cls, dOm: AltForm, s: QuatStructure,
                    scale: float | None = None) -> "DerivedFromDOmega":
        n = s.n
        if n == 2:
            w = dOm
        else:
            w = wedge(wedge_power(s.Omega, n - 2), dOm)
        dstar = s.star(w) * ((-1.0) ** n * 6 * (n - 1)
                             / math.factorial(2 * n - 1))
        xi = -(1.0 / (12 * s.k2)) * s.star_inv(
            wedge(s.star(dOm), s.Omega)).coeffs
        vals = {}
        for a in AXES:
            A = s.mats[a]
            t = s.star(wedge(s.star(dstar), s.omega[a])).coeffs
            axia = (t - 6.0 * (A @ xi)) / (4 * s.k1)
            vals[a] = -(A @ axia)
        tri = OneFormTriple(vals["I"], vals["J"], vals["K"], xi, s)
        return cls(dOm, dstar, xi, tri,
                   dOm.norm() if scale is None else scale)

    @classmethod
    def from_torsion(cls, a: MixedTorsion, s: QuatStructure) -> "DerivedFromDOmega":
        return cls.from_dOmega(alternate5(a), s, scale=a.norm())


# ---------------------------------------------------------------------------
# condition contexts
# ---------------------------------------------------------------------------


def ae_matrix(s: QuatStructure) -> np.ndarray:
    """Matrix (N5 x N3) of b -> sum_A i_A(b) ^ w_A."""

    def build():
        out = np.zeros((s.tab.nforms(5), s.tab.nforms(3)))
        for a in AXES:
            out += s.wedge_omega_matrix(a, 3) @ (-s.deriv(a, 3))
        return out

    return s.cache("ae_matrix", build)


def _w_column_matrices(s: QuatStructure) -> tuple[np.ndarray, np.ndarray]:
    """se_matrix and r_matrix in W coordinates; both images lie in W."""
    return s.cache("w_column", lambda: (w_matrix(se_matrix(s), s),
                                        w_matrix(r_matrix(s), s)))


def _wedge_forms(dOm: AltForm, s: QuatStructure):
    """The three (4n-1)-forms star(dOm) ^ w_A ^ w_A, keyed by axis, and
    star(dOm) ^ Omega."""
    sd = s.star(dOm)
    per = {a: wedge(wedge(sd, s.omega[a]), s.omega[a]) for a in AXES}
    return per, wedge(sd, s.Omega)


class _Ctx:
    """Precomputed vectors entering the row conditions, with a common scale.

    W-column fields (W coordinates, dim*r): a, La, SEd, SELd, Q, R.  All of
    them lie in W, so their norms are those of the 5-slot tensors.
    dOmega-column fields (5-forms): dOm, LdOm, AEd, AELd, Q5, xiOm.
    Shared 3-form / one-form fields: dstar, Ldstar, xiC, m, xi, xiA.
    """

    def __init__(self, s: QuatStructure, scale: float):
        self.s = s
        self.scale = max(scale, 1e-300)
        self.w: dict[str, np.ndarray] = {}
        self.f5: dict[str, np.ndarray] = {}
        self.f3: dict[str, np.ndarray] = {}
        self.xi = None
        self.xiA = None
        self.dOm = None

    def _m_from_triple(self):
        s = self.s
        m = np.zeros(s.tab.nforms(3))
        for a in AXES:
            m += s.wedge_omega_matrix(a, 1) @ (s.mats[a] @ self.xiA[a])
        return m

    def fill_shared(self, dstar: np.ndarray, xi: np.ndarray, xiA: dict):
        s = self.s
        self.xi = xi
        self.xiA = xiA
        self.f3["dstar"] = dstar
        self.f3["Ldstar"] = s.L_matrix(3) @ dstar
        self.f3["xiC"] = hook_omega_matrix(s) @ xi
        self.f3["m"] = self._m_from_triple()


def ctx_from_torsion(a: MixedTorsion, s: QuatStructure) -> _Ctx:
    ctx = _Ctx(s, a.norm())
    ds = contract12(a)
    tri = xi_triple(ds, s)
    ctx.fill_shared(ds.coeffs, tri.xi, {ax: tri[ax] for ax in AXES})
    C = w_coords(a, s, check=False)
    SE_W, R_W = _w_column_matrices(s)
    ctx.w["a"] = C.reshape(-1)
    ctx.w["La"] = lcal_coords(C, s).reshape(-1)
    three = np.stack([ds.coeffs, ctx.f3["Ldstar"], ctx.f3["m"]])
    ctx.w["SEd"], ctx.w["SELd"], ctx.w["Q"] = three @ SE_W.T
    ctx.w["R"] = R_W @ tri.xi
    ctx.dOm = alternate5(a)
    return ctx


def ctx_from_derived(d: DerivedFromDOmega, s: QuatStructure) -> _Ctx:
    ctx = _Ctx(s, d.scale)
    tri = d.xi_triple
    ctx.fill_shared(d.dstarOmega.coeffs, d.xi, {ax: tri[ax] for ax in AXES})
    AE = ae_matrix(s)
    ctx.f5["dOm"] = d.dOmega.coeffs
    ctx.f5["LdOm"] = s.L_matrix(5) @ d.dOmega.coeffs
    ctx.f5["AEd"] = AE @ ctx.f3["dstar"]
    ctx.f5["AELd"] = AE @ ctx.f3["Ldstar"]
    ctx.f5["Q5"] = AE @ ctx.f3["m"]
    ctx.f5["xiOm"] = wedge1(d.xi, s.Omega).coeffs
    ctx.dOm = d.dOmega
    return ctx


def _eval_cond(cond, ctx: _Ctx) -> float:
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
    if tag == "wAA0":
        per, _ = _wedge_forms(ctx.dOm, ctx.s)
        return max(per[a].norm() for a in AXES)
    if tag == "wAAeq":
        per, _ = _wedge_forms(ctx.dOm, ctx.s)
        return max((per["I"] - per["J"]).norm(),
                   (per["J"] - per["K"]).norm())
    if tag == "wOm0":
        _, full = _wedge_forms(ctx.dOm, ctx.s)
        return full.norm()
    if tag == "wOmdeg0":
        s = ctx.s
        if s.n == 2:
            return ctx.dOm.norm()
        return wedge(wedge_power(s.Omega, s.n - 2), ctx.dOm).norm()
    if tag == "true":
        return 0.0
    if tag == "or":
        return min(max(_eval_cond(c, ctx) for c in branch)
                   for branch in cond[1])
    raise KeyError(f"unknown condition tag {tag!r}")


@dataclass
class RowResult:
    row: "Table2Row"
    residuals: list[float]
    scale: float

    @classmethod
    def evaluate(cls, row: "Table2Row", conds, ctx: _Ctx) -> "RowResult":
        return cls(row, [_eval_cond(c, ctx) for c in conds], ctx.scale)

    @property
    def value(self) -> float:
        return max(self.residuals) / self.scale if self.residuals else 0.0

    def to_json(self) -> dict:
        return {"row": self.row.key, "value": self.value,
                "residuals": [r / self.scale for r in self.residuals]}


@dataclass(frozen=True)
class Table2Row:
    index: int
    components: frozenset
    col2: tuple = field(compare=False)
    col3: tuple = field(compare=False)

    @property
    def key(self) -> str:
        return ClassLabel(self.components).key


# Alt of each covariant field as 5-form fields.  Alternation W -> Lambda^5 is
# injective for n >= 3, so V(a) = 0 iff Alt V(a) = 0:
#   Alt a = dOm,  Alt Lcal = (L - 2) Alt,  Alt SE = 2 AE,  Alt R(z) = 4 z ^ Om.
_ALT_IMAGE = {
    "a": {"dOm": 1.0},
    "La": {"LdOm": 1.0, "dOm": -2.0},
    "SEd": {"AEd": 2.0},
    "SELd": {"AELd": 2.0},
    "Q": {"Q5": 2.0},
    "R": {"xiOm": 4.0},
}


def _alternated(cond):
    """The exterior-derivative form of a condition: a covariant ("w")
    combination goes to its alternation, with coefficients summed per key in
    first-seen order and exact zeros dropped; any other condition only uses
    d*, xi or dOm and is kept."""
    if cond[0] != "w":
        return cond
    out = {}
    for key, coef in cond[1].items():
        for key5, factor in _ALT_IMAGE[key].items():
            out[key5] = out.get(key5, 0.0) + factor * coef
    return ("f5", {k: v for k, v in out.items() if v != 0.0})


def _build_table2(s: QuatStructure) -> list[Table2Row]:
    """Column 2 as printed in the paper; column 3 is its alternation."""
    k1, k2 = float(s.k1), float(s.k2)
    L, K, E = ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH
    l, k, e = (ComponentLabel.L3ES3H, ComponentLabel.KS3H,
               ComponentLabel.ES3H)

    def w(**kw):
        return ("w", kw)

    def f3(**kw):
        return ("f3", kw)

    rows = [
        ((), [w(a=1)]),
        ((L,), [w(La=1, a=-4), f3(dstar=1)]),
        ((K,), [w(a=1, SEd=-1 / 6), ("xiA_eq",)]),
        ((E,), [w(a=1, R=1 / (4 * k1))]),
        ((l,), [w(a=1, SEd=1 / 6), ("xi0",)]),
        ((k,), [w(La=1, a=2), f3(dstar=1)]),
        ((e,), [w(a=1, Q=-1 / k2), ("xi0",)]),
        ((L, K), [w(La=1, a=-4), ("xi0",)]),
        ((L, E), [w(La=1, a=-4), f3(dstar=1, xiC=-1)]),
        ((L, l), [w(La=1, a=-4, SEd=-1), ("xi0",)]),
        ((L, k), [("or", [[f3(dstar=1)], [("wOmdeg0",)]])]),
        ((L, e), [w(La=1, a=-4, Q=6 / k2), f3(dstar=1, m=2)]),
        ((K, E), [w(a=1, SEd=-1 / 6, R=k2 / (12 * k1)), ("xiA_eq",)]),
        ((K, l), [w(a=1, SELd=-1 / 18)]),
        ((K, k), [w(La=1, a=2, SEd=-1), ("xiA_eq",)]),
        ((K, e), [w(a=1, SEd=-1 / 6, Q=-(k2 + 3) / (3 * k2))]),
        ((E, l), [w(a=1, SEd=1 / 6, R=-(k2 - 6) / (12 * k1))]),
        ((E, k), [w(La=1, a=2, R=3 / (2 * k1)), f3(dstar=1, xiC=-1)]),
        ((E, e), [w(a=1, Q=-1 / k2, R=3 / (4 * k1 * k2))]),
        ((l, k), [w(La=1, a=2), ("xiA_eq",)]),
        ((l, e), [w(a=1, SEd=1 / 6, Q=2 * k1 / (3 * k2)), ("xi0",)]),
        ((k, e), [w(La=1, a=2), f3(dstar=1, m=2)]),
        ((L, K, E), [w(La=1, a=-4)]),
        ((L, K, l), [w(La=1, a=-4, SEd=-1 / 2, SELd=1 / 6), ("xi0",)]),
        ((L, K, k), [f3(Ldstar=1, dstar=-3), ("xi0",)]),
        ((L, K, e), [w(La=1, a=-4, Q=6 / k2)]),
        ((L, E, l), [w(La=1, a=-4, SEd=-1, R=1)]),
        ((L, E, k), [f3(dstar=1, xiC=-1)]),
        ((L, E, e), [w(La=1, a=-4, Q=6 / k2, R=3 / k2), f3(dstar=1, m=2)]),
        ((L, l, k), [f3(Ldstar=1, dstar=3), ("xiA_eq",)]),
        ((L, l, e), [w(La=1, a=-4, SEd=-1, Q=-4 * k1 / k2), ("xi0",)]),
        ((L, k, e), [f3(dstar=1, m=2), ("xi0",)]),
        ((K, E, l), [w(a=1, SELd=-1 / 18, R=k2 / (12 * k1))]),
        ((K, E, k), [w(La=1, a=2, SEd=-1, R=k2 / (2 * k1))]),
        ((K, E, e),
         [w(a=1, SEd=-1 / 6, Q=-(k2 + 3) / (3 * k2), R=3 / (4 * k1 * k2))]),
        ((K, l, k), [w(La=1, a=2, SEd=-1 / 2, SELd=-1 / 6), ("xiA_eq",)]),
        ((K, l, e), [w(a=1, SELd=-1 / 18, Q=2 * k1 / (3 * k2))]),
        ((K, k, e), [w(La=1, a=2, SEd=-1, Q=-2)]),
        ((E, l, k), [w(La=1, a=2, R=3 / (2 * k1)), ("xiA_eq",)]),
        ((E, l, e),
         [w(a=1, SEd=1 / 6, Q=2 * k1 / (3 * k2), R=3 / (4 * k1 * k2))]),
        ((E, k, e), [w(La=1, a=2, R=3 / (2 * k1)), f3(dstar=1, m=2)]),
        ((l, k, e), [w(La=1, a=2)]),
        ((L, K, E, l), [w(La=1, a=-4, SEd=-1 / 2, SELd=1 / 6)]),
        ((L, K, E, k), [f3(Ldstar=1, dstar=-3)]),
        ((L, K, E, e), [w(La=1, a=-4, R=3 / k2, Q=6 / k2)]),
        ((L, K, l, k), [("or", [[("xiA0",)], [("wAA0",)]])]),
        ((L, K, l, e),
         [w(La=1, a=-4, SEd=-1 / 2, SELd=1 / 6, Q=-4 * k1 / k2)]),
        ((L, K, k, e), [f3(Ldstar=1, dstar=-3, m=-12)]),
        ((L, E, l, k), [f3(Ldstar=1, dstar=3, xiC=-6), ("xiA_eq",)]),
        ((L, E, l, e),
         [w(La=1, a=-4, SEd=-1, R=3 / k2, Q=-4 * k1 / k2)]),
        ((L, E, k, e), [f3(dstar=1, m=2)]),
        ((L, l, k, e), [f3(Ldstar=1, dstar=3)]),
        ((K, E, l, k),
         [w(La=1, a=2, SEd=-1 / 2, SELd=-1 / 6, R=k2 / (2 * k1)),
          ("xiA_eq",)]),
        ((K, E, l, e),
         [w(a=1, SELd=-1 / 18, R=(4 * k1 ** 2 + k2 ** 2) / (12 * k1 * k2),
            Q=2 * k1 / (3 * k2))]),
        ((K, E, k, e), [w(La=1, a=2, SEd=-1, R=3 / (2 * k1), Q=-2)]),
        ((K, l, k, e), [w(La=1, a=2, SEd=-1 / 2, SELd=-1 / 6)]),
        ((E, l, k, e), [w(La=1, a=2, R=3 / (2 * k1))]),
        ((L, K, E, l, k), [("or", [[("xiA_eq",)], [("wAAeq",)]])]),
        ((L, K, E, l, e),
         [w(La=1, a=-4, SEd=-1 / 2, SELd=1 / 6, R=-2 * k1 / k2,
            Q=-4 * k1 / k2)]),
        ((L, K, E, k, e), [f3(Ldstar=1, dstar=-3, xiC=-6, m=-12)]),
        ((L, K, l, k, e), [("or", [[("xi0",)], [("wOm0",)]])]),
        ((L, E, l, k, e), [f3(Ldstar=1, dstar=3, xiC=-6)]),
        ((K, E, l, k, e),
         [w(La=1, a=2, SEd=-1 / 2, SELd=-1 / 6, R=k2 / (2 * k1))]),
        ((L, K, E, l, k, e), [("true",)]),
    ]
    return [Table2Row(i + 1, frozenset(comps), tuple(col2),
                      tuple(_alternated(c) for c in col2))
            for i, (comps, col2) in enumerate(rows)]


def table2_rows(s: QuatStructure) -> list[Table2Row]:
    return s.cache("table2_rows", lambda: _build_table2(s))


def _find_row(rows, row_id) -> Table2Row:
    if isinstance(row_id, Table2Row):
        return row_id
    if isinstance(row_id, int):
        return rows[row_id - 1]
    if isinstance(row_id, frozenset) or isinstance(row_id, set):
        want = frozenset(row_id)
        for r in rows:
            if r.components == want:
                return r
        raise KeyError(f"no row for components {row_id}")
    for r in rows:
        if r.key == row_id:
            return r
    raise KeyError(f"unknown row id {row_id!r}")


def table2_residual(a: MixedTorsion, s: QuatStructure, row_id,
                    tol: float = 1e-8) -> RowResult:
    """Residuals of the covariant-derivative column for one row."""
    require_in_W(a, s, tol)
    row = _find_row(table2_rows(s), row_id)
    return RowResult.evaluate(row, row.col2, ctx_from_torsion(a, s))


def table2_residual_dOmega(d: DerivedFromDOmega, s: QuatStructure,
                           row_id) -> RowResult:
    """Residuals of the exterior-derivative column; needs dim > 8."""
    if s.n == 2:
        raise ValueError(
            "in dimension 8 the 5-form carries only partial information; "
            "use table3_residual")
    row = _find_row(table2_rows(s), row_id)
    return RowResult.evaluate(row, row.col3, ctx_from_derived(d, s))


# ---------------------------------------------------------------------------
# dimension 8: partial classification
# ---------------------------------------------------------------------------


def _build_table3(s: QuatStructure) -> list[Table2Row]:
    K, E = ComponentLabel.KH, ComponentLabel.EH
    k, e = ComponentLabel.KS3H, ComponentLabel.ES3H

    def f5(**kw):
        return ("f5", kw)

    rows = [
        ((k,), [f5(dOm=1)]),
        ((K, k), [("or", [[("xiA0",)], [("wAA0",)]])]),
        ((E, k), [f5(dOm=1, xiOm=1)]),
        ((k, e), [("or", [[f5(dOm=1, Q5=-2 / 5), ("xi0",)],
                          [f5(LdOm=1)]])]),
        ((K, E, k), [("or", [[("xiA_eq",)], [f5(LdOm=1, dOm=-6)]])]),
        ((K, k, e), [("or", [[("xi0",)], [("wOm0",)]])]),
        ((E, k, e), [f5(dOm=1, Q5=-2 / 5, xiOm=3 / 5)]),
        ((K, E, k, e), [f5(dOm=1, AEd=-1 / 3, Q5=-16 / 15, xiOm=3 / 5)]),
    ]
    return [Table2Row(i + 1, frozenset(c), tuple(conds), tuple(conds))
            for i, (c, conds) in enumerate(rows)]


def table3_rows(s: QuatStructure) -> list[Table2Row]:
    return s.cache("table3_rows", lambda: _build_table3(s))


def table3_residual(d: DerivedFromDOmega, s: QuatStructure,
                    row_id) -> RowResult:
    if s.n != 2:
        raise ValueError("the partial table applies to dimension 8 only")
    row = _find_row(table3_rows(s), row_id)
    return RowResult.evaluate(row, row.col3, ctx_from_derived(d, s))


# ---------------------------------------------------------------------------
# wedge criteria and the 5-form perpendicularity test
# ---------------------------------------------------------------------------


def wedge_criteria(d: DerivedFromDOmega, s: QuatStructure,
                   tol: float = 1e-8) -> dict[str, bool]:
    """i) star(dOm)^Om = 0 iff the EH part vanishes; ii) the three
    star(dOm)^w_A^w_A agree iff the ES3H part vanishes; iii) all vanish iff
    the E(H+S3H) part vanishes."""
    scale = max(d.dOmega.norm(), 1e-300)
    per, full = _wedge_forms(d.dOmega, s)
    crit_i = full.norm() <= tol * scale
    crit_ii = max((per["I"] - per["J"]).norm(),
                  (per["J"] - per["K"]).norm()) <= tol * scale
    crit_iii = max(f.norm() for f in per.values()) <= tol * scale
    return {"EH_zero": crit_i, "ES3H_zero": crit_ii,
            "EHS3H_zero": crit_iii}


def perp_EH5_test(phi: AltForm, s: QuatStructure, tol: float = 1e-8) -> bool:
    """True iff phi is orthogonal to all a ^ w_A ^ w_B, tested through the
    nine wedges star(phi) ^ w_A ^ w_B."""
    sp = s.star(phi)
    scale = max(phi.norm(), 1e-300)
    worst = max(
        wedge(wedge(sp, s.omega[a]), s.omega[b]).norm()
        for a in AXES for b in AXES)
    return worst <= tol * scale


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def classification_report(a: MixedTorsion, s: QuatStructure,
                          tol: float = 1e-8) -> dict:
    label, prof = classify(a, s, tol)      # the one membership test
    out = {
        "class": label.display,
        "key": label.key,
        "aliases": list(label.aliases),
        "profile": prof.to_json(),
        "tolerance": tol,
    }
    row2 = _find_row(table2_rows(s), label.components)
    out["table2"] = RowResult.evaluate(
        row2, row2.col2, ctx_from_torsion(a, s)).to_json()
    d = DerivedFromDOmega.from_torsion(a, s)
    if s.n >= 3:
        out["table2_dOmega"] = table2_residual_dOmega(d, s,
                                                      label.components).to_json()
    else:
        rows = [row for row in table3_rows(s)
                if label.components <= row.components]
        out["table3"] = None
        if rows:
            # the first of the smallest rows containing the class
            row = min(rows, key=lambda r: len(r.components))
            rr = table3_residual(d, s, row)
            out["table3"] = {"row": rr.row.key, "value": rr.value}
    out["wedge_criteria"] = wedge_criteria(d, s, tol)
    return out
