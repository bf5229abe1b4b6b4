"""Class assignment on the lattice of torsion components, and the explicit
per-class conditions in terms of the covariant derivative (column 2) or the
exterior derivative (column 3), plus the dimension-8 partial table and the
wedge criteria.

Table 2 is written once, as column 2; column 3 is its alternation (see
_alternated), which is faithful for n >= 3.  Table 3 (dimension 8, where the
alternation is not injective) is transcribed in 5-form terms.

The one-forms appearing in the conditions are always those of the 3-form
d* a; in the exterior-derivative column they are recovered from the 5-form
alone through Hodge identities, assembled once into dOmega_op (see
DerivedFromDOmega).  Each condition field is a cached linear map of C = aQ,
d* a or dOmega (sparse ones through their nonzeros), computed only when a
row reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .exterior import AltForm, MixedTorsion, SparseOp, alternate5, compose, contract12, hodge_op, wedge, wedge_op, wedge_power
from .projectors import ComponentLabel, ComponentProfile, _w_core, lcal_coords, profile as component_profile, split_coords
from .structure import AXES, QuatStructure
from .threeform import (
    OneFormTriple,
    _cond,
    _Ctx,
    _eval_cond,
    _Fields,
    _trace_matrices,
    m_matrix,
    xi_triple,
)
from .torsion import require_in_W, w_coords

ALIASES = {
    frozenset(): ("QK", "quaternion-Kähler"),
    frozenset({ComponentLabel.EH}): (
        "l.c.q.K.", "locally conformal quaternion-Kähler"),
    frozenset({ComponentLabel.KH, ComponentLabel.EH}): ("QKT",),
    frozenset({ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH}):
        ("quaternionic",),
}


def _factor_display(comps) -> str:
    """The class as Sp(n) modules times H, S³H or both, e.g. K(H+S³H) + EH."""
    order = ("Λ₀³E", "K", "E")
    mod = {X: order[i % 3] for i, X in enumerate(ComponentLabel)}
    h = {mod[X] for X in comps if not X.value.endswith("S3H")}
    s = {mod[X] for X in comps if X.value.endswith("S3H")}

    def grp(mods: set) -> str:
        mods = [m for m in order if m in mods]
        return mods[0] if len(mods) == 1 else "(" + "+".join(mods) + ")"

    return " + ".join(grp(m) + tail for m, tail in (
        (h & s, "(H+S³H)"), (h - s, "H"), (s - h, "S³H")) if m) or "{0}"


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
        return _factor_display(self.components)

    @property
    def aliases(self) -> tuple[str, ...]:
        return ALIASES.get(self.components, ())

    def to_json(self) -> dict:
        return {"key": self.key, "display": self.display,
                "aliases": list(self.aliases)}


def classify(a: MixedTorsion, s: QuatStructure, tol: float = 1e-8):
    """Smallest component subset containing a, with the component profile."""
    return _label(component_profile(a, s, tol), tol)


def _label(prof, tol: float):
    keep = [X for X, v in prof.norms.items() if v > tol * prof.total]
    return ClassLabel(frozenset(keep if prof.total >= 1e-14 else ())), prof


# ---------------------------------------------------------------------------
# quantities derived from the exterior derivative alone
# ---------------------------------------------------------------------------


@dataclass
class DerivedFromDOmega:
    """d*Omega, xi, the xi_A triple, star(dOmega) ^ w_A ^ w_A (wAA, by axis)
    and star(dOmega) ^ Omega (wOm) from the 5-form dOmega.

    The reconstruction uses (with star_inv for the outermost star):
      d*Omega = ((-1)^n 6(n-1)/(2n-1)!) * star(Omega^(n-2) ^ dOmega)
      xi      = -(1/(12(2n+1))) star_inv(star(dOmega) ^ Omega)
      star(star(d*Omega) ^ w_A) = 4 k1 A xi_A + 6 A xi,
    the last solved for xi_A, its left side being -<. hook d*Omega, w_A>.
    dOmega_op composes them once."""

    dOmega: AltForm
    dstarOmega: AltForm
    xi: np.ndarray
    xi_triple: OneFormTriple
    wAA: dict
    wOm: AltForm
    scale: float = 0.0          # reference size for relative residuals

    @classmethod
    def from_dOmega(cls, dOm: AltForm, s: QuatStructure,
                    scale: float | None = None) -> "DerivedFromDOmega":
        N3, dim = s.tab.nforms(3), s.dim
        v = dOmega_op(s)(dOm.coeffs)
        xi, xI, xJ, xK, *tops = v[N3:].reshape(8, dim)
        tops = [AltForm(dim, dim - 1, c) for c in tops]
        return cls(dOm, AltForm(dim, 3, v[:N3]), xi,
                   OneFormTriple(xI, xJ, xK, xi), dict(zip(AXES, tops)),
                   tops[3], dOm.norm() if scale is None else scale)

    @classmethod
    def from_torsion(cls, a: MixedTorsion, s: QuatStructure) -> "DerivedFromDOmega":
        return cls.from_dOmega(alternate5(a), s, scale=a.norm())

    def wedge_norms(self) -> dict[str, float]:
        """The wedge norms the conditions read: |star(dOm) ^ Omega| (wOm0),
        the larger difference of the star(dOm) ^ w_A ^ w_A (wAAeq), the
        largest of them (wAA0) and |Omega^(n-2) ^ dOm| (wOmdeg0), which is
        |d*Omega| (2n-1)! / (6(n-1)) as star is an isometry."""
        per, n = self.wAA, self.dOmega.dim // 4
        return {"wOm0": self.wOm.norm(),
                "wAAeq": max((per["I"] - per["J"]).norm(),
                             (per["J"] - per["K"]).norm()),
                "wAA0": max(f.norm() for f in per.values()),
                "wOmdeg0": (self.dstarOmega.norm() * math.factorial(2 * n - 1)
                            / (6 * (n - 1)))}


def dOmega_op(s: QuatStructure) -> SparseOp:
    """The map ((N3 + 8 dim) x N5) dOm -> [d*Omega | xi | xi_I, xi_J, xi_K |
    star(dOm) ^ w_A ^ w_A for A = I, J, K | star(dOm) ^ Omega] as its
    nonzeros, from the identities of DerivedFromDOmega: the d*Omega rows are
    the wedge with Omega^(n-2) moved by the star, the others formed dense."""

    def build():
        n, dim = s.n, s.dim
        lift = wedge_op(wedge_power(s.Omega, n - 2), 5)
        H, H5, H1 = (hodge_op(dim, p, s.vol_coeff) for p in (dim - 3, 5, 1))
        # d*Omega as (column, row, value): its transpose; H permutes rows
        dT = SparseOp(lift.c, H.r[lift.r], (
            (-1.0) ** n * 6 * (n - 1) / math.factorial(2 * n - 1)
            * H.v[lift.r] * lift.v), lift.shape[::-1])
        # star(dOm) ^ b = W H_5 dOm for the fixed b, and xi from star_inv =
        # H_1^T of the rows W[:dim]: products with the H are gathers
        fixed = [s.Omega] + [wedge(s.omega[a], s.omega[a]) for a in AXES]
        W = np.concatenate([wedge_op(b, dim - 5).dense()
                            for b in fixed])[:, H5.r] * H5.v
        xi = -(1.0 / (12 * s.k2)) * H1.v[:, None] * W[H1.r]
        V = _trace_matrices(s)
        dV = dT(np.stack([V[a] for a in AXES]))
        xiA = [s.mats[a] @ (dV[k] + 6.0 * (s.mats[a] @ xi)) / (4 * s.k1)
               for k, a in enumerate(AXES)]
        rest = np.concatenate([xi, *xiA, W[dim:], W[:dim]])
        r, c = np.nonzero(rest != 0)
        return SparseOp(np.concatenate([dT.c, len(H.r) + r]),
                        np.concatenate([dT.r, c]),
                        np.concatenate([dT.v, rest[r, c]]),
                        (len(H.r) + len(rest), rest.shape[1]))

    return s.cache("dOmega", build)


# ---------------------------------------------------------------------------
# condition contexts
# ---------------------------------------------------------------------------


def ae(s: QuatStructure, x: np.ndarray) -> np.ndarray:
    """b -> sum_A i_A(b) ^ w_A on the last axis of 3-form coefficients:
    -W D with (W, D) = ``ae_factors(3)``, composed once."""
    return -s.cache("ae_op", lambda: compose(*s.ae_factors(3)))(x)


def _field_map(s: QuatStructure, key: str) -> np.ndarray:
    """A fixed matrix of a field a 3-form context lacks beside SE and R
    (projectors._w_core), built when a row first reads that field: Q = SE m
    on W coordinates; Q5 = AE m and xiOm on 5-forms."""
    make = {"Q": lambda: _w_core(s)["SE"] @ m_matrix(s),
            "Q5": lambda: ae(s, m_matrix(s).T).T,
            "xiOm": lambda: wedge_op(s.Omega, 1).dense()}
    return s.cache(("field_map", key), make[key])


def ctx_from_torsion(a: MixedTorsion, s: QuatStructure,
                     C: np.ndarray | None = None) -> _Ctx:
    """The covariant-column context of a; C = aQ when already known.  Its
    w fields are W coordinates (dim*r): a, La, SEd, SELd, Q, R.  All of them
    lie in W, so their norms are those of the 5-slot tensors."""
    ds = contract12(a)
    ctx = _Ctx(s, a.norm(), ds.coeffs, xi_triple(ds, s),
               cache(lambda: DerivedFromDOmega.from_torsion(a, s)))
    C = w_coords(a, s, check=False) if C is None else C
    f3, xi, xi3 = ctx.f3, ctx.xi, ctx.xi3
    SE, R = (_w_core(s)[k] for k in ("SE", "R"))
    ctx.w = _Fields(a=lambda: C.reshape(-1),
                    La=lambda: lcal_coords(C, s).reshape(-1),
                    SEd=lambda: SE @ f3["dstar"],
                    SELd=lambda: SE @ f3["Ldstar"],
                    Q=lambda: _field_map(s, "Q") @ xi3, R=lambda: R @ xi)
    return ctx


def ctx_from_derived(d: DerivedFromDOmega, s: QuatStructure) -> _Ctx:
    """The exterior-derivative context of d.  Its f5 fields are 5-forms:
    dOm, LdOm, AEd, AELd, Q5, xiOm."""
    ctx = _Ctx(s, d.scale, d.dstarOmega.coeffs, d.xi_triple, lambda: d)
    dOm, f3, xi3 = d.dOmega.coeffs, ctx.f3, ctx.xi3
    ctx.f5 = _Fields(dOm=lambda: dOm, LdOm=lambda: s.L_apply(5, dOm),
                     AEd=lambda: ae(s, f3["dstar"]),
                     AELd=lambda: ae(s, f3["Ldstar"]),
                     Q5=lambda: _field_map(s, "Q5") @ xi3,
                     xiOm=lambda: _field_map(s, "xiOm") @ d.xi)
    return ctx


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

    @cached_property
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


@lru_cache(maxsize=None)
def _build_table2(n: int) -> tuple[Table2Row, ...]:
    """Column 2 as printed in the paper; column 3 is its alternation.  The
    rows depend on the structure only through n."""
    k1, k2 = float(n - 1), float(2 * n + 1)
    L, K, E = ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH
    l, k, e = (ComponentLabel.L3ES3H, ComponentLabel.KS3H,
               ComponentLabel.ES3H)

    w, f3 = _cond("w"), _cond("f3")
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
    return tuple(Table2Row(i + 1, frozenset(comps), tuple(col2),
                           tuple(_alternated(c) for c in col2))
                 for i, (comps, col2) in enumerate(rows))


def table2_rows(s: QuatStructure) -> tuple[Table2Row, ...]:
    return _build_table2(s.n)


def _find_row(rows, row_id) -> Table2Row:
    """A row given as itself, its number, its component set or its key."""
    if isinstance(row_id, Table2Row):
        return row_id
    if isinstance(row_id, int):
        return rows[row_id - 1]
    attr = "key" if isinstance(row_id, str) else "components"
    for r in rows:
        if getattr(r, attr) == row_id:
            return r
    raise KeyError(f"unknown row id {row_id!r}")


def table2_residual(a: MixedTorsion, s: QuatStructure, row_id,
                    tol: float = 1e-8) -> RowResult:
    """Residuals of the covariant-derivative column for one row."""
    C = require_in_W(a, s, tol)
    row = _find_row(table2_rows(s), row_id)
    return RowResult.evaluate(row, row.col2, ctx_from_torsion(a, s, C))


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


@lru_cache(maxsize=None)
def _build_table3() -> tuple[Table2Row, ...]:
    K, E = ComponentLabel.KH, ComponentLabel.EH
    k, e = ComponentLabel.KS3H, ComponentLabel.ES3H

    f5 = _cond("f5")
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
    return tuple(Table2Row(i + 1, frozenset(c), tuple(conds), tuple(conds))
                 for i, (c, conds) in enumerate(rows))


def table3_rows(s: QuatStructure) -> tuple[Table2Row, ...]:
    return _build_table3()


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
    bound = tol * max(d.dOmega.norm(), 1e-300)
    norms = d.wedge_norms()
    return {"EH_zero": norms["wOm0"] <= bound,
            "ES3H_zero": norms["wAAeq"] <= bound,
            "EHS3H_zero": norms["wAA0"] <= bound}


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
    # C = aQ after the one membership test; C, d* a, Lcal C and the fields
    # of alternate5(a) are computed once for the profile and both contexts
    ctx = ctx_from_torsion(a, s, w_coords(a, s, tol))
    C, LC = (ctx.w[k].reshape(s.dim, -1) for k in ("a", "La"))
    label, prof = _label(ComponentProfile.of(
        split_coords(C, ctx.f3["dstar"], s, LC), a.norm()), tol)
    out = {
        "class": label.display,
        "key": label.key,
        "aliases": list(label.aliases),
        "profile": prof.to_json(),
        "tolerance": tol,
    }
    row2 = _find_row(table2_rows(s), label.components)
    out["table2"] = RowResult.evaluate(row2, row2.col2, ctx).to_json()
    d = ctx.derived()
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
