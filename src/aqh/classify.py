"""Class assignment on the lattice of torsion components, and the explicit
per-class conditions in terms of the covariant derivative (column 2) or the
exterior derivative (column 3), plus the dimension-8 partial table and the
wedge criteria.

Table 2 is written once, as column 2; column 3 is its alternation (see
_alternated), which is faithful for n >= 3.  Table 3 (dimension 8, where the
alternation is not injective) is transcribed in 5-form terms.

The one-forms appearing in the conditions are always those of the 3-form
d* a; in the exterior-derivative column they are those of d*Omega, which
is recovered from the 5-form alone through a Hodge identity assembled once
into dOmega_op (see ctx_from_derived).  The wedge norms are read from
these one-forms (threeform.wedge_norms), so the covariant column reads
no 5-form.  Each condition field is a cached linear map of C = aQ, d* a or
dOmega (sparse ones through their nonzeros), applied to a whole stack of
tensors when its context is made.  The fields of a sum are the sums of the
fields, so verify makes its contexts once, on the components of its pools,
and sums each mixture's from them (_Ctx.mix).

A row read on such a context (RowResult.evaluate on ctx_from_torsion or
ctx_from_derived) and wedge_criteria are the direct routes, and verify runs
them as the cross-check.  classification_report, the one classifier, reads
every field condition as a Schur form of the component profile, with
constants measured once per n (schur_table), and forms no field and no
5-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .exterior import AltForm, MixedTorsion, SparseOp, alternate5, contract12, hodge_op, wedge, wedge_op, wedge_power
from .projectors import (COMPONENT_DIMS, ComponentLabel, ComponentProfile,
                         _w_core, component_norms, lcal_coords, split_coords)
from .structure import AXES, QuatStructure
from .threeform import (_cond, _Ctx, _eval_cond, _norm, require_alternation,
                        wedge_norms)
from .torsion import check_tol, require_in_W, w_dim, w_embed

ALIASES = {
    frozenset(): ("QK", "quaternion-Kähler"),
    frozenset({ComponentLabel.EH}): (
        "l.c.q.K.", "locally conformal quaternion-Kähler"),
    frozenset({ComponentLabel.KH, ComponentLabel.EH}): ("QKT",),
    frozenset({ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH}):
        ("quaternionic",),
}


@lru_cache(maxsize=None)
def _factor_display(comps: frozenset) -> str:
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


def _label(prof, tol: float, n: int, floor: float):
    """The components above tol * total, leaving out those that are zero at
    n, whose norms are round-off; no component when the total is below
    floor."""
    keep = [X for X, v in prof.norms.items()
            if v > tol * prof.total and COMPONENT_DIMS[X](n)]
    return ClassLabel(frozenset(keep if prof.total >= floor else ())), prof


def dOmega_op(s: QuatStructure) -> SparseOp:
    """The map (N3 x N5) dOm -> d*Omega as its nonzeros: the wedge with
    Omega^(n-2) moved by the star (ctx_from_derived)."""

    def build():
        n, dim = s.n, s.dim
        lift = wedge_op(wedge_power(s.Omega, n - 2), 5)
        H = hodge_op(dim, dim - 3, s.vol_coeff)
        # H permutes the rows of the lift
        return SparseOp(H.r[lift.r], lift.c, (
            (-1.0) ** n * 6 * (n - 1) / math.factorial(2 * n - 1)
            * H.v[lift.r] * lift.v), lift.shape)

    return s.cache("dOmega", build)


# ---------------------------------------------------------------------------
# condition contexts
# ---------------------------------------------------------------------------


def ae(s: QuatStructure, x: np.ndarray) -> np.ndarray:
    """b -> sum_A i_A(b) ^ w_A on the last axis of 3-form coefficients:
    -W D with (W, D) = ``ae_factors(3)``."""
    W, D = s.ae_factors(3)
    return -W(D(x))


def ctx_from_torsion(C: np.ndarray, ds: np.ndarray, s: QuatStructure,
                     scale) -> _Ctx:
    """The packed covariant-column context of the tensors with W coordinates
    C (..., dim, r) and d* a = ds (..., N3), at scale (...).  Its w fields
    are W coordinates (..., dim*r): a, La, SEd, SELd, Q = SE m, R.  All of
    them lie in W, so their norms are those of the 5-slot tensors."""
    ctx = _Ctx(s, scale, ds).with_f3(s)
    flat, f3, xi = C.shape[:-2] + (-1,), ctx.f3, ctx.xi
    SE, R = (_w_core(s)[k] for k in ("SE", "R"))
    ctx.w = {"a": C.reshape(flat), "La": lcal_coords(C, s).reshape(flat),
             "SEd": ds @ SE.T, "SELd": f3["Ldstar"] @ SE.T,
             "Q": f3["m"] @ SE.T, "R": xi[..., 0, :] @ R.T}
    return ctx.packed()


def ctx_from_derived(dOm: np.ndarray, s: QuatStructure, scale) -> _Ctx:
    """The packed exterior-derivative context of the 5-forms dOm (..., N5),
    at scale (...): d*Omega, xi and the xi_A triple from dOm alone.

    d*Omega is recovered by the Hodge identity (dOmega_op)
      d*Omega = ((-1)^n 6(n-1)/(2n-1)!) * star(Omega^(n-2) ^ dOmega),
    and xi, xi_A are those of d*Omega (threeform.xi_maps).  With star_inv
    for the outermost star they satisfy
      xi = -(1/(12(2n+1))) star_inv(star(dOmega) ^ Omega),
      star(star(d*Omega) ^ w_A) = 4 k1 A xi_A + 6 A xi,
    and, only when dOmega is the alternation of a tensor in W (alternate5
    of a member of W, or ce_d(g, Omega)), the identity threeform.wedge_norms
    reads: star_inv(star(dOmega) ^ w_A ^ w_A) = -12 xi - 8 k1 xi_A.  verify
    certifies all three.  The f5 fields are 5-forms: dOm, LdOm, AEd, AELd,
    Q5 = AE m, xiOm; the context also holds the misses of the last identity
    (_alternation_miss), and wAAeq and wAA0 run require_alternation on it
    first.  All of them are linear in dOm, so a mix of the context is the
    context of the mixed 5-forms."""
    ctx = _Ctx(s, scale, dOmega_op(s)(dOm)).with_f3(s)
    f3, xi = ctx.f3, ctx.xi
    wedge_Omega = s.cache("wedge_Omega_1", lambda: wedge_op(s.Omega, 1))
    ctx.f5 = {"dOm": dOm, "LdOm": s.L_apply(5, dOm),
              "AEd": ae(s, f3["dstar"]), "AELd": ae(s, f3["Ldstar"]),
              "Q5": ae(s, f3["m"]), "xiOm": wedge_Omega(xi[..., 0, :])}
    ctx.miss = _alternation_miss(dOm, xi, s)
    return ctx.packed()


def _alternation_miss(dOm: np.ndarray, xi: np.ndarray,
                      s: QuatStructure) -> np.ndarray:
    """star_inv(star(dOm) ^ w_I ^ w_I) + 12 xi + 8(n-1) xi_I (..., dim) of
    the 5-forms dOm (..., N5) with one-forms xi (..., 4, dim): zero when dOm
    is the alternation of a tensor in W, as alternate5(a) and ce_d(g, Omega)
    are, and at n = 2 always."""
    dim, vol = s.dim, s.vol_coeff
    wII = s.cache("wedge_wII", lambda: wedge_op(
        wedge(s.omega["I"], s.omega["I"]), dim - 5))
    return (hodge_op(dim, 1, vol).T(wII(hodge_op(dim, 5, vol)(dOm)))
            + 12 * xi[..., 0, :] + 8 * s.k1 * xi[..., 1, :])


@dataclass
class RowResult:
    """The residuals of a row's conditions and the scale, each an array over
    the context's stack (a float for a single tensor)."""

    row: "Table2Row"
    residuals: list
    scale: np.ndarray

    @classmethod
    def evaluate(cls, row: "Table2Row", conds, ctx: _Ctx) -> "RowResult":
        return cls(row, [_eval_cond(c, ctx) for c in conds], ctx.scale)

    @property
    def value(self):
        """The largest residual over the scale, per stack entry."""
        return (reduce(np.maximum, self.residuals) / self.scale
                if self.residuals else 0.0)

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
    return _Rows(Table2Row(i + 1, frozenset(comps), tuple(col2),
                           tuple(_alternated(c) for c in col2))
                 for i, (comps, col2) in enumerate(rows))


def table2_rows(s: QuatStructure) -> tuple[Table2Row, ...]:
    return _build_table2(s.n)


class _Rows(tuple):
    """The rows of a table, with the lookup of each by component set."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.by_id = {r.components: r for r in self}
        return self


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
    return _Rows(Table2Row(i + 1, frozenset(c), tuple(conds), tuple(conds))
                 for i, (c, conds) in enumerate(rows))


def table3_rows(s: QuatStructure) -> tuple[Table2Row, ...]:
    return _build_table3()


# ---------------------------------------------------------------------------
# wedge criteria and the 5-form perpendicularity test
# ---------------------------------------------------------------------------


def wedge_criteria(dOm: AltForm, s: QuatStructure) -> dict[str, bool]:
    """i) star(dOm)^Om = 0 iff the EH part vanishes; ii) the three
    star(dOm)^w_A^w_A agree iff the ES3H part vanishes; iii) all vanish iff
    the E(H+S3H) part vanishes, each to 1e-8 |dOm|.  The wedges are read
    from the xi, xi_A of the derived context (threeform.wedge_norms), so dOm
    must be the alternation of a tensor in W: require_alternation raises
    ValueError otherwise."""
    ctx = ctx_from_derived(dOm.coeffs, s, dOm.norm())
    require_alternation(ctx)
    return _wedge_flags(wedge_norms(ctx.dstar, ctx.xi, s.n),
                        1e-8 * ctx.scale)


def _wedge_flags(norms: dict, bound: float) -> dict[str, bool]:
    return {"EH_zero": bool(norms["wOm0"] <= bound),
            "ES3H_zero": bool(norms["wAAeq"] <= bound),
            "EHS3H_zero": bool(norms["wAA0"] <= bound)}


def perp_EH5_test(phi: AltForm, s: QuatStructure) -> bool:
    """True iff phi is orthogonal to all a ^ w_A ^ w_B, tested through the
    nine wedges star(phi) ^ w_A ^ w_B, each held to 1e-8 |phi|."""
    sp = s.star(phi)
    scale = max(phi.norm(), 1e-300)
    worst = max(
        wedge(wedge(sp, s.omega[a]), s.omega[b]).norm()
        for a in AXES for b in AXES)
    return worst <= 1e-8 * scale


# ---------------------------------------------------------------------------
# Schur constants: the rows as norms of the component profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurTable:
    """Tables 2 and 3 as Schur forms, for one n.

    The six components of W are pairwise non-isomorphic irreducible
    Sp(n)Sp(1)-modules, so an equivariant linear map T into a space with an
    invariant inner product has |T a|^2 = sum_X nu_X^2 |a_X|^2.  Each field
    condition (w, f3, f5) is such a map.  Here it is ("schur", nu), nu in
    ComponentLabel order, measured as |T a_X| / |a_X| on one sample of each
    component; _eval_cond reads it against the profile of the context.
    alpha_X = |alternate5(a_X)| / |a_X|.  Column 3 is the alternation of
    column 2, so its w conditions have alpha nu and the rest keep nu; the
    conditions of Table 3 (n = 2) are measured on the samples' 5-forms.  The
    per-axis and wedge conditions are kept: they read the one-forms of d* a."""

    alpha: np.ndarray
    col2: tuple
    col3: tuple
    table3: tuple

    def evaluate(self, column: str, row: Table2Row, ctx: _Ctx) -> RowResult:
        """A row of col2, col3 or table3 at the profile of ctx."""
        return RowResult.evaluate(row, getattr(self, column)[row.index - 1],
                                  ctx)


def _compile(cond, nu):
    """cond with each field condition replaced by ("schur", nu(cond))."""
    if cond[0] == "or":
        return ("or", [[_compile(c, nu) for c in b] for b in cond[1]])
    return ("schur", nu(cond)) if cond[0] in _FIELD_TAGS else cond


_FIELD_TAGS = ("w", "f3", "f5")


def _cond_key(cond) -> tuple:
    return cond[0], tuple(cond[1].items())


def _build_schur_table(s: QuatStructure) -> SchurTable:
    """The constants of s.n, measured on one stack of the components of one
    generic element of W; an empty component (L3EH, L3ES3H at n = 2) has 0."""
    C = np.sin(np.arange(w_dim(s.n)) ** 2.0).reshape(s.dim, -1)
    parts = split_coords(C, contract12(w_embed(C, s)).coeffs, s)
    labs = [X for X in ComponentLabel if COMPONENT_DIMS[X](s.n)]
    a = [w_embed(parts[X], s) for X in labs]
    size = np.array([aX.norm() for aX in a])
    ds = np.stack([contract12(aX).coeffs for aX in a])
    dOm = np.stack([alternate5(aX).coeffs for aX in a])
    cov = ctx_from_torsion(np.stack([parts[X] for X in labs]), ds, s, size)
    rows2, rows3 = table2_rows(s), table3_rows(s) if s.n == 2 else ()
    # the f5 conditions are those of Table 3, read on the samples' 5-forms
    ctxs = {"w": cov, "f3": cov,
            "f5": ctx_from_derived(dOm, s, size) if rows3 else None}
    idx = [list(ComponentLabel).index(X) for X in labs]

    def per_label(values):
        out = np.zeros(len(ComponentLabel))
        out[idx] = values
        return out

    alpha, nus = per_label(_norm(dOm) / size), {}

    def nu(cond):
        # each distinct field condition once, on the whole stack
        key = _cond_key(cond)
        if key not in nus:
            nus[key] = per_label(_eval_cond(cond, ctxs[cond[0]]) / size)
        return nus[key]

    def alt(cond):
        return alpha * nu(cond) if cond[0] == "w" else nu(cond)

    def compiled(rows, column, nu):
        return tuple(tuple(_compile(c, nu) for c in getattr(r, column))
                     for r in rows)

    return SchurTable(
        alpha, compiled(rows2, "col2", nu),
        compiled(rows2, "col2", alt) if s.n >= 3 else (),
        compiled(rows3, "col3", nu))


_SCHUR: dict[int, SchurTable] = {}


def schur_table(s: QuatStructure) -> SchurTable:
    """The SchurTable of s.n, built on the first structure of that n that
    asks: the constants do not depend on the frame (verify checks them)."""
    if s.n not in _SCHUR:
        _SCHUR[s.n] = _build_schur_table(s)
    return _SCHUR[s.n]


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


# the least relative distance from W that a report refuses, whatever the
# label tol: the package's own W elements lie about 1e-15 off it
MEMBERSHIP_FLOOR = 1e-12

# a tensor report reads a tensor of norm below this as zero, of class QK;
# an algebra report holds it relative to the bracket scale max|c|
ZERO_FLOOR = 1e-14


def classification_report(a: MixedTorsion, s: QuatStructure,
                          tol: float = 1e-8) -> dict:
    """The class of a at label threshold tol; a must lie within
    max(tol, MEMBERSHIP_FLOOR) of W (MembershipError otherwise)."""
    check_tol(tol)
    C = require_in_W(a, s, max(tol, MEMBERSHIP_FLOOR))
    return _report(a, s, tol, C, contract12(a), ZERO_FLOOR)


def _report(a: MixedTorsion, s: QuatStructure, tol: float,
            C: np.ndarray, ds: AltForm, floor: float) -> dict:
    # C = aQ after the one membership test and ds = d* a; both are computed
    # once, by the caller, for the profile and for the context, which holds
    # d* a, its one-forms and the profile and no field.  The rows are then
    # Schur forms of the profile, and |dOm| is |alpha p|: no 5-form is formed.
    # A tensor of norm below floor has no component (_label).
    ds, size = ds.coeffs, a.norm()
    label, prof = _label(ComponentProfile(component_norms(C, ds, s), size),
                         tol, s.n, floor)
    out = {
        "class": label.display,
        "key": label.key,
        "aliases": list(label.aliases),
        "profile": prof.to_json(),
        "tolerance": tol,
    }
    table, ctx = schur_table(s), _Ctx(s, size, ds)
    ctx.profile = p = np.array([prof.norms[X] for X in ComponentLabel])
    row2 = table2_rows(s).by_id[label.components]
    out["table2"] = table.evaluate("col2", row2, ctx).to_json()
    if s.n >= 3:
        out["table2_dOmega"] = table.evaluate("col3", row2, ctx).to_json()
    else:
        rows = [row for row in table3_rows(s)
                if label.components <= row.components]
        out["table3"] = None
        if rows:
            # the first of the smallest rows containing the class
            row = min(rows, key=lambda r: len(r.components))
            rr = table.evaluate("table3", row, ctx)
            out["table3"] = {"row": rr.row.key, "value": rr.value}
    dOm = _norm(table.alpha * p)
    out["wedge_criteria"] = _wedge_flags(
        wedge_norms(ds, ctx.xi, s.n), tol * max(dOm, 1e-300))
    return out
