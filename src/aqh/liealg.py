"""Left-invariant torsion tensors from metric Lie algebras.

A metric Lie algebra with an orthonormal bracket table and a compatible
quaternionic structure yields genuine intrinsic-torsion tensors: the
Levi-Civita connection comes from the Koszul formula

    2 <nabla_x y, z> = <[x,y], z> - <[y,z], x> + <[z,x], y>,

invariant forms differentiate by slot insertion of nabla, the exterior
derivative is Koszul's derivation formula

    d = (1/2) sum_k e^k ^ theta(e_k),   theta(e_k) = -ad(e_k) as a derivation,

which equals the bracket alternation

    db(x_0..x_p) = sum_{i<j} (-1)^{i+j} b([x_i, x_j], x_0..^i..^j..x_p),

and the Nijenhuis tensor of each complex structure measures integrability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exterior import (
    AltForm,
    InputFormatError,
    MixedTorsion,
    MixedTwoFormFamily,
    _json_index,
    _json_n,
    _json_value,
    alternate5,
    contract12,
    derivation,
    wedge1,
    wedge_rows,
)
from .structure import (
    AXES,
    QuatStructure,
    insert,
    slot_sum,
    standard_structure,
    structure_from_json,
)
from .threeform import xi_triple
from .torsion import from_nabla_omegas, is_in_W
from .classify import DerivedFromDOmega, classification_report


class AlgebraError(ValueError):
    """Raised for bracket tables that do not define a Lie algebra."""


class VerificationError(Exception):
    """Raised when independent routes to one quantity disagree: a failure of
    the computation, not of the input."""


# largest Jacobi residual a bracket table may have
JACOBI_TOL = 1e-12


@dataclass
class MetricLieAlgebra:
    """Structure constants c[i,j,k] with [e_i, e_j] = sum_k c[i,j,k] e_k in an
    orthonormal basis, plus a quaternionic structure on the same space.

    The constructor antisymmetrises the bracket table but a Jacobi failure is
    an error, never repaired."""

    structure: QuatStructure
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = self.structure.dim
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (dim, dim, dim):
            raise AlgebraError(f"bracket table must be {dim}^3")
        self.c = 0.5 * (self.c - self.c.transpose(1, 0, 2))
        jac = (np.einsum("ijm,mkl->ijkl", self.c, self.c)
               + np.einsum("jkm,mil->ijkl", self.c, self.c)
               + np.einsum("kim,mjl->ijkl", self.c, self.c))
        resid = float(np.abs(jac).max())
        if not resid <= JACOBI_TOL:
            raise AlgebraError(f"Jacobi identity fails ({resid:.2e})")

    @property
    def dim(self) -> int:
        return self.structure.dim

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.c)

    def is_abelian(self, tol: float = 0.0) -> bool:
        return float(np.abs(self.c).max()) <= tol


def koszul(g: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients G[x, j, k] = <nabla_{e_x} e_j, e_k>."""
    c = g.c
    G = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    # metric compatibility and torsion-freeness are structural here, but a
    # cheap check guards against index slips
    if not float(np.abs(G + G.transpose(0, 2, 1)).max()) <= 1e-12:
        raise AlgebraError("connection is not metric")
    if not float(np.abs(G - G.transpose(1, 0, 2)
                        - c.transpose(0, 1, 2)).max()) <= 1e-12:
        raise AlgebraError("connection has torsion")
    return G


def nabla_dense(g: MetricLieAlgebra, G: np.ndarray,
                t: np.ndarray) -> np.ndarray:
    """Covariant derivative of an invariant dense (0,s)-tensor:
    out[x, ...] = (nabla_{e_x} t)(...)."""
    # G[x].T is the matrix of nabla_{e_x}: e_j -> sum_k G[x,j,k] e_k, and
    # its slot sum carries the minus sign of insert
    return np.stack([slot_sum(G[x].T, t) for x in range(g.dim)])


def nabla_form(g: MetricLieAlgebra, G: np.ndarray, w: AltForm) -> np.ndarray:
    """Rows of coefficient vectors of nabla w (one row per direction)."""
    return -derivation(G.transpose(0, 2, 1), w)


def nabla_omega(g: MetricLieAlgebra, G: np.ndarray,
                axis: str) -> MixedTwoFormFamily:
    """nabla w_A as a mixed two-form family."""
    A = g.structure.mats[axis]
    return MixedTwoFormFamily(g.dim, -(G @ A + A @ G.transpose(0, 2, 1)))


def nabla_Omega(g: MetricLieAlgebra, G: np.ndarray) -> MixedTorsion:
    return MixedTorsion(g.dim, nabla_form(g, G, g.structure.Omega))


def ce_d(g: MetricLieAlgebra, b: AltForm) -> AltForm:
    """Exterior derivative of an invariant form,
    d b = -(1/2) sum_k e^k ^ derivation(ad(e_k), b)."""
    dim, p = g.dim, b.degree
    if p == 0 or p + 1 > dim:
        return AltForm.zero(dim, min(p + 1, dim + 1))
    ad = g.c.transpose(0, 2, 1)     # ad[k][z, r] = c[k, r, z]
    return AltForm(dim, p + 1, -0.5 * wedge_rows(derivation(ad, b), p))


def nijenhuis(g: MetricLieAlgebra, axis: str) -> np.ndarray:
    """N_A(x, y, z) = <e_x, N_A(e_y, e_z)> with
    N_A(Y, Z) = [Y,Z] + A[AY,Z] + A[Y,AZ] - [AY,AZ].

    Built in (y, z, x) order from P[y, z] = [A e_y, e_z] = tensordot(A, c):
    A[AY,Z] is P A^T, A[Y,AZ] is its (y, z) transpose negated, and
    [AY,AZ] is A^T P: one tensordot and two batched products."""
    A = g.structure.mats[axis]
    P = np.tensordot(A, g.c, (0, 0))
    Q = P @ A.T
    N = g.c + Q - Q.transpose(1, 0, 2) - A.T @ P
    return N.transpose(2, 0, 1)


def gray_residual(g: MetricLieAlgebra, G: np.ndarray, axis: str) -> float:
    """Residual of 2 nabla w_A = d w_A - A_(2)A_(3) d w_A - A_(2) N_A."""
    return _gray_residual(g.structure.mats[axis],
                          ce_d(g, g.structure.omega[axis]),
                          nijenhuis(g, axis), nabla_omega(g, G, axis))


def _gray_residual(A: np.ndarray, dw: AltForm, NA: np.ndarray,
                   nw: MixedTwoFormFamily) -> float:
    """gray_residual, given d w_A, N_A and nabla w_A."""
    dw = dw.dense()
    rhs = dw - insert(A, 2, insert(A, 3, dw)) - insert(A, 2, NA)
    return float(np.abs(2.0 * nw.mats - rhs).max())


def codiff_Omega(g: MetricLieAlgebra, G: np.ndarray | None = None,
                 tol: float = 1e-9) -> dict:
    """The codifferential of the fundamental form computed three ways:

    * contraction: -C12(nabla Omega);
    * hodge: -star d star Omega;
    * structural: -2 sum_A <A . hook d w_A, w_A> ^ w_A + 2 sum_A d w_A(A., A., A.),
      equivalently 2 sum_A (d* w_A ^ w_A + d w_A(A., A., A.)).

    Raises VerificationError if the routes disagree beyond tol (relative).
    The report also carries, per axis: the residual of
    A d* w_A = -<. hook d w_A, w_A>; the residual of the wedge-trace display
    2 <A . hook d w_A, w_A> = star_inv(star dOmega ^ w_A ^ w_A)
    (the d* w_A variant of its left side is degree-invalid and cannot be
    formed); and the residual of the combination that does hold,
    star_inv(star dOmega ^ w_A ^ w_A) = -12 xi - 8 k1 xi_A
    with xi, xi_A those of d* Omega."""
    s, G = g.structure, koszul(g) if G is None else G
    return _codiff_Omega(g, nabla_Omega(g, G),
                         DerivedFromDOmega.from_dOmega(ce_d(g, s.Omega), s),
                         {a: ce_d(g, s.omega[a]) for a in AXES},
                         {a: nabla_omega(g, G, a) for a in AXES}, tol)


def _codiff_Omega(g: MetricLieAlgebra, nOm: MixedTorsion,
                  d: DerivedFromDOmega, dwa: dict, nw: dict,
                  tol: float = 1e-9) -> dict:
    """codiff_Omega given nabla Omega, the fields d of d Omega, d w_A and
    nabla w_A."""
    s = g.structure
    route_contraction = contract12(nOm)
    route_hodge = -1.0 * s.star(ce_d(g, s.star(s.Omega)))
    # w[y] = <e_y hook dw_A, w_A>; u = <A . hook dw_A, w_A> = -A w
    w = {a: 0.5 * np.einsum("yrs,rs->y", dwa[a].dense(), s.mats[a])
         for a in AXES}
    u = {a: -(s.mats[a] @ w[a]) for a in AXES}
    # d* w_A = -(sum_r (nabla_{e_r} w_A)(e_r, .))
    dstar_w = {a: -np.einsum("rrz->z", nw[a].mats) for a in AXES}
    act = {a: 2.0 * s.act_axis(a, dwa[a]) for a in AXES}
    zero = AltForm.zero(s.dim, 3)
    variants = {
        "contraction": route_contraction,
        "hodge": route_hodge,
        "structural": sum((act[a] - 2.0 * wedge1(u[a], s.omega[a])
                           for a in AXES), zero),
        # same expression through the two-form codifferentials
        "two_form_codiff": sum((2.0 * wedge1(dstar_w[a], s.omega[a]) + act[a]
                                for a in AXES), zero),
    }
    scale = max(route_contraction.norm(), 1e-300)
    pair = {f"{x}|{y}": float(np.linalg.norm(
                variants[x].coeffs - variants[y].coeffs)) / scale
            for x, y in itertools.combinations(variants, 2)}
    tri = xi_triple(route_contraction, s)
    wAA = {a: s.star_inv(d.wAA[a]).coeffs for a in AXES}
    fixed = {a: -12.0 * tri.xi - 8.0 * s.k1 * tri[a] for a in AXES}
    report = {
        "pairwise": pair,
        "two_form_codiff_identity": {a: float(np.abs(
            s.mats[a] @ dstar_w[a] + w[a]).max()) for a in AXES},
        "wedge_trace_displayed": {a: float(np.abs(
            2.0 * u[a] - wAA[a]).max()) / scale for a in AXES},
        "wedge_trace_xi_combination": {a: float(np.abs(
            fixed[a] - wAA[a]).max()) / scale for a in AXES},
    }
    if max(pair.values()) > tol:
        raise VerificationError(
            "codifferential routes disagree: "
            + ", ".join(f"{k}={v:.2e}" for k, v in pair.items()))
    return {"value": route_contraction, "variants": variants,
            "report": report}


def classify_algebra(g: MetricLieAlgebra, tol: float = 1e-8) -> dict:
    """End-to-end pipeline: connection, torsion, class, table residuals and
    the structural cross-identities, sharing nabla Omega, d Omega, d w_A,
    nabla w_A and N_A."""
    s = g.structure
    G = koszul(g)
    nOm = nabla_Omega(g, G)
    d = DerivedFromDOmega.from_dOmega(ce_d(g, s.Omega), s, scale=nOm.norm())
    dwa = {a: ce_d(g, s.omega[a]) for a in AXES}
    ok, resid = is_in_W(nOm, s, max(tol, 1e-10))
    checks = {"torsion_membership": resid}
    nw = {a: nabla_omega(g, G, a) for a in AXES}
    NA = {a: nijenhuis(g, a) for a in AXES}
    assembled = from_nabla_omegas(2.0 * nw["I"], 2.0 * nw["J"],
                                  2.0 * nw["K"], s)
    scale = max(nOm.norm(), 1e-300)
    checks["product_rule"] = float(
        np.linalg.norm(assembled.rows - nOm.rows)) / scale
    checks["alternation_vs_differential"] = float(np.linalg.norm(
        alternate5(nOm).coeffs - d.dOmega.coeffs)) / scale
    checks["gray_identity"] = max(
        _gray_residual(s.mats[a], dwa[a], NA[a], nw[a]) for a in AXES)
    checks["nijenhuis_trace"] = max(
        float(np.abs(np.einsum("iix->x", NA[a])).max()) for a in AXES)
    cod = _codiff_Omega(g, nOm, d, dwa, nw)
    checks["codifferential_pairwise"] = max(
        cod["report"]["pairwise"].values())
    checks["wedge_trace_xi_combination"] = max(
        cod["report"]["wedge_trace_xi_combination"].values())
    report = classification_report(nOm, s, tol)
    tri = xi_triple(cod["value"], s)
    checks["xi_hodge_vs_contraction"] = float(
        np.linalg.norm(d.xi - tri.xi)) / scale
    report["checks"] = checks
    report["codifferential"] = cod["report"]
    report["abelian"] = g.is_abelian()
    return report


# ---------------------------------------------------------------------------
# construction helpers and JSON interchange
# ---------------------------------------------------------------------------


def abelian_algebra(n: int) -> MetricLieAlgebra:
    s = standard_structure(n)
    return MetricLieAlgebra(s, np.zeros((s.dim,) * 3))


def two_step_nilpotent(n: int, seed: int, center: int = 4,
                       scale: float = 1.0) -> MetricLieAlgebra:
    """Random two-step nilpotent algebra: brackets of the first 4n - center
    basis vectors land in the span of the last `center` ones (Jacobi holds
    identically)."""
    s = standard_structure(n)
    dim = s.dim
    rng = np.random.default_rng(seed)
    c = np.zeros((dim,) * 3)
    base = dim - center
    vals = rng.standard_normal((base, base, center)) * scale
    for i in range(base):
        for j in range(i + 1, base):
            c[i, j, base:] = vals[i, j]
            c[j, i, base:] = -vals[i, j]
    return MetricLieAlgebra(s, c)


def algebra_to_json(g: MetricLieAlgebra) -> dict:
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in np.nonzero(g.c[i, j])[0]:
                brackets.append([i, j, int(k), float(g.c[i, j, k])])
    return {"n": g.structure.n, "brackets": brackets, "structure": "standard"}


def algebra_from_json(data: dict) -> MetricLieAlgebra:
    n = _json_n(data)
    sdata = data.get("structure", "standard")
    brackets = data.get("brackets", [])
    if sdata != "standard" and not isinstance(sdata, dict):
        raise InputFormatError(
            f"key 'structure': {sdata!r:.40} is neither 'standard' nor an object")
    if not isinstance(brackets, list):
        raise InputFormatError(f"key 'brackets': {brackets!r:.40} is not a list")
    s = standard_structure(n) if sdata == "standard" else structure_from_json(sdata)
    c = np.zeros((s.dim,) * 3)
    for pos, entry in enumerate(brackets):
        where = f"brackets[{pos}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputFormatError(f"{where}: {entry!r} is not [i, j, k, value]")
        i, j, k = (_json_index(where, x, s.dim) for x in entry[:3])
        v = _json_value(where, entry[3])
        c[i, j, k] += v
        c[j, i, k] -= v
    return MetricLieAlgebra(s, c)

