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
    SparseOp,
    _json_index,
    _json_n,
    _json_value,
    alternate5,
    contract12,
    dense_forms,
    derivation_op,
    koszul_op,
)
from .structure import (
    AXES,
    QuatStructure,
    standard_structure,
    structure_from_json,
)
from .torsion import MembershipError, _w_project, check_tol, from_nabla_omegas
from .classify import ZERO_FLOOR, _report


class AlgebraError(ValueError):
    """Raised for bracket tables that do not define a Lie algebra."""


class VerificationError(Exception):
    """Raised when independent routes to one quantity disagree: a failure of
    the computation, not of the input."""


# largest Jacobi residual a bracket table may have, relative to max|c|^2
JACOBI_TOL = 1e-12


@dataclass
class MetricLieAlgebra:
    """Structure constants c[i,j,k] with [e_i, e_j] = sum_k c[i,j,k] e_k in an
    orthonormal basis, plus a quaternionic structure on the same space.

    The constructor antisymmetrises the bracket table but a Jacobi failure,
    a residual above JACOBI_TOL max|c|^2, is an error, never repaired."""

    structure: QuatStructure
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = self.structure.dim
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (dim, dim, dim):
            raise AlgebraError(f"bracket table must be {dim}^3")
        self.c = 0.5 * (self.c - self.c.transpose(1, 0, 2))
        # P[i,j,k,l] = sum_m c[i,j,m] c[m,k,l]; the Jacobi sum is P plus
        # its two cyclic moves of (i, j, k)
        P = (self.c.reshape(dim * dim, dim)
             @ self.c.reshape(dim, dim * dim)).reshape((dim,) * 4)
        jac = P + P.transpose(2, 0, 1, 3) + P.transpose(1, 2, 0, 3)
        resid = float(np.abs(jac).max())
        m = float(np.abs(self.c).max()) or 1.0
        if not resid / m / m <= JACOBI_TOL:
            raise AlgebraError(f"Jacobi identity fails ({resid:.2e})")

    @property
    def dim(self) -> int:
        return self.structure.dim

    def is_abelian(self) -> bool:
        return not self.c.any()


def koszul(g: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients G[x, j, k] = <nabla_{e_x} e_j, e_k>."""
    c = g.c
    G = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    # metric compatibility and torsion-freeness are structural here, but a
    # cheap check, relative to max|c|, guards against index slips
    tol = 1e-12 * float(np.abs(c).max())
    if not float(np.abs(G + G.transpose(0, 2, 1)).max()) <= tol:
        raise AlgebraError("connection is not metric")
    if not float(np.abs(G - G.transpose(1, 0, 2) - c).max()) <= tol:
        raise AlgebraError("connection has torsion")
    return G


def nabla_form(g: MetricLieAlgebra, G: np.ndarray, w: AltForm) -> np.ndarray:
    """Rows of coefficient vectors of nabla w (one row per direction): the
    slot derivation of w by G[x]^T, negated, through the dense
    ``derivation_op`` of w, which the structure keeps for its own forms."""
    Y = g.structure.form_cache("derivation", w,
                               lambda: derivation_op(w).T.dense())
    return -(G.transpose(0, 2, 1).reshape(g.dim, -1) @ Y)


def nabla_omegas(g: MetricLieAlgebra, G: np.ndarray) -> np.ndarray:
    """nabla w_I, nabla w_J, nabla w_K as one (3, dim, dim, dim) stack, row x
    of axis A the 2-form nabla_{e_x} w_A = -(G[x] A + A G[x]^T): with
    A^T = -A that is M^T - M for M = G[x] A, one product over the stack."""
    dim = g.dim
    M = (G.reshape(dim * dim, dim) @ g.structure.IJK).reshape(3, dim, dim, dim)
    return M.transpose(0, 1, 3, 2) - M


def nabla_Omega(g: MetricLieAlgebra, G: np.ndarray) -> MixedTorsion:
    return MixedTorsion(g.dim, nabla_form(g, G, g.structure.Omega))


def _d_map(s: QuatStructure, b) -> SparseOp:
    """exterior.koszul_op of b, kept by s for its own forms."""
    return s.form_cache("d", b, lambda: koszul_op(b))


def ce_d(g: MetricLieAlgebra, b: AltForm) -> AltForm:
    """Exterior derivative of an invariant form,
    d b = -(1/2) sum_k e^k ^ derivation(ad(e_k), b): one product of the
    ``_d_map`` of b, linear in the bracket table."""
    dim, p = g.dim, b.degree
    if p == 0 or p + 1 > dim:
        return AltForm.zero(dim, min(p + 1, dim + 1))
    return AltForm(dim, p + 1, _d_map(g.structure, b)(g.c.ravel()))


def d_omegas(g: MetricLieAlgebra) -> np.ndarray:
    """Dense d w_I, d w_J, d w_K (3, dim, dim, dim): ce_d of the three
    Kaehler forms side by side, one product of their ``_d_map``, scattered
    to every permutation image at once."""
    s = g.structure
    return dense_forms(_d_map(s, s.omegas)(g.c.ravel()).reshape(3, -1),
                       s.dim, 3)


def nijenhuis(g: MetricLieAlgebra) -> np.ndarray:
    """N_I, N_J, N_K as one (3, dim, dim, dim) stack, N_A(x, y, z) =
    <e_x, N_A(e_y, e_z)> with N_A(Y, Z) = [Y,Z] + A[AY,Z] + A[Y,AZ] - [AY,AZ].

    Built in (A, y, z, x) order from P[A, y, z] = [A e_y, e_z], the rows of
    the stacked A^T times c: A[AY,Z] is P A^T, A[Y,AZ] is its (y, z)
    transpose negated, and [AY,AZ] is A^T P: three batched products."""
    c, dim = g.c, g.dim
    At = g.structure.IJK.transpose(0, 2, 1)
    P = (At.reshape(-1, dim) @ c.reshape(dim, -1)).reshape(3, dim, dim, dim)
    Q = P @ At[:, None]
    N = c + Q - Q.transpose(0, 2, 1, 3) - At[:, None] @ P
    return N.transpose(0, 3, 1, 2)


def _gray_residual(A: np.ndarray, dw: np.ndarray, NA: np.ndarray,
                   nw: np.ndarray) -> float:
    """Residual of 2 nabla w_A = d w_A - A_(2)A_(3) d w_A - A_(2) N_A on the
    dense d w_A, N_A, nabla w_A, or their stacks over the axes:
    A_(2) t = -A^T t[x] and A_(3) t = -t A, two products."""
    A = A[..., None, :, :]
    At = np.swapaxes(A, -1, -2)
    return float(np.abs(2.0 * nw - dw + At @ (dw @ A - NA)).max())


def _floor(g: MetricLieAlgebra) -> float:
    """ZERO_FLOOR max|c|, about 90 u max|c| (u = 2^-53): every term of the
    algebra path is a linear image of c through orthogonal maps, with a
    round-off of a few u max|c| (at most 47 u max|c| for flat algebras at
    n <= 4).  Residuals relative to |nabla Omega| or |d*Omega| are held to
    their tol or to this floor, whichever is larger."""
    return ZERO_FLOOR * max(float(np.abs(g.c).max()), 1e-300)


def codiff_Omega(g: MetricLieAlgebra) -> dict:
    """The codifferential of the fundamental form by four routes:

    * contraction: -C12(nabla Omega);
    * hodge: -star d star Omega;
    * structural: -2 sum_A <A . hook d w_A, w_A> ^ w_A + 2 sum_A d w_A(A., A., A.);
    * two_form_codiff: 2 sum_A (d* w_A ^ w_A + d w_A(A., A., A.)).

    It reports |x - y| / |contraction| for each pair of routes and raises
    nothing.  The report also carries, per axis, the residual of
    A d* w_A = -<. hook d w_A, w_A>.  classify_algebra checks the first two
    routes; verify certifies all four and the wedge-trace reading of
    star_inv(star dOmega ^ w_A ^ w_A) (lie-pipeline)."""
    s, G = g.structure, koszul(g)
    mats = s.IJK
    dw = d_omegas(g)
    # w[A, y] = <e_y hook dw_A, w_A>; u = <A . hook dw_A, w_A> = -A w
    w = 0.5 * np.einsum("ayrs,ars->ay", dw, mats)
    u = -(mats @ w[..., None])[..., 0]
    # d* w_A = -(sum_r (nabla_{e_r} w_A)(e_r, .))
    dstar_w = -np.einsum("arrz->az", nabla_omegas(g, G))
    # sum_A x_A ^ w_A for x = u, d* w_A: the stacked wedge of ae_factors(1)
    wu, wd = s.ae_factors(1)[0](np.stack([u.ravel(), dstar_w.ravel()]))
    # 2 sum_A dw_A(A., A., A.): A^T dw_A[x] A, then one product over (A, x)
    AdA = np.swapaxes(mats, 1, 2)[:, None] @ dw @ mats[:, None]
    act = 2.0 * AltForm.from_dense(
        np.tensordot(mats, AdA, ((0, 1), (0, 1)))).coeffs
    variants, pair = _codiff_routes(
        g, contract12(nabla_Omega(g, G)),
        structural=AltForm(s.dim, 3, act - 2.0 * wu),
        # same expression through the two-form codifferentials
        two_form_codiff=AltForm(s.dim, 3, 2.0 * wd + act))
    report = {
        "pairwise": pair,
        "two_form_codiff_identity": dict(zip(AXES, map(float, np.abs(
            (mats @ dstar_w[..., None])[..., 0] + w).max(axis=1)))),
    }
    return {"value": variants["contraction"], "variants": variants,
            "report": report}


def _codiff_routes(g: MetricLieAlgebra, ds: AltForm,
                   **more: AltForm) -> tuple[dict, dict]:
    """The routes to d*Omega, the contraction ds = -C12(nabla Omega),
    -star d star Omega and more, and |x - y| / |contraction| for each pair
    x, y of them, |contraction| raised to _floor(g) / CODIFF_TOL."""
    s = g.structure
    variants = {"contraction": ds,
                "hodge": -1.0 * s.star(ce_d(g, s.star_Omega)), **more}
    scale = max(ds.norm(), _floor(g) / CODIFF_TOL)
    pair = {f"{x}|{y}": float(np.linalg.norm(
                variants[x].coeffs - variants[y].coeffs)) / scale
            for x, y in itertools.combinations(variants, 2)}
    return variants, pair


# the checks of classify_algebra that `aqh liealg` holds to PIPELINE_TOL;
# classify_algebra holds the codifferential routes to CODIFF_TOL itself
PIPELINE_CHECKS = ("product_rule", "alternation_vs_differential",
                   "gray_identity", "nijenhuis_trace",
                   "codifferential_pairwise")
PIPELINE_TOL = 1e-8
CODIFF_TOL = 1e-9


def classify_algebra(g: MetricLieAlgebra, tol: float = 1e-8) -> dict:
    """End-to-end pipeline: connection, torsion, class, table residuals and
    the structural cross-identities, sharing nabla Omega, its W projection,
    d*Omega and the stacks of d w_A, nabla w_A and N_A.  nabla Omega lies in
    W by construction, so a membership residual above PIPELINE_TOL, whatever
    tol, nabla w_A that fail admissibility, and a d*Omega = -C12(nabla Omega)
    that differs from -star d star Omega by more than CODIFF_TOL, each
    over the floor _floor(g), raise VerificationError.  A bad tol raises
    ValueError."""
    check_tol(tol)
    s = g.structure
    G = koszul(g)
    nOm = nabla_Omega(g, G)
    # |nabla Omega| raised to the floor: PIPELINE_TOL of it is the floor
    floor = _floor(g)
    scale = max(nOm.norm(), floor / PIPELINE_TOL)
    C, resid = _w_project(nOm, s, scale)
    if not resid <= PIPELINE_TOL:
        raise VerificationError(f"nabla Omega is not in the torsion space "
                                f"(residual {resid:.2e})")
    checks = {"torsion_membership": resid}
    nw, NA = nabla_omegas(g, G), nijenhuis(g)
    try:
        assembled = from_nabla_omegas(2.0 * nw, s)
    except MembershipError as exc:
        raise VerificationError(f"2 nabla w_A: {exc}") from None
    checks["product_rule"] = float(
        np.linalg.norm(assembled.rows - nOm.rows)) / scale
    checks["alternation_vs_differential"] = float(np.linalg.norm(
        alternate5(nOm).coeffs - ce_d(g, s.Omega).coeffs)) / scale
    # each term of Gray's identity and of N_A is linear in the bracket
    # table, through orthogonal A: |c| is their scale, also where they vanish
    cscale = max(float(np.abs(g.c).max()), 1e-300)
    checks["gray_identity"] = _gray_residual(
        s.IJK, d_omegas(g), NA, nw) / cscale
    checks["nijenhuis_trace"] = float(
        np.abs(np.einsum("aiix->ax", NA)).max()) / cscale
    ds = contract12(nOm)
    (key, gap), = _codiff_routes(g, ds)[1].items()
    if not gap <= CODIFF_TOL:
        raise VerificationError(
            f"codifferential routes disagree: {key}={gap:.2e}")
    checks["codifferential_pairwise"] = gap
    # nabla Omega is linear in c: scaling the brackets is a homothety, which
    # keeps the class, so the zero floor scales with them
    report = _report(nOm, s, tol, C, ds, floor)
    report["checks"] = checks
    report["abelian"] = g.is_abelian()
    return report


# ---------------------------------------------------------------------------
# construction helpers and JSON interchange
# ---------------------------------------------------------------------------


def two_step_nilpotent(n: int, seed: int,
                       center: int = 4) -> MetricLieAlgebra:
    """Random two-step nilpotent algebra: brackets of the first 4n - center
    basis vectors land in the span of the last `center` ones (Jacobi holds
    identically)."""
    s = standard_structure(n)
    dim = s.dim
    rng = np.random.default_rng(seed)
    c = np.zeros((dim,) * 3)
    base = dim - center
    vals = rng.standard_normal((base, base, center))
    for i in range(base):
        for j in range(i + 1, base):
            c[i, j, base:] = vals[i, j]
            c[j, i, base:] = -vals[i, j]
    return MetricLieAlgebra(s, c)


def algebra_from_json(data: dict) -> MetricLieAlgebra:
    n = _json_n(data)
    sdata = data.get("structure", "standard")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise InputFormatError(f"key 'brackets': {brackets!r:.40} is not a list")
    s = standard_structure(n) if sdata == "standard" else structure_from_json(sdata, n)
    c = np.zeros((s.dim,) * 3)
    # sums may overflow; a non-finite norm is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for pos, entry in enumerate(brackets):
            where = f"brackets[{pos}]"
            if not isinstance(entry, list) or len(entry) != 4:
                raise InputFormatError(f"{where}: {entry!r} is not [i, j, k, value]")
            i, j, k = (_json_index(where, x, s.dim) for x in entry[:3])
            v = _json_value(where, entry[3])
            if i == j and v:
                # [e_i, e_i] = 0: the antisymmetric table would drop it
                raise InputFormatError(f"{where}: [e_{i}, e_{i}] must be 0, "
                                       f"got {v!r}")
            c[i, j, k] += v
            c[j, i, k] -= v
        norm2 = c.ravel() @ c.ravel()
    if not np.isfinite(norm2):
        raise InputFormatError("key 'brackets': the norm of the bracket "
                               "values is not a finite number")
    return MetricLieAlgebra(s, c)

