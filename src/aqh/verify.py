"""Identity suite: every structural identity the library relies on, run as
named checks with residuals and tolerances.

Each check returns rows (id, residual, tol, passed, detail).  The ids are
stable strings naming the operators involved, so a failure points directly
at the identity that broke.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exterior import (
    AltForm,
    MixedTorsion,
    alternate5,
    contract12,
    dense_forms,
    hodge_op,
    inner,
    interior,
    wedge,
    wedge1,
    wedge_op,
    wedge_power,
)
from .structure import (
    AXES,
    MAX_N,
    QuatStructure,
    _haar_rotations,
    fundamental_forms,
    insert,
    quaternionic_K,
    random_rotation,
    rotate_adapted,
    rotated_pair,
    standard_structure,
)
from . import torsion as T
from . import threeform as TF
from . import projectors as PR
from . import liealg as LA
from .classify import (
    ClassLabel,
    RowResult,
    ae,
    classification_report,
    ctx_from_derived,
    ctx_from_torsion,
    perp_EH5_test,
    schur_table,
    table2_rows,
    table3_rows,
    wedge_criteria,
)


@dataclass
class CheckResult:
    check: str
    residual: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{mark}] {self.check:44s} residual {self.residual:9.2e}"
                f"  tol {self.tol:7.1e}{extra}")

    def to_json(self) -> dict:
        return {"check": self.check, "residual": self.residual,
                "tol": self.tol, "passed": self.passed,
                "detail": self.detail}


def _rand_form(rng, dim, p) -> AltForm:
    return AltForm(dim, p, rng.standard_normal(math.comb(dim, p)))


def _inverse(c: float, x: float) -> float:
    """c / x for a measured residual x that must stay large; an exact zero
    reads as inf, a failed row."""
    return c / x if x else math.inf


def _norms(x: np.ndarray) -> np.ndarray:
    """The norm of each entry of a stack x, as np.linalg.norm of one."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _worst(x: np.ndarray, ref: np.ndarray) -> float:
    """The largest |x_k| / |ref_k| over the entries of two stacks."""
    return float((_norms(x) / np.maximum(_norms(ref), 1e-300)).max())


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------


def check_exterior(s: QuatStructure, rng) -> list[CheckResult]:
    dim = s.dim
    out = []
    worst = 0.0
    for p in [*range(0, dim + 1, 2), *range(1, dim, 2)]:
        psi, phi = _rand_form(rng, dim, p), _rand_form(rng, dim, p)
        lhs = wedge(psi, s.star(phi)).coeffs[0]
        worst = max(worst, abs(lhs - inner(psi, phi) * s.vol_coeff)
                    / max(abs(lhs), 1e-300))
    out.append(CheckResult("hodge-pairing", worst, 1e-12))

    worst = 0.0
    for p in range(dim + 1):
        a = _rand_form(rng, dim, p)
        ss = s.star(s.star(a))
        worst = max(worst,
                    float(np.abs(ss.coeffs - (-1.0) ** p * a.coeffs).max()))
        sinv = s.star(s.star_inv(a))
        worst = max(worst, float(np.abs(sinv.coeffs - a.coeffs).max()))
    out.append(CheckResult("star-involution-sign", worst, 1e-12,
                           "star^2 = (-1)^p, star o star_inv = id"))

    worst = 0.0
    for _ in range(5):
        degs = rng.integers(1, 3, size=3)
        a, b, c = (_rand_form(rng, dim, int(p)) for p in degs)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        worst = max(worst, float(np.abs(lhs.coeffs - rhs.coeffs).max())
                    / max(lhs.norm(), 1e-300))
        ab = wedge(a, b)
        ba = wedge(b, a)
        sign = (-1.0) ** (degs[0] * degs[1])
        worst = max(worst, float(np.abs(ab.coeffs - sign * ba.coeffs).max())
                    / max(ab.norm(), 1e-300))
    out.append(CheckResult("wedge-associativity-commutativity", worst, 1e-12))

    worst = 0.0
    for p in (2, 3, 4):
        a = _rand_form(rng, dim, p)
        b = _rand_form(rng, dim, p - 1)
        x = rng.standard_normal(dim)
        worst = max(worst, abs(inner(interior(x, a), b)
                               - inner(a, wedge1(x, b))))
    out.append(CheckResult("interior-wedge-adjoint", worst, 1e-12))

    # certifies the orientation the structure reads from a frame
    top = wedge_power(s.Omega, s.n)
    want = (-1.0) ** (s.n + 1) * math.factorial(2 * s.n + 1) * s.vol_coeff
    out.append(CheckResult(
        "volume-normalization", abs(top.coeffs[0] - want), 1e-9,
        f"Omega^n top coefficient = (-1)^(n+1) (2n+1)! vol_coeff = {want:g}"))
    return out


# ---------------------------------------------------------------------------
# the two endomorphisms
# ---------------------------------------------------------------------------


def check_operators(s: QuatStructure, rng) -> list[CheckResult]:
    dim = s.dim
    out = []
    N3 = s.tab.nforms(3)
    L3 = s.L_matrix(3)
    resid = float(np.abs(L3 @ L3 - 9 * np.eye(N3)).max())
    out.append(CheckResult("L-squared-on-threeforms", resid, 1e-9,
                           f"{N3}x{N3} matrix"))

    # coefficient implementation of L against dense slot-by-slot evaluation
    worst = 0.0
    for p in (2, 3):
        b = _rand_form(rng, dim, p)
        dense = np.zeros((dim,) * p)
        for ax in AXES:
            A = s.mats[ax]
            for i, j in itertools.combinations(range(1, p + 1), 2):
                dense += insert(A, i, insert(A, j, b.dense()))
        lhs = s.L_map(b)
        worst = max(worst, float(
            np.abs(lhs.coeffs - AltForm.from_dense(dense).coeffs).max()))
    out.append(CheckResult("L-matches-slot-definition", worst, 1e-12))

    worst = 0.0
    for k in range(20):
        a = T.random_W_element(s, 30_000 + k)
        La = s.lcal_raw(a)
        LLa = s.lcal_raw(La)
        resid = np.linalg.norm(LLa.rows - 2 * La.rows - 8 * a.rows)
        worst = max(worst, resid / max(a.norm(), 1e-300))
    out.append(CheckResult("lcal-quadratic-relation", worst, 1e-8,
                           "(Lcal - 4)(Lcal + 2) = 0 on 20 elements"))

    worst = 0.0
    for k in range(20):
        a = T.random_W_element(s, 31_000 + k)
        resid = np.linalg.norm(s.L_apply(4, a.rows) - 2.0 * a.rows)
        worst = max(worst, resid / max(a.norm(), 1e-300))
    out.append(CheckResult("L-on-torsion-rows", worst, 1e-9,
                           "L = 2 on the 4-form rows"))

    worst = 0.0
    for k in range(20):
        a = T.random_W_element(s, 32_000 + k)
        ds = contract12(a)
        lhs = contract12(s.lcal_raw(a))
        rhs = ds.coeffs + s.L_matrix(3) @ ds.coeffs
        worst = max(worst, float(np.linalg.norm(lhs.coeffs - rhs))
                    / max(ds.norm(), 1e-300))
    out.append(CheckResult("contraction-intertwines-lcal", worst, 1e-9,
                           "d* Lcal = d* + L d*"))

    # slot-pair identities on the two eigenspaces of L
    b = _rand_form(rng, dim, 3)
    plus = TF.proj3(b, "plus3", s)
    minus = TF.proj3(b, "minus3", s)
    worst = 0.0
    for ax in AXES:
        A = s.mats[ax]
        d = plus.dense()
        val = (insert(A, 1, insert(A, 2, d)) + insert(A, 2, insert(A, 3, d))
               + insert(A, 3, insert(A, 1, d)))
        worst = max(worst, float(np.abs(val - d).max()) / max(plus.norm(), 1e-300))
    dm = minus.dense()
    val = sum(insert(s.mats[ax], 2, insert(s.mats[ax], 3, dm)) for ax in AXES)
    worst = max(worst, float(np.abs(val + dm).max()) / max(minus.norm(), 1e-300))
    out.append(CheckResult("eigenspace-slot-pair-identities", worst, 1e-9))

    # the 100 rotations of one normal stack, drawn from rng as 100
    # random_rotation calls draw them; the rotated triples pass the axioms
    # of a structure (quaternionic_K raises otherwise) and give their 100
    # Omega by the helpers QuatStructure uses
    q = _haar_rotations(rng.standard_normal((100, 3, 3)))
    I2, J2 = rotated_pair(q, s)
    Om = fundamental_forms(np.stack([I2, J2, quaternionic_K(I2, J2)], 1))[1]
    out.append(CheckResult("fundamental-form-rotation-invariance",
                           float(np.abs(Om - s.Omega.coeffs).max()), 1e-10,
                           "100 random rotations"))
    return out


# ---------------------------------------------------------------------------
# torsion space
# ---------------------------------------------------------------------------


def dimension_certificate(s: QuatStructure, Q: np.ndarray,
                          M: np.ndarray) -> CheckResult:
    """dim W = dim * rank M, M the fiber map and Q the basis of its range
    (torsion._fiber_maps), with singular values above sigma_1 1e-10 counted,
    and the distance |M - Q Q^T M| / |M| of that range from span(Q), held to
    the same bound.  Every element of W has rows X M^T, so this is the rank
    and distance that samples of W would show."""
    sv = np.linalg.svd(M, compute_uv=False)
    rank, dimW = s.dim * int((sv > sv[0] * 1e-10).sum()), T.w_dim(s.n)
    dist = float(np.linalg.norm(M - Q @ (Q.T @ M)) / np.linalg.norm(M))
    return CheckResult(
        "torsion-space-dimension", abs(rank - dimW) + float(dist > 1e-10),
        0.5, f"dim x rank of the fiber map {rank}, expected {dimW}; "
             f"distance of its range to span(Q) {dist:.1e}, bound 1e-10")


def check_torsion_space(s: QuatStructure, rng) -> list[CheckResult]:
    out = []
    # F F^-1 on 20 elements of W and F^-1 F on 20 fiber families, stacked;
    # a family's norm counts each pair of its antisymmetric rows once
    a = np.stack([T.random_W_element(s, 33_000 + k).rows for k in range(20)])
    raw = np.stack([np.random.default_rng(34_000 + k).standard_normal(
        (s.dim,) * 3) for k in range(20)])
    fam = T._fiber_project(raw - np.swapaxes(raw, -1, -2), s)
    i, j = s.tab.columns(2)
    back = T.F_rows(T.f_inverse_mats(a, s), s)
    c2 = T.f_inverse_mats(T.F_rows(fam, s), s)
    out.append(CheckResult("embedding-round-trip", max(
        _worst(back - a, a), _worst(c2 - fam, fam[..., i, j])), 1e-9,
        "F and its contraction inverse"))

    out.append(dimension_certificate(s, *T._fiber_maps(s)))

    # conjugation-sum eigenvalues on 2-forms: T c = sum_A c(A., A.)
    i, j = s.tab.columns(2)
    Tmat = T._conj_sum(dense_forms(np.eye(len(i)), s.dim, 2), s)[:, i, j].T
    ev = np.linalg.eigvalsh(0.5 * (Tmat + Tmat.T))
    resid = float(np.abs((ev - 3.0) * (ev + 1.0)).max())
    out.append(CheckResult("conjugation-sum-eigenvalues", resid, 1e-9,
                           "eigenvalues in {3, -1}"))

    a = T.random_W_element(s, 36_000)
    cA = T.extract_cA(a, s)
    conds = T.family_conditions(cA, s)
    re = T.reassemble(cA, s)
    resid = max(max(conds.values()),
                float(np.linalg.norm(re.rows - a.rows))) / max(a.norm(), 1e-300)
    out.append(CheckResult("triple-extraction", resid, 1e-9,
                           "conditions i)-iii) and reassembly"))

    q = random_rotation(rng)
    s2 = rotate_adapted(q, s)
    cA2 = T.extract_cA(a, s2)
    re2 = T.reassemble(cA2, s2)
    resid = float(np.linalg.norm(re2.rows - a.rows)) / max(a.norm(), 1e-300)
    changed = float(np.linalg.norm((cA2 - cA).reshape(3, -1), axis=1).max()
                    ) / max(a.norm(), 1e-300)
    out.append(CheckResult("triple-extraction-covariance", resid, 1e-9,
                           f"reassembly basis-independent "
                           f"(triples move by {changed:.2f})"))
    return out


# ---------------------------------------------------------------------------
# three-form analysis
# ---------------------------------------------------------------------------


def table1_prefix_free_residual(b: AltForm, s: QuatStructure) -> float:
    """Residual of the prefix-free reading of the "KH + ES3H" row,
    L(b) = 3b + 12 sum_A xi_{b;A} ^ w_A, printed beside the reading that
    table1_residuals uses; members of the row do not satisfy it."""
    xi = TF.xi_maps(s) @ b.coeffs
    m = sum(wedge_op(s.omega[a], 1)(xi[k + 1]) for k, a in enumerate(AXES))
    return float(np.linalg.norm(s.L_map(b).coeffs - 3 * b.coeffs - 12 * m))


def check_threeforms(s: QuatStructure, rng) -> list[CheckResult]:
    dim = s.dim
    out = []
    # 20 forms of one draw, as 20 _rand_form calls draw them
    b = rng.standard_normal((20, s.tab.nforms(3)))
    back = s.tab.contraction(4)(TF.hat_rows(b, s).reshape(20, -1))
    out.append(CheckResult("contraction-right-inverse", _worst(back - b, b),
                           1e-9, "d* o hat-d* = id on 20 forms"))

    b = _rand_form(rng, dim, 3)
    h = TF.hat_dstar(b, s)
    out.append(CheckResult("right-inverse-lands-in-torsion-space",
                           T._w_project(h, s)[1], 1e-8))

    expected = {lab: PR.COMPONENT_DIMS[PR.ComponentLabel(lab)](s.n)
                for lab in ("KH", "EH", "L3ES3H", "ES3H")}
    # the matrices of the parts as proj3_parts applies them
    mats = dict(zip(("KH", "EH", "ES3H", "L3ES3H"), np.moveaxis(
        TF.proj3_parts(np.eye(s.tab.nforms(3)), s), 0, -1)))
    worst = 0.0
    detail = []
    for lab, want in expected.items():
        tr = float(np.trace(mats[lab]))
        worst = max(worst, abs(tr - want))
        detail.append(f"{lab}={tr:.0f}")
    tr = float(np.trace(mats["EH"] + mats["ES3H"]))
    worst = max(worst, abs(tr - 12 * s.n))
    out.append(CheckResult("threeform-projector-traces", worst, 1e-6,
                           ", ".join(detail) + f", EHS3H={tr:.0f}"))

    worst = max(float(np.abs(P @ P - P).max()) for P in mats.values())
    for x, y in itertools.combinations(mats, 2):
        worst = max(worst, float(np.abs(mats[x] @ mats[y]).max()))
    I3 = np.eye(s.tab.nforms(3))
    worst = max(worst, float(np.abs(sum(mats.values()) - I3).max()))
    # the basis the profile reads: orthonormal, its blocks spanning the
    # pieces, U_X U_X^T = P_X
    U, sizes = TF.piece_basis(s)
    worst = max(worst, float(np.abs(U.T @ U - I3).max()), *(
        float(np.abs(Ux @ Ux.T - P).max()) for Ux, P in zip(
            np.split(U, np.cumsum(sizes)[:-1], axis=1), mats.values())))
    out.append(CheckResult("threeform-projector-algebra", worst, 1e-9,
                           "idempotent, orthogonal, complete; "
                           "the piece basis spans them"))

    if s.n == 2:
        resid = float(np.linalg.norm(mats["L3ES3H"]))
        out.append(CheckResult("l3es3h-vanishes-dim8", resid, 1e-10))

    # membership rows against projector membership
    worst_member = 0.0
    worst_reject = 1.0
    b = _rand_form(rng, dim, 3)
    parts = {lab: TF.proj3(b, lab, s)
             for lab in ("KH", "EH", "L3ES3H", "ES3H")}
    for row_id, comps in TF.TABLE1_COMPONENTS.items():
        # summed in the order of parts: a frozenset's follows the str hash
        member = sum((parts[lab] for lab in parts if lab in comps),
                     AltForm.zero(dim, 3))
        if member.norm() < 1e-12:
            continue
        worst_member = max(worst_member,
                           max(TF.table1_residuals(member, row_id, s))
                           / member.norm())
        outside = [lab for lab in parts
                   if lab not in comps and parts[lab].norm() > 1e-8]
        if outside and row_id != "full":
            nm = member + parts[outside[0]]
            worst_reject = min(worst_reject,
                               max(TF.table1_residuals(nm, row_id, s))
                               / nm.norm())
    out.append(CheckResult("membership-rows-members", worst_member, 1e-9,
                           "all subspace rows on projected members"))
    out.append(CheckResult("membership-rows-reject",
                           _inverse(1e-3, worst_reject),
                           1.0, f"smallest non-member residual "
                           f"{worst_reject:.2e}"))

    mix = parts["KH"] + parts["ES3H"]
    with_prefix = max(TF.table1_residuals(mix, "KH+E.S3H", s)) / mix.norm()
    without = table1_prefix_free_residual(mix, s) / mix.norm()
    out.append(CheckResult("membership-es3h-prefix-reading", with_prefix,
                           1e-9, f"prefix-free variant residual {without:.2f}"))

    q = random_rotation(rng)
    s2 = rotate_adapted(q, s)
    worst = float(np.abs(TF.xi_maps(s2)[0] @ b.coeffs
                         - TF.xi_maps(s)[0] @ b.coeffs).max())
    out.append(CheckResult("xi-rotation-invariance", worst, 1e-10))
    return out


# ---------------------------------------------------------------------------
# irreducible components of the torsion space
# ---------------------------------------------------------------------------


def dstar_on_W(s: QuatStructure) -> np.ndarray:
    """The contraction d* as a matrix (N3 x dim*r) on W coordinates: entry
    (t, (y, j)) is -(e_y hook Q[:, j])[t]."""
    Q = T.fiber_basis_matrix(s)
    H = s.tab.hook(4)(Q.T).reshape(Q.shape[1], s.dim, -1)
    return -H.transpose(2, 1, 0).reshape(s.tab.nforms(3), -1)


def split_identity(s: QuatStructure, dst: np.ndarray):
    """split_coords and lcal_hpart applied to the identity on W coordinates
    in row blocks, so no dim*r x dim*r matrix is formed: yields, per block
    of rows e_i .. e_(i+k-1), the traces the block adds (a dict over the
    six components and "hpart", the H half (Lcal + 2)/6) and its parts
    (k, dim*r).  dst is dstar_on_W(s)."""
    D = dst.shape[1]
    # 64 rows a block: as fast as 128 at n = 3 and 7% slower at n = 4, with
    # about half the transient memory (7 MB at n = 3)
    block = 64
    for i in range(0, D, block):
        E = np.eye(min(block, D - i), D, i)     # rows e_i .. e_(i+block-1)
        C = E.reshape(len(E), s.dim, -1)
        parts = PR.split_coords(C, dst[:, i:i + len(E)].T, s)
        parts["hpart"] = PR.lcal_hpart(C, s)
        parts = {X: c.reshape(len(E), D) for X, c in parts.items()}
        yield {X: float(np.trace(c, i)) for X, c in parts.items()}, parts


def component_traces(s: QuatStructure, dst: np.ndarray) -> dict:
    """Exact traces of the six component projectors and of the H half, from
    split_identity."""
    traces = dict.fromkeys([*PR.ComponentLabel, "hpart"], 0.0)
    for tr, _ in split_identity(s, dst):
        for X, t in tr.items():
            traces[X] += t
    return traces


def paper_components(a: MixedTorsion, s: QuatStructure) -> dict:
    """The six components by the paper's route on full rows: hat_dstar of
    the proj3 parts of d* a for the four visible ones, and the eigen-split of
    Lcal for the two invisible ones."""
    ds = contract12(a)
    out = {X: TF.hat_dstar(TF.proj3(ds, X.value, s), s) for X in PR.VISIBLE}
    La = s.lcal_raw(a)
    hpart = (La + 2.0 * a) * (1.0 / 6.0)
    s3hpart = (4.0 * a - La) * (1.0 / 6.0)
    L, K, E = PR.ComponentLabel.L3EH, PR.ComponentLabel.KH, PR.ComponentLabel.EH
    l, k, e = (PR.ComponentLabel.L3ES3H, PR.ComponentLabel.KS3H,
               PR.ComponentLabel.ES3H)
    out[L] = hpart - out[K] - out[E]
    out[k] = s3hpart - out[e] - out[l]
    return out


def check_components(s: QuatStructure, rng) -> list[CheckResult]:
    out = []
    labs = list(PR.ComponentLabel)
    # the six parts of an orthonormal stack of W coordinates, drawn from a
    # child of rng (rng's own stream is left as it is), and the six parts
    # of each part in turn, P_Y P_X V against delta_XY P_X V; residuals are
    # the largest norm over the stack
    dst = dstar_on_W(s)
    V = np.linalg.qr(rng.spawn(1)[0].standard_normal((dst.shape[1], 32)))[0].T

    def split(rows):
        parts = PR.split_coords(rows.reshape(len(rows), s.dim, -1),
                                rows @ dst.T, s)
        return [parts[X].reshape(rows.shape) for X in labs]

    parts = split(V)
    worst = float(np.linalg.norm(sum(parts) - V, axis=-1).max())
    for X, P in zip(labs, parts):
        for Y, PYP in zip(labs, split(P)):
            worst = max(worst, float(np.linalg.norm(
                PYP - P if Y == X else PYP, axis=-1).max()))
    out.append(CheckResult("component-projector-algebra", worst, 1e-8,
                           "idempotent, orthogonal, complete on W"))

    # the traces, and the Gram matrix G = dvis^T dvis (N3 x N3) of the rows
    # dvis = d* P_vis e_i (dim*r x N3), P_vis the projector onto the four
    # visible components, each block's rows added into G so dvis is not held
    traces = dict.fromkeys([*PR.ComponentLabel, "hpart"], 0.0)
    gram = np.zeros((len(dst), len(dst)))
    for tr, block in split_identity(s, dst):
        for X, t in tr.items():
            traces[X] += t
        dvis = sum(block[X] for X in PR.VISIBLE) @ dst.T
        gram += dvis.T @ dvis
    worst = 0.0
    detail = []
    for X in labs:
        want = PR.COMPONENT_DIMS[X](s.n)
        worst = max(worst, abs(traces[X] - want))
        detail.append(f"{X.value}={round(traces[X])}")
    out.append(CheckResult("component-traces", worst, 1e-6,
                           ", ".join(detail)))

    want_h = sum(PR.COMPONENT_DIMS[X](s.n) for X in
                 (PR.ComponentLabel.L3EH, PR.ComponentLabel.KH,
                  PR.ComponentLabel.EH))
    # the S3H half is the identity minus the H half, so its trace is D - tr H
    tr_h = traces["hpart"]
    worst = max(abs(tr_h - want_h), abs(dst.shape[1] - tr_h - 2 * want_h))
    out.append(CheckResult("eigen-split-traces", worst, 1e-6,
                           f"{want_h} / {2 * want_h}"))

    # the primitives of the profile: HAT_W is c_X times an isometry on each
    # visible piece of Lambda^3 (all its singular values there are c_X), so
    # B = HAT_W U has B^T B = blockdiag(c_X^2 I) on the blocks of U
    core = PR._w_core(s)
    G, worst = core["B"].T @ core["B"], 0.0
    for b, c in zip(core["blocks"], core["c"]):
        if b.stop > b.start:
            G[b, b] -= c * c * np.eye(b.stop - b.start)
            worst = max(worst, float(np.abs(G[b]).max()) / c**2)
    out.append(CheckResult("hat-isometry", worst, 1e-12, "c_X " + ", ".join(
        f"{X.value}={c:.6f}" for X, c in zip(PR.VISIBLE, core["c"]))))

    a = T.random_W_element(s, 40_000)
    comps = PR.components(a, s, check=False)
    worst = float(np.linalg.norm(
        (sum(comps.values(), MixedTorsion.zero(s.dim)) - a).rows))
    for X in (PR.ComponentLabel.L3EH, PR.ComponentLabel.KS3H):
        worst = max(worst, contract12(comps[X]).norm())
    worst /= max(a.norm(), 1e-300)
    out.append(CheckResult("contraction-kernel", worst, 1e-10,
                           "d* kills the two invisible components"))

    # the paper's route: hat_dstar of the proj3 parts and the Lcal halves
    paper = paper_components(a, s)
    worst = max(float(np.linalg.norm((paper[X] - comps[X]).rows))
                for X in labs) / max(a.norm(), 1e-300)
    out.append(CheckResult("paper-route", worst, 1e-9,
                           "components against paper_components"))

    # smallest singular value of d* on the span of the four visible ones:
    # d* P_vis has those of d* on that span, rank P_vis of them nonzero, and
    # they are the square roots of the eigenvalues of its Gram matrix (at
    # most N3 of them, whatever traces a broken split reads)
    rank = min(round(sum(traces[X] for X in PR.VISIBLE)), len(gram))
    sv = float(np.sqrt(max(np.linalg.eigvalsh(gram)[-rank], 0.0)))
    out.append(CheckResult("contraction-injective-on-visible",
                           _inverse(1e-6, sv), 1.0,
                           f"smallest singular value {sv:.3f}"))

    # pure-type contraction identities
    aK = comps[PR.ComponentLabel.KH]
    ds = contract12(aK)
    resid = float(np.linalg.norm(
        (TF.torsion_embed(ds, s) * (1.0 / 6.0) - aK).rows))
    xi = TF.xi_maps(s) @ ds.coeffs
    resid = max(resid, float(np.linalg.norm(xi[0])),
                float(np.linalg.norm(xi[1] - xi[2])),
                float(np.linalg.norm(xi[2] - xi[3])))
    out.append(CheckResult("pure-type-contraction-formula",
                           resid / max(aK.norm(), 1e-300), 1e-9,
                           "rows recovered from d* on the KH part"))

    if s.n >= 3:
        aM = (comps[PR.ComponentLabel.L3EH]
              + comps[PR.ComponentLabel.L3ES3H])
        ds = contract12(aM)
        lhs = s.lcal_raw(aM)
        rhs = MixedTorsion(s.dim, 4 * aM.rows + TF.torsion_embed(ds, s).rows)
        resid = (float(np.linalg.norm((lhs - rhs).rows))
                 + float(np.linalg.norm(TF.xi_maps(s)[0] @ ds.coeffs)))
        out.append(CheckResult("mixed-eigen-contraction-formula",
                               resid / max(aM.norm(), 1e-300), 1e-9,
                               "Lcal = 4 + embed(d*) on the L3E parts"))

    # the profiles of 50 elements from one stack through component_norms
    a = np.stack([T.random_W_element(s, 41_000 + k).rows for k in range(50)])
    ds = s.tab.contraction(4)(a.reshape(50, -1))
    norms = PR.component_norms(a @ T.fiber_basis_matrix(s), ds, s)
    total = _norms(a)
    worst = max(PR.ComponentProfile({X: v[k] for X, v in norms.items()},
                                    total[k]).pythagoras_residual
                for k in range(50))
    out.append(CheckResult("profile-pythagoras", worst, 1e-8,
                           "50 random elements"))

    a = T.random_W_element(s, 42_000)
    p0 = PR.profile(a, s)
    q = random_rotation(rng)
    s2 = rotate_adapted(q, s)
    p1 = PR.profile(a, s2)
    worst = max(abs(p0.norms[X] - p1.norms[X]) for X in labs)
    out.append(CheckResult("profile-rotation-invariance", worst, 1e-8))
    return out


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def _mixtures(comps: list, outside: list) -> list:
    """(components, member): a row's own components, then, if there is one,
    them and its first outside component."""
    return [(comps, True)] + [(comps + outside[:1], False)] * bool(outside)


def _row_sweep(s: QuatStructure, rows, pools: list, columns: tuple):
    """(member, results) for each row, on one stack of the row's mixtures
    (_mixtures) from every pool, of the row's components of nonzero
    dimension: member flags the members, and per column of columns (col2,
    col3 or table3) come the direct-route RowResult and its gaps to the
    report's Schur forms at the mixtures' component norms, both read on one
    context.  Every field is linear in the tensor, so the contexts are made
    once, in one call on the components of nonzero dimension of all the
    pools (ctx_from_torsion for col2, ctx_from_derived for col3 and table3;
    their sparse maps bound their own memory on the stack), and a row's
    context is their mix by the 0/1 selection sel (mixtures x components)
    pool by pool, one product that skips the zero blocks between pools.
    Its scale and profile are read from the W coordinates of the mixtures
    and of their components, pool-major."""
    table, labels = schur_table(s), list(PR.ComponentLabel)
    labs = [X for X in labels if PR.COMPONENT_DIMS[X](s.n)]
    own = [labels.index(X) for X in labs]
    C = np.stack([[T.w_coords(pool[X], s) for X in labs]
                  for pool in pools])
    sizes = np.linalg.norm(C, axis=(-2, -1))                # pools x labs
    flat = C.reshape(*sizes.shape, -1)

    def coeffs(form):
        return np.stack([form(pool[X]).coeffs for pool in pools for X in labs])

    ctxs = {}
    if "col2" in columns:
        ctxs["col2"] = ctx_from_torsion(C.reshape(sizes.size, *C.shape[-2:]),
                                        coeffs(contract12), s, sizes.ravel())
    if {"col3", "table3"} & set(columns):
        ctxs["col3"] = ctxs["table3"] = ctx_from_derived(
            coeffs(alternate5), s, sizes.ravel())
    for row in rows:
        comps = [X for X in labs if X in row.components]
        outside = [X for X in labs if X not in row.components]
        if not comps:
            continue
        mixtures = _mixtures(comps, outside)
        sel = np.array([[X in t for X in labs] for t, _ in mixtures], float)
        # the row's mixtures of each pool in turn
        S = np.broadcast_to(sel, (len(pools), *sel.shape))
        profile = np.zeros((len(pools) * len(sel), len(labels)))
        profile[:, own] = (sel * sizes[:, None]).reshape(len(profile), -1)
        scale = np.linalg.norm(S @ flat, axis=-1).ravel()
        results = []
        for column in columns:
            ctx = ctxs[column].mix(S, scale)
            rr = RowResult.evaluate(
                row, row.col2 if column == "col2" else row.col3, ctx)
            ctx.profile = profile
            got = table.evaluate(column, row, ctx).residuals
            results.append((rr, np.abs(np.subtract(got, rr.residuals))
                            .max(axis=0) / rr.scale))
        yield np.tile([member for _, member in mixtures], len(pools)), results


def _member_checks(name: str, sweep: list, detail: str) -> list[CheckResult]:
    """name-members and name-reject of a one-column sweep: the largest member
    residual, and the smallest non-member one against 1e-3."""
    member = max((float(rr.value[ok].max(initial=0.0))
                  for ok, [(rr, _)] in sweep), default=0.0)
    reject = min((float(rr.value[~ok].min(initial=np.inf))
                  for ok, [(rr, _)] in sweep), default=np.inf)
    return [CheckResult(f"{name}-members", member, 1e-8, detail),
            CheckResult(f"{name}-reject", _inverse(1e-3, reject), 1.0,
                        f"smallest non-member residual {reject:.2e}")]


def check_classifier(s: QuatStructure, rng) -> list[CheckResult]:
    out = []
    labs = [X for X in PR.ComponentLabel if PR.COMPONENT_DIMS[X](s.n) > 0]
    pool = PR.components(T.random_W_element(s, 50_000), s, check=False)

    wrong = 0
    count = 0
    for rsize in range(1, len(labs) + 1):
        for sub in itertools.combinations(labs, rsize):
            a = MixedTorsion.zero(s.dim)
            for X in sub:
                a = a + pool[X]
            count += 1
            if (classification_report(a, s)["key"]
                    != ClassLabel(frozenset(sub)).key):
                wrong += 1
    out.append(CheckResult("classification-round-trip", float(wrong),
                           0.5, f"{count - wrong}/{count} subsets"))

    # the direct route on the mixtures of each row: column 2 on those of
    # every row, column 3 or Table 3 on those of its checks; schur-row-forms
    # is the largest gap of the report's Schur forms to it
    rows = table2_rows(s)
    sweep = list(_row_sweep(s, rows, [pool], ("col2",)))
    out += _member_checks("class-conditions", sweep,
                          "all rows, covariant column")

    if s.n >= 3:
        singles = [row for row in rows if len(row.components) == 1]
        composites = [row for row in rows if 2 <= len(row.components) <= 4]
        ppools = [PR.components(T.random_W_element(s, 51_000 + k), s,
                                check=False) for k in range(10)]
        both = list(_row_sweep(s, singles + composites[:12], ppools,
                               ("col2", "col3")))
        # a member passes both columns, a non-member fails both
        agree = []
        for member, res in both:
            v = np.array([rr.value for rr, _ in res])   # column x mixture
            agree.append(np.where(member, v.max(axis=0) <= 1e-8,
                                  v.min(axis=0) > 1e-3))
        agree = np.concatenate(agree)
        out.append(CheckResult(
            "column-agreement", float(len(agree) - agree.sum()), 0.5,
            f"{agree.sum()}/{len(agree)} verdicts agree"))
        sweep += both
    else:
        part = list(_row_sweep(s, table3_rows(s), [pool], ("table3",)))
        out += _member_checks("partial-table", part, "8 rows via the 5-form")
        sweep += part
    out.append(CheckResult(
        "schur-row-forms",
        max(float(g.max()) for _, res in sweep for _, g in res), 1e-12,
        "report rows against the direct route on the mixtures above, "
        + ("columns 2 and 3" if s.n >= 3 else "column 2 and Table 3")))
    out += check_schur_table(s, schur_table(s), pool)

    # alternation identities
    a = T.random_W_element(s, 52_000)
    dOm = alternate5(a)
    lhs = alternate5(s.lcal_raw(a)).coeffs + 2 * dOm.coeffs
    rhs = s.L_apply(5, dOm.coeffs)
    r1 = float(np.linalg.norm(lhs - rhs)) / max(np.linalg.norm(rhs), 1e-300)
    z = rng.standard_normal(s.dim)
    Rz = MixedTorsion.from_flat(s.dim, TF.r_matrix(s) @ z)
    r2 = float(np.linalg.norm(alternate5(Rz).coeffs
                              - 4.0 * wedge1(z, s.Omega).coeffs))
    b = _rand_form(rng, s.dim, 3)
    r3 = float(np.linalg.norm(
        alternate5(TF.torsion_embed(b, s)).coeffs
        - 2.0 * ae(s, b.coeffs))) / max(b.norm(), 1e-300)
    out.append(CheckResult("alternation-identities", max(r1, r2, r3), 1e-9,
                           "the three conversion identities"))

    # Hodge factors (outer star read as the inverse star), on a stack of
    # 10 samples (z_I, z_J, z_K, z_0), each map one sparse product built once
    k1, k2, dim, vol = s.k1, s.k2, s.dim, s.vol_coeff
    star3, star5 = hodge_op(dim, 3, vol), hodge_op(dim, 5, vol)
    star_inv = hodge_op(dim, 1, vol).T
    w = {(ax, p): wedge_op(s.omega[ax], p)
         for ax in AXES for p in (1, 3, dim - 5, dim - 3)}
    Z = rng.standard_normal((10, 4, dim))

    def worst(got, want):
        return float((np.linalg.norm(got - want, axis=-1)
                      / np.linalg.norm(want, axis=-1)).max())

    z0 = Z[:, 3]
    worst_estre = worst(star_inv(wedge_op(s.Omega, dim - 5)(
        star5(wedge_op(s.Omega, 1)(z0)))), 12 * k1 * k2 * z0)
    Az = np.stack([Z[:, k] @ s.mats[ax].T for k, ax in enumerate(AXES)], 1)
    three = sum(w[ax, 1](Az[:, k]) for k, ax in enumerate(AXES))
    # sum_B star(i_B(three) ^ w_B), i_B = -D_B
    D = s.deriv_op(3)(three).reshape(10, 3, -1)
    acc5 = star5(-sum(w[ax, 3](D[:, k]) for k, ax in enumerate(AXES)))
    star_three, worst_estre1, worst_astff = star3(three), 0.0, 0.0
    for k, ax in enumerate(AXES):
        worst_estre1 = max(worst_estre1, worst(
            star_inv(w[ax, dim - 3](star_three)),
            2 * k1 * Az[:, k] + Z[:, :3].sum(axis=1) @ s.mats[ax].T))
        worst_astff = max(worst_astff, worst(
            star_inv(w[ax, dim - 3](w[ax, dim - 5](acc5))),
            -4 * k1 * k2 * Z[:, k]))
    out.append(CheckResult("hodge-factor-single-wedge", worst_estre, 1e-9,
                           f"factor {12 * k1 * k2}"))
    out.append(CheckResult("hodge-factor-insertion-wedge", worst_astff, 1e-9,
                           f"factor {-4 * k1 * k2}"))
    out.append(CheckResult("hodge-triple-wedge-corrected", worst_estre1, 1e-9,
                           "2 k1 A zeta_A + A sum zeta"))

    # the Hodge formulas of ctx_from_derived and the wedge identities that
    # threeform.wedge_norms reads, one star and wedge at a time
    d = ctx_from_derived(dOm.coeffs, s, a.norm())
    ds, xi, sd = contract12(a), d.xi, s.star(AltForm(s.dim, 3, d.dstar))
    ref, s5 = TF.xi_maps(s) @ ds.coeffs, s.star(dOm)
    pairs = [(d.dstar, ds.coeffs),
             (-s.star_inv(wedge(s5, s.Omega)).coeffs / (12 * s.k2), ref[0])]
    pairs += [(s.star(wedge(sd, s.omega[ax])).coeffs,
               s.mats[ax] @ (4 * s.k1 * xi[k + 1] + 6 * xi[0]))
              for k, ax in enumerate(AXES)]
    pairs += [(s.star_inv(wedge(wedge(s5, s.omega[ax]), s.omega[ax])).coeffs,
               -12 * ref[0] - 8 * s.k1 * ref[k + 1])
              for k, ax in enumerate(AXES)]
    resid = max(float(np.linalg.norm(got - want))
                / max(np.linalg.norm(want), 1e-300) for got, want in pairs)
    out.append(CheckResult("exterior-derivative-recovery", resid, 1e-8,
                           "d* and xi from the 5-form, "
                           "star(star(d*) ^ w_A) from xi, xi_A, "
                           "star(dOm) ^ w_A ^ w_A = -12 xi - 8 k1 xi_A"))

    # wedge criteria against projector verdicts
    comps, ok = PR.components(a, s, check=False), True
    E, e = PR.ComponentLabel.EH, PR.ComponentLabel.ES3H
    # dropped components -> (EH_zero, ES3H_zero, EHS3H_zero)
    for drop, expect in (((), (0, 0, 0)), ((E,), (1, 0, 0)),
                         ((e,), (0, 1, 0)), ((E, e), (1, 1, 1))):
        t = sum((c for X, c in comps.items() if X not in drop),
                MixedTorsion.zero(s.dim))
        wc = wedge_criteria(alternate5(t), s)
        ok = ok and tuple(wc.values()) == expect
    out.append(CheckResult("wedge-criteria-agreement", 0.0 if ok else 1.0,
                           0.5))

    # 5-form perpendicularity test against a built orthogonal complement
    phi = _rand_form(rng, s.dim, 5)
    # w_A ^ w_B = w_B ^ w_A, so the pairs A <= B span the family
    Mfam = np.concatenate([
        w[bx, 3](w[ax, 1](np.eye(dim)))
        for ax, bx in itertools.combinations_with_replacement(AXES, 2)]).T
    U, sv, _ = np.linalg.svd(Mfam, full_matrices=False)
    proj = U[:, sv > sv[0] * 1e-10]
    perp = AltForm(s.dim, 5, phi.coeffs - proj @ (proj.T @ phi.coeffs))
    ok = (perp_EH5_test(perp, s)
          and not perp_EH5_test(
              AltForm(s.dim, 5,
                      wedge(wedge1(rng.standard_normal(s.dim),
                                   s.omega["I"]), s.omega["J"]).coeffs), s))
    out.append(CheckResult("perp-five-form-test", 0.0 if ok else 1.0, 0.5))
    return out


def swann_alpha2(n: int) -> tuple:
    """alpha_X^2 = |alternate5(a_X)|^2 / |a_X|^2, in ComponentLabel order."""
    return ((n + 1) / n, (2 * n - 1) / (2 * n), 2.0,
            5 * (2 * n - 1) / (4 * n), (n - 2) / (4 * n), 5 / 4)


def check_schur_table(s: QuatStructure, table, pool: dict) -> list[CheckResult]:
    """The constants the report reads.  table2-pattern: each row, in each
    column the report reads, vanishes on its own components (to 1e-12) and
    not on any other, read on the components of pool of nonzero dimension.
    swann-alternation: alpha_X^2 against swann_alpha2, so the alternation
    kills KS3H alone at n = 2 and is injective on W for n >= 3."""
    labels = list(PR.ComponentLabel)
    columns = [("col2", table2_rows(s)), ("col3", table2_rows(s))
               if s.n >= 3 else ("table3", table3_rows(s))]
    labs = [X for X in labels if PR.COMPONENT_DIMS[X](s.n)]
    size = np.array([pool[X].norm() for X in labs])
    ctx = TF._Ctx(s, size, np.stack([contract12(pool[X]).coeffs
                                     for X in labs]))
    ctx.profile = np.array([[x if Y is X else 0.0 for Y in labels]
                            for X, x in zip(labs, size)])
    own, outside, pairs = 0.0, np.inf, 0
    for column, rows in columns:
        for row, conds in zip(rows, getattr(table, column)):
            v = RowResult.evaluate(row, conds, ctx).value
            mine = np.array([X in row.components for X in labs])
            own = max(own, float(v[mine].max(initial=0.0)))
            outside = min(outside, float(v[~mine].min(initial=np.inf)))
            pairs += len(labs)
    alpha2 = {X: (a * a, want) for X, a, want in
              zip(labels, table.alpha, swann_alpha2(s.n)) if X in labs}
    return [CheckResult(
        "table2-pattern", max(own / 1e-12, _inverse(1e-3, outside)), 1.0,
        f"{pairs} (row, component) pairs in {', '.join(c for c, _ in columns)}"
        f": own components {own:.1e} (tol 1e-12), others >= {outside:.3f} "
        "(tol 1e-3)"),
        CheckResult("swann-alternation",
                    max(abs(a2 - want) for a2, want in alpha2.values()), 1e-12,
                    ", ".join(f"{X.value}={a2:.6f}"
                              for X, (a2, _) in alpha2.items()))]


# ---------------------------------------------------------------------------
# Lie pipeline
# ---------------------------------------------------------------------------


def check_lie(s: QuatStructure, rng) -> list[CheckResult]:
    out = []
    g0 = LA.MetricLieAlgebra(s, np.zeros((s.dim,) * 3))
    rep = LA.classify_algebra(g0)
    ok = rep["key"] == "QK"
    out.append(CheckResult("abelian-is-integrable", 0.0 if ok else 1.0, 0.5))

    # (check id, tol) of each classify_algebra check of LA.PIPELINE_CHECKS
    ids = {"alternation_vs_differential": ("alternation", 1e-9),
           "gray_identity": ("gray-identity", 1e-10),
           "nijenhuis_trace": ("nijenhuis-trace", 1e-12),
           "codifferential_pairwise": ("codifferential-routes", 1e-9),
           "product_rule": ("product-rule", 1e-9)}
    worst = dict.fromkeys(ids, 0.0)
    fixed = displayed = identity = xi_gap = 0.0
    for seed in (0, 1, 2):
        g = LA.MetricLieAlgebra(s, LA.two_step_nilpotent(s.n, seed).c)
        rep = LA.classify_algebra(g)
        for k in LA.PIPELINE_CHECKS:
            worst[k] = max(worst[k], rep["checks"][k])
        # codifferential-routes: the pairs of all four routes
        cod = LA.codiff_Omega(g)
        worst["codifferential_pairwise"] = max(
            worst["codifferential_pairwise"],
            *cod["report"]["pairwise"].values())
        identity = max(identity,
                       *cod["report"]["two_form_codiff_identity"].values())
        # star_inv(star dOmega ^ w_A ^ w_A) against -12 xi - 8 k1 xi_A, with
        # xi, xi_A those of d*Omega = C12(nabla Omega), and against the
        # displayed reading 2 <A . hook d w_A, w_A>; xi against the Hodge
        # formula -star_inv(star dOmega ^ Omega) / (12 k2)
        ds = cod["value"]
        xi, s5 = TF.xi_maps(s) @ ds.coeffs, s.star(LA.ce_d(g, s.Omega))
        xi_gap = max(xi_gap, float(np.linalg.norm(
            s.star_inv(wedge(s5, s.Omega)).coeffs / (-12 * s.k2) - xi[0]))
            / ds.norm())
        for k, (ax, dw) in enumerate(zip(AXES, LA.d_omegas(g))):
            A = s.mats[ax]
            wAA = s.star_inv(wedge(wedge(s5, s.omega[ax]), s.omega[ax])).coeffs
            shown = -A @ np.einsum("yrs,rs->y", dw, A)
            fixed = max(fixed, float(np.abs(-12 * xi[0] - 8 * s.k1 * xi[k + 1]
                                            - wAA).max()) / ds.norm())
            displayed = max(displayed,
                            float(np.abs(shown - wAA).max()) / ds.norm())
    out += [CheckResult(f"pipeline-{name}", worst[k], tol,
                        "" if i else "3 nilpotent algebras")
            for i, (k, (name, tol)) in enumerate(ids.items())]
    out.append(CheckResult("wedge-trace-reading", fixed, 1e-9,
                           f"displayed reading 2 <A. hook dw_A, w_A> "
                           f"residual {displayed:.2e}"))
    out.append(CheckResult("two-form-codiff-identity", identity, 1e-10,
                           "A d* w_A = -<. hook d w_A, w_A>, every axis"))
    out.append(CheckResult("xi-hodge-vs-contraction", xi_gap, 1e-8,
                           "xi of C12(nabla Omega) against "
                           "-star_inv(star dOmega ^ Omega) / (12(2n+1))"))

    # injected-torsion synthetic round trip: build nabla w_A from a chosen
    # torsion tensor and confirm the assembly path reproduces it
    a = T.random_W_element(s, 60_000)
    cA = T.extract_cA(a, s)
    assembled = T.reassemble(cA, s)
    resid = float(np.linalg.norm((assembled - a).rows)) / max(a.norm(), 1e-300)
    out.append(CheckResult("synthetic-torsion-round-trip", resid, 1e-9))
    return out


SECTIONS = (
    ("exterior", check_exterior),
    ("operators", check_operators),
    ("torsion-space", check_torsion_space),
    ("three-forms", check_threeforms),
    ("components", check_components),
    ("classifier", check_classifier),
    ("lie-pipeline", check_lie),
)


def run_suite(n: int, seed: int,
              sections: tuple = None) -> list[CheckResult]:
    if n not in range(2, MAX_N + 1):
        raise ValueError("the verification suite runs at n = " + ", ".join(
            map(str, range(2, MAX_N))) + f" or {MAX_N}")
    if unknown := sorted({str(x) for x in sections or () if not (
            isinstance(x, str) and x in dict(SECTIONS))}):
        raise ValueError(f"unknown verify sections: {', '.join(unknown)}")
    s = standard_structure(n)
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in SECTIONS:
        if sections and name not in sections:
            continue
        try:
            rows = fn(s, rng)
        except Exception as exc:
            # a check that cannot finish has failed, whatever it raised
            raise LA.VerificationError(
                f"verify section {name} aborted: {type(exc).__name__}: "
                f"{exc}") from exc
        for row in rows:
            row.check = f"{name}/{row.check}"
        results.extend(rows)
    return results
