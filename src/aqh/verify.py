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
    inner,
    interior,
    wedge,
    wedge1,
    wedge_op,
    wedge_power,
)
from .structure import (
    AXES,
    QuatStructure,
    insert,
    random_rotation,
    rotate_adapted,
    standard_structure,
)
from . import torsion as T
from . import threeform as TF
from . import projectors as PR
from . import liealg as LA
from .classify import (
    DerivedFromDOmega,
    ae,
    classify as classify_tensor,
    perp_EH5_test,
    table2_residual,
    table2_residual_dOmega,
    table2_rows,
    table3_residual,
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


# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------


def check_exterior(s: QuatStructure, rng) -> list[CheckResult]:
    dim = s.dim
    out = []
    worst = 0.0
    for p in range(0, dim + 1, 2):
        psi, phi = _rand_form(rng, dim, p), _rand_form(rng, dim, p)
        lhs = wedge(psi, s.star(phi)).coeffs[0]
        worst = max(worst, abs(lhs - inner(psi, phi) * s.vol_coeff)
                    / max(abs(lhs), 1e-300))
    for p in range(1, dim, 2):
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

    top = wedge_power(s.Omega, s.n)
    resid = abs(top.coeffs[0] - math.factorial(2 * s.n + 1))
    out.append(CheckResult(
        "volume-normalization", resid, 1e-9,
        f"Omega^n top coefficient = +(2n+1)! = {math.factorial(2*s.n+1)}"))
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

    worst = 0.0
    for _ in range(100):
        q = random_rotation(rng)
        s2 = rotate_adapted(q, s)
        worst = max(worst,
                    float(np.abs(s2.Omega.coeffs - s.Omega.coeffs).max()))
    out.append(CheckResult("fundamental-form-rotation-invariance",
                           worst, 1e-10, "100 random rotations"))
    return out


# ---------------------------------------------------------------------------
# torsion space
# ---------------------------------------------------------------------------


def check_torsion_space(s: QuatStructure, rng) -> list[CheckResult]:
    out = []
    worst_fw = worst_bw = 0.0
    for k in range(20):
        a = T.random_W_element(s, 33_000 + k)
        c = T.f_inverse_raw(a, s)
        back = T.F_map(c, s, check=False)
        worst_fw = max(worst_fw, np.linalg.norm(back.rows - a.rows)
                       / max(a.norm(), 1e-300))
        raw = np.random.default_rng(34_000 + k).standard_normal(
            (s.dim,) * 3)
        fam = T.fiber_project(
            T.MixedTwoFormFamily(s.dim, raw - raw.transpose(0, 2, 1)), s)
        c2 = T.f_inverse_raw(T.F_map(fam, s, check=False), s)
        worst_bw = max(worst_bw, np.linalg.norm(c2.mats - fam.mats)
                       / max(fam.norm(), 1e-300))
    out.append(CheckResult("embedding-round-trip", max(worst_fw, worst_bw),
                           1e-9, "F and its contraction inverse"))

    dimW = T.w_dim(s.n)
    # The singular values of the (dimW + 20) x dim*N4 sample matrix are those
    # of its R factor, built one tensor row x at a time: no 25 MB matrix at n=3.
    rows = [T.random_W_element(s, 35_000 + i).rows for i in range(dimW + 20)]
    R = np.zeros((0, len(rows)))
    for x in range(s.dim):
        R = np.linalg.qr(np.vstack([R, np.stack([r[x] for r in rows], 1)]),
                         mode="r")
    sv = np.linalg.svd(R, compute_uv=False)
    rank = int((sv > sv[0] * 1e-10).sum())
    out.append(CheckResult("torsion-space-dimension", abs(rank - dimW), 0.5,
                           f"sample rank {rank}, expected {dimW}"))

    # conjugation-sum eigenvalues on 2-forms: T c = sum_A c(A., A.)
    N2 = s.tab.nforms(2)
    pairs = np.asarray(s.tab.tuples(2))
    Tmat = np.zeros((N2, N2))
    for col in range(N2):
        M = np.zeros((s.dim, s.dim))
        i, j = pairs[col]
        M[i, j], M[j, i] = 1.0, -1.0
        img = sum(s.mats[ax].T @ M @ s.mats[ax] for ax in AXES)
        Tmat[:, col] = img[pairs[:, 0], pairs[:, 1]]
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
    changed = max(float(np.linalg.norm(cA2[ax].mats - cA[ax].mats))
                  for ax in AXES) / max(a.norm(), 1e-300)
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
    tri = TF.xi_triple(b, s)
    m = sum(wedge_op(s.omega[a], 1)(tri[a]) for a in AXES)
    return float(np.linalg.norm(s.L_map(b).coeffs - 3 * b.coeffs - 12 * m))


def check_threeforms(s: QuatStructure, rng) -> list[CheckResult]:
    dim = s.dim
    out = []
    worst = 0.0
    for k in range(20):
        b = _rand_form(rng, dim, 3)
        back = contract12(TF.hat_dstar(b, s))
        worst = max(worst, np.linalg.norm(back.coeffs - b.coeffs)
                    / max(b.norm(), 1e-300))
    out.append(CheckResult("contraction-right-inverse", worst, 1e-9,
                           "d* o hat-d* = id on 20 forms"))

    b = _rand_form(rng, dim, 3)
    h = TF.hat_dstar(b, s)
    ok, resid = T.is_in_W(h, s)
    out.append(CheckResult("right-inverse-lands-in-torsion-space",
                           resid, 1e-8))

    expected = {lab: PR.COMPONENT_DIMS[PR.ComponentLabel(lab)](s.n)
                for lab in ("KH", "EH", "L3ES3H", "ES3H")}
    worst = 0.0
    detail = []
    for lab, want in expected.items():
        tr = float(np.trace(TF.proj3_matrix(s, lab)))
        worst = max(worst, abs(tr - want))
        detail.append(f"{lab}={tr:.0f}")
    tr = float(np.trace(TF.proj3_matrix(s, "EHS3H")))
    worst = max(worst, abs(tr - 12 * s.n))
    out.append(CheckResult("threeform-projector-traces", worst, 1e-6,
                           ", ".join(detail) + f", EHS3H={tr:.0f}"))

    mats = {lab: TF.proj3_matrix(s, lab)
            for lab in ("KH", "EH", "L3ES3H", "ES3H")}
    worst = max(float(np.abs(P @ P - P).max()) for P in mats.values())
    for x, y in itertools.combinations(mats, 2):
        worst = max(worst, float(np.abs(mats[x] @ mats[y]).max()))
    worst = max(worst, float(np.abs(
        sum(mats.values()) - np.eye(s.tab.nforms(3))).max()))
    out.append(CheckResult("threeform-projector-algebra", worst, 1e-9,
                           "idempotent, orthogonal, complete"))

    if s.n == 2:
        resid = float(np.linalg.norm(TF.proj3_matrix(s, "L3ES3H")))
        out.append(CheckResult("l3es3h-vanishes-dim8", resid, 1e-10))

    # membership rows against projector membership
    worst_member = 0.0
    worst_reject = 1.0
    b = _rand_form(rng, dim, 3)
    parts = {lab: TF.proj3(b, lab, s)
             for lab in ("KH", "EH", "L3ES3H", "ES3H")}
    for row_id, comps in TF.TABLE1_COMPONENTS.items():
        member = AltForm.zero(dim, 3)
        for lab in comps:
            member = member + parts[lab]
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
    out.append(CheckResult("membership-rows-reject", 1e-3 / worst_reject,
                           1.0, f"smallest non-member residual "
                           f"{worst_reject:.2e}"))

    mix = parts["KH"] + parts["ES3H"]
    with_prefix = max(TF.table1_residuals(mix, "KH+E.S3H", s)) / mix.norm()
    without = table1_prefix_free_residual(mix, s) / mix.norm()
    out.append(CheckResult("membership-es3h-prefix-reading", with_prefix,
                           1e-9, f"prefix-free variant residual {without:.2f}"))

    q = random_rotation(rng)
    s2 = rotate_adapted(q, s)
    worst = float(np.abs(TF.xi(b, s2) - TF.xi(b, s)).max())
    out.append(CheckResult("xi-rotation-invariance", worst, 1e-10))
    return out


# ---------------------------------------------------------------------------
# irreducible components of the torsion space
# ---------------------------------------------------------------------------


def dstar_on_W(s: QuatStructure) -> np.ndarray:
    """The contraction d* as a matrix (N3 x dim*r) on W coordinates: each
    exp_table(4) row (u, r, t, sign) puts -sign Q[u] at (t, r)."""
    Q = T.fiber_basis_matrix(s)
    u, _m, r, t, sign = s.tab.exp_table(4)
    D = np.zeros((s.tab.nforms(3), s.dim, Q.shape[1]))
    D[t, r] = -sign[:, None] * Q[u]
    return D.reshape(len(D), -1)


def component_matrices_on_W(s: QuatStructure) -> dict:
    """Matrices (dim*r x dim*r) of the library's six component projectors
    and of the two Lcal halves, in the orthonormal W basis."""

    def build():
        D = T.w_dim(s.n)
        basis = np.eye(D).reshape(D, s.dim, -1)
        ds = dstar_on_W(s).T
        mats = {X: c.reshape(D, D).T
                for X, c in PR.split_coords(basis, ds, s).items()}
        h, s3h = PR.lcal_halves(basis, s)
        mats["hpart"] = h.reshape(D, D).T
        mats["s3hpart"] = s3h.reshape(D, D).T
        return mats

    return s.cache("component_matrices_W", build)


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
    mats = component_matrices_on_W(s)
    labs = list(PR.ComponentLabel)
    worst = max(float(np.abs(mats[X] @ mats[X] - mats[X]).max())
                for X in labs)
    for Xa, Xb in itertools.combinations(labs, 2):
        worst = max(worst, float(np.abs(mats[Xa] @ mats[Xb]).max()))
    total = sum(mats[X] for X in labs)
    worst = max(worst, float(np.abs(total - np.eye(total.shape[0])).max()))
    out.append(CheckResult("component-projector-algebra", worst, 1e-8,
                           "idempotent, orthogonal, complete on W"))

    worst = 0.0
    detail = []
    for X in labs:
        tr = float(np.trace(mats[X]))
        want = PR.COMPONENT_DIMS[X](s.n)
        worst = max(worst, abs(tr - want))
        detail.append(f"{X.value}={tr:.0f}")
    out.append(CheckResult("component-traces", worst, 1e-6,
                           ", ".join(detail)))

    want_h = sum(PR.COMPONENT_DIMS[X](s.n) for X in
                 (PR.ComponentLabel.L3EH, PR.ComponentLabel.KH,
                  PR.ComponentLabel.EH))
    worst = max(abs(float(np.trace(mats["hpart"])) - want_h),
                abs(float(np.trace(mats["s3hpart"])) - 2 * want_h))
    out.append(CheckResult("eigen-split-traces", worst, 1e-6,
                           f"{want_h} / {2 * want_h}"))

    a = T.random_W_element(s, 40_000)
    comps = PR.components(a, s, check=False)
    worst = float(np.linalg.norm(
        (sum(comps.values(), MixedTorsion.zero(s.dim)) - a).rows))
    for X in (PR.ComponentLabel.L3EH, PR.ComponentLabel.KS3H):
        worst = max(worst, contract12(comps[X]).norm())
    worst /= max(a.norm(), 1e-300)
    out.append(CheckResult("contraction-kernel", worst, 1e-10,
                           "d* kills the two invisible components"))

    # smallest singular value of d* on the span of the four visible ones
    vis = sum(mats[X] for X in PR.VISIBLE)
    ev, vec = np.linalg.eigh(0.5 * (vis + vis.T))
    basis = vec[:, ev > 0.5]
    sv = np.linalg.svd(dstar_on_W(s) @ basis, compute_uv=False)
    out.append(CheckResult("contraction-injective-on-visible",
                           1e-6 / float(sv.min()), 1.0,
                           f"smallest singular value {sv.min():.3f}"))

    # pure-type contraction identities
    aK = comps[PR.ComponentLabel.KH]
    ds = contract12(aK)
    resid = float(np.linalg.norm(
        (TF.torsion_embed(ds, s) * (1.0 / 6.0) - aK).rows))
    tri = TF.xi_triple(ds, s)
    resid = max(resid, float(np.linalg.norm(tri.xi)),
                float(np.linalg.norm(tri.xi_I - tri.xi_J)),
                float(np.linalg.norm(tri.xi_J - tri.xi_K)))
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
                 + float(np.linalg.norm(TF.xi(ds, s))))
        out.append(CheckResult("mixed-eigen-contraction-formula",
                               resid / max(aM.norm(), 1e-300), 1e-9,
                               "Lcal = 4 + embed(d*) on the L3E parts"))

    worst = 0.0
    for k in range(50):
        a = T.random_W_element(s, 41_000 + k)
        worst = max(worst, PR.profile(a, s, check=False).pythagoras_residual)
    out.append(CheckResult("profile-pythagoras", worst, 1e-8,
                           "50 random elements"))

    a = T.random_W_element(s, 42_000)
    p0 = PR.profile(a, s, check=False)
    q = random_rotation(rng)
    s2 = rotate_adapted(q, s)
    p1 = PR.profile(a, s2, check=False)
    worst = max(abs(p0.norms[X] - p1.norms[X]) for X in labs)
    out.append(CheckResult("profile-rotation-invariance", worst, 1e-8))
    return out


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


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
            lab, _ = classify_tensor(a, s)
            count += 1
            if lab.components != frozenset(sub):
                wrong += 1
    out.append(CheckResult("classification-round-trip", float(wrong),
                           0.5, f"{count - wrong}/{count} subsets"))

    worst_member = 0.0
    worst_reject = np.inf
    rows = table2_rows(s)
    for row in rows:
        comps = frozenset(X for X in row.components
                          if PR.COMPONENT_DIMS[X](s.n) > 0)
        if not comps:
            continue
        m = MixedTorsion.zero(s.dim)
        for X in comps:
            m = m + pool[X]
        worst_member = max(worst_member,
                           table2_residual(m, s, row).value)
        outside = [X for X in labs if X not in row.components]
        if outside:
            nm = m + pool[outside[0]]
            worst_reject = min(worst_reject,
                               table2_residual(nm, s, row).value)
    out.append(CheckResult("class-conditions-members", worst_member, 1e-8,
                           "all rows, covariant column"))
    out.append(CheckResult("class-conditions-reject",
                           1e-3 / worst_reject, 1.0,
                           f"smallest non-member residual {worst_reject:.2e}"))

    if s.n >= 3:
        agree = 0
        total = 0
        singles = [row for row in rows if len(row.components) == 1]
        composites = [row for row in rows if 2 <= len(row.components) <= 4]
        for row in singles + composites[:12]:
            for k in range(10):
                m = MixedTorsion.zero(s.dim)
                ppool = PR.components(
                    T.random_W_element(s, 51_000 + k), s, check=False)
                for X in row.components:
                    m = m + ppool[X]
                v2 = table2_residual(m, s, row).value <= 1e-8
                d = DerivedFromDOmega.from_torsion(m, s)
                v3 = table2_residual_dOmega(d, s, row).value <= 1e-8
                agree += int(v2 == v3 and v2)
                outside = [X for X in labs if X not in row.components]
                nm = m + ppool[outside[0]]
                nv2 = table2_residual(nm, s, row).value > 1e-3
                nd = DerivedFromDOmega.from_torsion(nm, s)
                nv3 = table2_residual_dOmega(nd, s, row).value > 1e-3
                agree += int(nv2 == nv3 and nv2)
                total += 2
        out.append(CheckResult("column-agreement", float(total - agree), 0.5,
                               f"{agree}/{total} verdicts agree"))

    if s.n == 2:
        worst_member = 0.0
        worst_reject = np.inf
        for row in table3_rows(s):
            m = MixedTorsion.zero(s.dim)
            for X in row.components:
                m = m + pool[X]
            d = DerivedFromDOmega.from_torsion(m, s)
            worst_member = max(worst_member,
                               table3_residual(d, s, row).value)
            outside = [X for X in labs if X not in row.components]
            if outside:
                nm = m + pool[outside[0]]
                nd = DerivedFromDOmega.from_torsion(nm, s)
                worst_reject = min(worst_reject,
                                   table3_residual(nd, s, row).value)
        out.append(CheckResult("partial-table-members", worst_member, 1e-8,
                               "8 rows via the 5-form"))
        out.append(CheckResult("partial-table-reject",
                               1e-3 / worst_reject, 1.0,
                               f"smallest non-member residual "
                               f"{worst_reject:.2e}"))

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

    # Hodge factors (outer star read as the inverse star)
    k1, k2 = s.k1, s.k2
    worst_estre = worst_astff = worst_estre1 = 0.0
    for k in range(10):
        zt = {ax: rng.standard_normal(s.dim) for ax in AXES}
        z0 = rng.standard_normal(s.dim)
        lhs = s.star_inv(wedge(s.star(wedge1(z0, s.Omega)), s.Omega)).coeffs
        worst_estre = max(worst_estre, float(np.linalg.norm(
            lhs - 12 * k1 * k2 * z0)) / np.linalg.norm(12 * k1 * k2 * z0))
        three_total = AltForm.zero(s.dim, 3)
        for bx in AXES:
            three_total = three_total + wedge1(s.mats[bx] @ zt[bx],
                                               s.omega[bx])
        for ax in AXES:
            acc = AltForm.zero(s.dim, s.dim - 1)
            acc5 = AltForm.zero(s.dim, s.dim - 5)
            for bx in AXES:
                three = wedge1(s.mats[bx] @ zt[bx], s.omega[bx])
                acc = acc + wedge(s.star(three), s.omega[ax])
                acc5 = acc5 + s.star(wedge(s.i_axis(bx, three_total),
                                           s.omega[bx]))
            lhs1 = s.star_inv(acc).coeffs
            want = (2 * k1 * (s.mats[ax] @ zt[ax])
                    + s.mats[ax] @ (zt["I"] + zt["J"] + zt["K"]))
            worst_estre1 = max(worst_estre1, float(np.linalg.norm(
                lhs1 - want)) / max(np.linalg.norm(want), 1e-300))
            lhs2 = s.star_inv(
                wedge(wedge(acc5, s.omega[ax]), s.omega[ax])).coeffs
            worst_astff = max(worst_astff, float(np.linalg.norm(
                lhs2 + 4 * k1 * k2 * zt[ax]))
                / np.linalg.norm(4 * k1 * k2 * zt[ax]))
    out.append(CheckResult("hodge-factor-single-wedge", worst_estre, 1e-9,
                           f"factor {12 * k1 * k2}"))
    out.append(CheckResult("hodge-factor-insertion-wedge", worst_astff, 1e-9,
                           f"factor {-4 * k1 * k2}"))
    out.append(CheckResult("hodge-triple-wedge-corrected", worst_estre1, 1e-9,
                           "2 k1 A zeta_A + A sum zeta"))

    d = DerivedFromDOmega.from_torsion(a, s)
    ds = contract12(a)
    tri = TF.xi_triple(ds, s)
    r1 = float(np.linalg.norm(d.xi - tri.xi)) / max(
        np.linalg.norm(tri.xi), 1e-300)
    r2 = max(float(np.linalg.norm(d.xi_triple[ax] - tri[ax]))
             for ax in AXES) / max(np.linalg.norm(tri.xi_I), 1e-300)
    r3 = float(np.linalg.norm(d.dstarOmega.coeffs - ds.coeffs)) / max(
        ds.norm(), 1e-300)
    out.append(CheckResult("exterior-derivative-recovery", max(r1, r2, r3),
                           1e-8, "d*, xi, xi_A recovered from the 5-form"))

    # wedge criteria against projector verdicts
    comps = PR.components(a, s, check=False)
    ok = True
    for drop, expect in ((None, (False, False, False)),
                         ((PR.ComponentLabel.EH,), (True, False, False)),
                         ((PR.ComponentLabel.ES3H,), (False, True, False)),
                         ((PR.ComponentLabel.EH, PR.ComponentLabel.ES3H),
                          (True, True, True))):
        t = MixedTorsion.zero(s.dim)
        for X, c in comps.items():
            if drop and X in drop:
                continue
            t = t + c
        wc = wedge_criteria(DerivedFromDOmega.from_torsion(t, s), s)
        got = (wc["EH_zero"], wc["ES3H_zero"], wc["EHS3H_zero"])
        ok = ok and got == expect
    out.append(CheckResult("wedge-criteria-agreement", 0.0 if ok else 1.0,
                           0.5))

    # 5-form perpendicularity test against a built orthogonal complement
    phi = _rand_form(rng, s.dim, 5)
    fam = []
    for ax in AXES:
        for bx in AXES:
            for y in range(s.dim):
                e = np.zeros(s.dim)
                e[y] = 1.0
                fam.append(wedge(wedge1(e, s.omega[ax]),
                                 s.omega[bx]).coeffs)
    Mfam = np.stack(fam, axis=1)
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


# ---------------------------------------------------------------------------
# Lie pipeline
# ---------------------------------------------------------------------------


def check_lie(s: QuatStructure, rng) -> list[CheckResult]:
    out = []
    g0 = LA.MetricLieAlgebra(s, np.zeros((s.dim,) * 3))
    rep = LA.classify_algebra(g0)
    ok = rep["key"] == "QK"
    out.append(CheckResult("abelian-is-integrable", 0.0 if ok else 1.0, 0.5))

    worst = {"alternation_vs_differential": 0.0, "gray_identity": 0.0,
             "nijenhuis_trace": 0.0, "codifferential_pairwise": 0.0,
             "product_rule": 0.0}
    count = 0
    for seed in (0, 1, 2):
        g = LA.MetricLieAlgebra(s, LA.two_step_nilpotent(s.n, seed).c)
        rep = LA.classify_algebra(g)
        for k in worst:
            worst[k] = max(worst[k], rep["checks"][k])
        count += 1
    out.append(CheckResult("pipeline-alternation", worst["alternation_vs_differential"],
                           1e-9, f"{count} nilpotent algebras"))
    out.append(CheckResult("pipeline-gray-identity", worst["gray_identity"],
                           1e-10))
    out.append(CheckResult("pipeline-nijenhuis-trace",
                           worst["nijenhuis_trace"], 1e-12))
    out.append(CheckResult("pipeline-codifferential-routes",
                           worst["codifferential_pairwise"], 1e-9))
    out.append(CheckResult("pipeline-product-rule", worst["product_rule"],
                           1e-9))

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


def run_suite(n: int, seed: int = 0, tol_scale: float = 1.0,
              sections: tuple = None) -> list[CheckResult]:
    if n not in (2, 3):
        raise ValueError("the verification suite runs at n = 2 or n = 3")
    s = standard_structure(n)
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in SECTIONS:
        if sections and name not in sections:
            continue
        rows = fn(s, rng)
        for row in rows:
            row.check = f"{name}/{row.check}"
            row.tol *= tol_scale
        results.extend(rows)
    return results
