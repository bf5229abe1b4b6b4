"""Acceptance suite: the full set of exit criteria at pinned tolerances.

Run with  pytest tests/test_acceptance.py -s -v  to see one line per
criterion.  Two sub-criteria assert stated values that are mathematically
unattainable (see the strict xfail reasons); they are implemented exactly as
stated and expected to fail.
"""

import itertools
import math
import time

import numpy as np
import pytest

from aqh import (
    COMPONENT_DIMS,
    AltForm,
    ClassLabel,
    ComponentLabel,
    MetricLieAlgebra,
    MixedTorsion,
    alternate5,
    ce_d,
    classification_report,
    classify_algebra,
    components,
    contract12,
    hat_dstar,
    koszul,
    nabla_Omega,
    random_rotation,
    random_W_element,
    rotate_adapted,
        torsion_embed,
    table2_rows,
    table3_rows,
    two_step_nilpotent,
        wedge,
    wedge1,
    wedge_power,
)
from aqh.structure import AXES
from aqh.threeform import r_matrix
from aqh.liealg import (_gray_residual, codiff_Omega, d_omegas, nabla_omegas,
                        nijenhuis)
from reference import col2, col3, component_matrices_on_W, i_axis


def report(num, passed, desc):
    print(f"ACCEPTANCE {num:>3}: {'pass' if passed else 'FAIL'} - {desc}")
    return passed


def test_criterion_01_L_squared(s2, s3):
    t0 = time.time()
    worst = 0.0
    for s in (s2, s3):
        N3 = s.tab.nforms(3)
        L3 = s.L_matrix(3)
        worst = max(worst, float(np.abs(L3 @ L3 - 9 * np.eye(N3)).max()))
    dt = time.time() - t0
    ok = worst < 1e-9 and dt < 5.0
    assert report(1, ok, f"L^2 = 9 Id on 3-forms (56x56, 220x220), "
                         f"max residual {worst:.1e}, {dt:.2f}s")


def test_criterion_02_L_on_rows(s2, s3):
    worst = 0.0
    for s in (s2, s3):
        L4 = s.L_matrix(4)
        for k in range(20):
            a = random_W_element(s, 1000 + k)
            worst = max(worst, float(np.linalg.norm(
                a.rows @ L4.T - 2 * a.rows)) / a.norm())
    assert report(2, worst < 1e-9,
                  f"L = 2 Id on torsion rows, 20 elements each n, "
                  f"worst {worst:.1e}")


def test_criterion_03_lcal(s2, s3):
    worst = 0.0
    traces = {}
    for s in (s2, s3):
        for k in range(20):
            a = random_W_element(s, 2000 + k)
            La = s.lcal_raw(a)
            LLa = s.lcal_raw(La)
            worst = max(worst, float(np.linalg.norm(
                LLa.rows - 2 * La.rows - 8 * a.rows)) / a.norm())
        mats = component_matrices_on_W(s)
        traces[s.n] = (float(np.trace(mats["hpart"])),
                       float(np.trace(mats["s3hpart"])))
    trace_err = max(abs(traces[2][0] - 40), abs(traces[2][1] - 80),
                    abs(traces[3][0] - 168), abs(traces[3][1] - 336))
    ok = worst < 1e-8 and trace_err < 1e-6
    assert report(3, ok, f"(Lcal-4)(Lcal+2) = 0, worst {worst:.1e}; "
                         f"eigen-split traces {traces[2]} / {traces[3]}")


def test_criterion_04_right_inverse(s2, s3, rng):
    worst = 0.0
    for s in (s2, s3):
        for _ in range(20):
            b = AltForm(s.dim, 3,
                        rng.standard_normal(math.comb(s.dim, 3)))
            back = contract12(hat_dstar(b, s))
            worst = max(worst, float(np.linalg.norm(
                back.coeffs - b.coeffs)) / b.norm())
    assert report(4, worst < 1e-9,
                  f"d* o hat-d* = id on 20 random 3-forms, worst {worst:.1e}")


def test_criterion_05_contraction_intertwines(s2, s3):
    worst = 0.0
    for s in (s2, s3):
        L3 = s.L_matrix(3)
        for k in range(20):
            a = random_W_element(s, 3000 + k)
            ds = contract12(a)
            lhs = contract12(s.lcal_raw(a))
            worst = max(worst, float(np.linalg.norm(
                lhs.coeffs - ds.coeffs - L3 @ ds.coeffs))
                / max(ds.norm(), 1e-300))
    assert report(5, worst < 1e-9,
                  f"d* Lcal = d* + L d* on 20 elements, worst {worst:.1e}")


def test_criterion_06_projector_suite(s2, s3):
    want = {2: (0, 32, 8, 0, 64, 16), 3: (28, 128, 12, 56, 256, 24)}
    order = (ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH,
             ComponentLabel.L3ES3H, ComponentLabel.KS3H,
             ComponentLabel.ES3H)
    algebra_worst = 0.0
    trace_worst = 0.0
    sums = {}
    for s in (s2, s3):
        mats = component_matrices_on_W(s)
        for X in order:
            P = mats[X]
            algebra_worst = max(algebra_worst,
                                float(np.abs(P @ P - P).max()))
        for Xa, Xb in itertools.combinations(order, 2):
            algebra_worst = max(algebra_worst,
                                float(np.abs(mats[Xa] @ mats[Xb]).max()))
        total = sum(mats[X] for X in order)
        algebra_worst = max(algebra_worst, float(np.abs(
            total - np.eye(total.shape[0])).max()))
        tr = [float(np.trace(mats[X])) for X in order]
        trace_worst = max(trace_worst,
                          max(abs(a - b) for a, b in zip(tr, want[s.n])))
        sums[s.n] = sum(tr)
    ok = (algebra_worst < 1e-8 and trace_worst < 1e-6
          and abs(sums[2] - 120) < 1e-6 and abs(sums[3] - 504) < 1e-6)
    assert report(6, ok, f"six projectors: algebra residual "
                         f"{algebra_worst:.1e}, trace error {trace_worst:.1e},"
                         f" sums {sums[2]:.0f}/{sums[3]:.0f}")


def test_criterion_07_contraction_kernel(s2, s3, pool2, pool3):
    from aqh.verify import dstar_on_W

    kernel_worst = 0.0
    sv_min = np.inf
    for s, pool in ((s2, pool2), (s3, pool3)):
        a = sum(pool.values(), start=MixedTorsion.zero(s.dim))
        for X in (ComponentLabel.L3EH, ComponentLabel.KS3H):
            kernel_worst = max(kernel_worst,
                               contract12(pool[X]).norm() / a.norm())
        mats = component_matrices_on_W(s)
        DST_W = dstar_on_W(s)
        vis = sum(mats[X] for X in (ComponentLabel.KH, ComponentLabel.EH,
                                    ComponentLabel.ES3H,
                                    ComponentLabel.L3ES3H))
        ev, vec = np.linalg.eigh(0.5 * (vis + vis.T))
        basis = vec[:, ev > 0.5]
        sv = np.linalg.svd(DST_W @ basis, compute_uv=False)
        sv_min = min(sv_min, float(sv.min()))
    ok = kernel_worst < 1e-10 and sv_min > 1e-6
    assert report(7, ok, f"kernel components killed ({kernel_worst:.1e}); "
                         f"smallest singular value on the rest {sv_min:.3f}")


def test_criterion_08_hodge_factors(s2, s3, rng):
    worst_estre = worst_astff = 0.0
    for s in (s2, s3):
        k1, k2 = s.k1, s.k2
        for _ in range(10):
            z0 = rng.standard_normal(s.dim)
            lhs = s.star_inv(wedge(s.star(wedge1(z0, s.Omega)),
                                   s.Omega)).coeffs
            worst_estre = max(worst_estre, float(np.linalg.norm(
                lhs - 12 * k1 * k2 * z0)) / (12 * k1 * k2
                                             * np.linalg.norm(z0)))
            zt = {ax: rng.standard_normal(s.dim) for ax in AXES}
            three_total = AltForm.zero(s.dim, 3)
            for bx in AXES:
                three_total = three_total + wedge1(s.mats[bx] @ zt[bx],
                                                   s.omega[bx])
            for ax in AXES:
                acc5 = AltForm.zero(s.dim, s.dim - 5)
                for bx in AXES:
                    acc5 = acc5 + s.star(
                        wedge(i_axis(s, bx, three_total), s.omega[bx]))
                lhs2 = s.star_inv(wedge(wedge(acc5, s.omega[ax]),
                                        s.omega[ax])).coeffs
                worst_astff = max(worst_astff, float(np.linalg.norm(
                    lhs2 + 4 * k1 * k2 * zt[ax]))
                    / (4 * k1 * k2 * np.linalg.norm(zt[ax])))
    ok = worst_estre < 1e-9 and worst_astff < 1e-9
    assert report("8ac", ok,
                  f"double-wedge factor 60/168 ({worst_estre:.1e}); "
                  f"insertion-wedge factor -20/-56 ({worst_astff:.1e})")


@pytest.mark.xfail(
    strict=True,
    reason="the displayed triple-wedge composite is not diagonal in the "
           "three one-forms: the exact identity is "
           "star_inv(sum_B star(B z_B ^ w_B) ^ w_A) = 2 k1 A z_A + "
           "A(z_I + z_J + z_K), so no single factor 4n exists "
           "(equal inputs give the factor 2n+1)")
def test_criterion_08b_triple_wedge_factor_as_stated(s2, rng):
    s = s2
    worst = 0.0
    for _ in range(10):
        zt = {ax: rng.standard_normal(s.dim) for ax in AXES}
        for ax in AXES:
            acc = AltForm.zero(s.dim, s.dim - 1)
            for bx in AXES:
                acc = acc + wedge(
                    s.star(wedge1(s.mats[bx] @ zt[bx], s.omega[bx])),
                    s.omega[ax])
            lhs = s.star_inv(acc).coeffs
            want = 4 * s.n * (s.mats[ax] @ zt[ax])
            worst = max(worst, float(np.linalg.norm(lhs - want))
                        / np.linalg.norm(want))
    report("8b", worst < 1e-9,
           f"triple-wedge factor 4n as stated, worst {worst:.1e}")
    assert worst < 1e-9


def test_criterion_09_alternation_identities(s2, s3, rng):
    worst = 0.0
    for s in (s2, s3):
        for k in range(20):
            a = random_W_element(s, 4000 + k)
            dOm = alternate5(a)
            lhs = alternate5(s.lcal_raw(a)).coeffs + 2 * dOm.coeffs
            rhs = s.L_matrix(5) @ dOm.coeffs
            worst = max(worst, float(np.linalg.norm(lhs - rhs))
                        / max(np.linalg.norm(rhs), 1e-300))
        for _ in range(20):
            z = rng.standard_normal(s.dim)
            Rz = MixedTorsion.from_flat(s.dim, r_matrix(s) @ z)
            rhs5 = wedge1(z, s.Omega) * 4.0
            worst = max(worst, float(np.linalg.norm(
                alternate5(Rz).coeffs - rhs5.coeffs)) / rhs5.norm())
            b = AltForm(s.dim, 3,
                        rng.standard_normal(math.comb(s.dim, 3)))
            # AE b = sum_A i_A(b) ^ w_A, one wedge per axis
            rhs5c = 2.0 * sum(wedge(i_axis(s, A, b), s.omega[A]).coeffs
                              for A in AXES)
            worst = max(worst, float(np.linalg.norm(
                alternate5(torsion_embed(b, s)).coeffs - rhs5c))
                / np.linalg.norm(rhs5c))
    assert report(9, worst < 1e-9,
                  f"three alternation identities, worst {worst:.1e}")


def test_criterion_10_volume_n3(s3):
    top = wedge_power(s3.Omega, 3)
    resid = abs(top.coeffs[0] - 5040.0)
    assert report("10 (n=3)", resid < 1e-9,
                  f"Omega^3 on the adapted basis = +5040, "
                  f"residual {resid:.1e}")


@pytest.mark.xfail(
    strict=True,
    reason="Omega^n on the adapted basis equals +(2n+1)! for every n "
           "(adapted frames are related by special-orthogonal changes, so "
           "the value is frame-independent); the stated -120 at n=2 is not "
           "realizable")
def test_criterion_10_volume_n2_as_stated(s2):
    top = wedge_power(s2.Omega, 2)
    resid = abs(top.coeffs[0] - (-120.0))
    report("10 (n=2)", resid < 1e-9,
           f"Omega^2 on the adapted basis vs stated -120, actual "
           f"{top.coeffs[0]:+.1f}")
    assert resid < 1e-9


def test_criterion_11_round_trip(s2, s3, pool2, pool3):
    t0 = time.time()
    wrong = 0
    total = 0
    for s, pool in ((s2, pool2), (s3, pool3)):
        labs = [X for X in ComponentLabel
                if s.n > 2 or COMPONENT_DIMS[X](2)]
        for r in range(1, len(labs) + 1):
            for sub in itertools.combinations(labs, r):
                a = sum((pool[X] for X in sub),
                        start=MixedTorsion.zero(s.dim))
                key = classification_report(a, s)["key"]
                total += 1
                wrong += int(key != ClassLabel(frozenset(sub)).key)
    dt = time.time() - t0
    ok = wrong == 0 and dt < 600
    assert report(11, ok, f"round trip over {total} subsets (15 + 63), "
                          f"{wrong} wrong, {dt:.1f}s")


def test_criterion_12_column_consistency(s3):
    rows = table2_rows(s3)
    singles = [r for r in rows if len(r.components) == 1]
    composites = [r for r in rows if 2 <= len(r.components) <= 3][:10]
    pools = [components(random_W_element(s3, 5000 + k), s3, check=False)
             for k in range(10)]
    labs = list(ComponentLabel)
    disagreements = 0
    checks = 0
    for row in singles + composites:
        outside = [X for X in labs if X not in row.components][0]
        for pool in pools:
            m = sum((pool[X] for X in row.components),
                    start=MixedTorsion.zero(12))
            nm = m + pool[outside]
            for t, member in ((m, True), (nm, False)):
                v2 = col2(t, s3, row).value <= 1e-8
                v3 = col3(t, s3, row).value <= 1e-8
                checks += 1
                disagreements += int(v2 != v3 or v2 != member)
    assert report(12, disagreements == 0,
                  f"column verdicts agree on {checks} member/non-member "
                  f"checks over {len(singles + composites)} rows")


def test_criterion_13_partial_table(s2, pool2):
    labs = [X for X in ComponentLabel if COMPONENT_DIMS[X](2)]
    worst_member = 0.0
    worst_reject = np.inf
    for row in table3_rows(s2):
        m = sum((pool2[X] for X in row.components),
                start=MixedTorsion.zero(8))
        worst_member = max(worst_member, col3(m, s2, row).value)
        outside = [X for X in labs if X not in row.components]
        if outside:
            nm = m + pool2[outside[0]]
            worst_reject = min(worst_reject, col3(nm, s2, row).value)
    ok = worst_member < 1e-8 and worst_reject > 1e-3
    assert report(13, ok, f"8 rows: members {worst_member:.1e}, "
                          f"non-members rejected above {worst_reject:.1e}")


def test_criterion_14_lie_pipeline(s2):
    rep = classify_algebra(MetricLieAlgebra(s2, np.zeros((8, 8, 8))))
    ok = rep["key"] == "QK"
    worst = {"alt": 0.0, "gray": 0.0, "nij": 0.0, "cod": 0.0}
    for seed in (0, 1, 2, 3):
        g = two_step_nilpotent(2, seed)
        G = koszul(g)
        nOm = nabla_Omega(g, G)
        lhs = alternate5(nOm)
        rhs = ce_d(g, g.structure.Omega)
        worst["alt"] = max(worst["alt"], float(np.linalg.norm(
            lhs.coeffs - rhs.coeffs)) / max(rhs.norm(), 1e-300))
        NA = nijenhuis(g)
        worst["gray"] = max(worst["gray"], _gray_residual(
            s2.IJK, d_omegas(g), NA, nabla_omegas(g, G)))
        worst["nij"] = max(worst["nij"], float(
            np.abs(np.einsum("aiix->ax", NA)).max()))
        out = codiff_Omega(g)
        worst["cod"] = max(worst["cod"],
                           max(out["report"]["pairwise"].values()))
    ok = (ok and worst["alt"] < 1e-9 and worst["gray"] < 1e-10
          and worst["nij"] < 1e-12 and worst["cod"] < 1e-9)
    assert report(14, ok,
                  f"abelian QK; 4 nilpotent algebras: alternation "
                  f"{worst['alt']:.1e}, integrability {worst['gray']:.1e}, "
                  f"trace {worst['nij']:.1e}, codiff routes {worst['cod']:.1e}")


def test_criterion_15_basis_independence(s2, s3, pool2, pool3, rng):
    mismatches = 0
    for s, pool, nrot in ((s2, pool2, 20), (s3, pool3, 20)):
        a = (pool[ComponentLabel.KH] + pool[ComponentLabel.ES3H]
             + pool[ComponentLabel.KS3H])
        rep0 = classification_report(a, s)
        for _ in range(nrot):
            s_rot = rotate_adapted(random_rotation(rng), s)
            rep1 = classification_report(a, s_rot)
            norms0, norms1 = rep0["profile"]["norms"], rep1["profile"]["norms"]
            if rep1["key"] != rep0["key"]:
                mismatches += 1
            elif any(abs(norms1[X] - norms0[X]) > 1e-8 for X in norms0):
                mismatches += 1
    assert report(15, mismatches == 0,
                  "classifier output identical under 20 random adapted "
                  "rotations at each n")
