"""Class assignment, the per-class conditions, and the 5-form machinery."""

import itertools
import json
import math

import numpy as np
import pytest

from aqh import (
    AltForm,
    ClassLabel,
    ComponentLabel,
    DerivedFromDOmega,
    MixedTorsion,
    alternate5,
    classification_report,
    classify,
    contract12,
    perp_EH5_test,
    random_W_element,
    table2_residual,
    table2_residual_dOmega,
    table2_rows,
    table3_residual,
    table3_rows,
    wedge,
    wedge1,
    wedge_criteria,
    wedge_power,
    xi_triple,
)
from aqh.structure import AXES


L3EH, KH, EH = ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH
L3ES3H, KS3H, ES3H = (ComponentLabel.L3ES3H, ComponentLabel.KS3H,
                      ComponentLabel.ES3H)


def build(pool, *labels):
    out = MixedTorsion.zero(next(iter(pool.values())).dim)
    for X in labels:
        out = out + pool[X]
    return out


def w_matrix(M, s):
    """W coordinates (dim*r x k) of a matrix (dim*N4 x k) whose columns are
    tensors in W."""
    from aqh.torsion import fiber_basis_matrix

    Q = fiber_basis_matrix(s)
    return (Q.T @ M.reshape(s.dim, len(Q), -1)).reshape(-1, M.shape[-1])


def full_rows(f, s):
    """The matrix (dim*N4 x N3) of a map f(b, s) from 3-forms to tensors,
    such as hat_dstar or torsion_embed: column k is the image of the k-th
    basis 3-form."""
    return np.stack([f(AltForm(s.dim, 3, e), s).flat()
                     for e in np.eye(s.tab.nforms(3))], axis=1)


def ae_wedges(s, b):
    """sum_A i_A(b) ^ w_A, one wedge per axis."""
    return sum(wedge(s.i_axis(A, b), s.omega[A]).coeffs for A in AXES)


def test_classify_zero_is_qk(s2):
    lab, prof = classify(MixedTorsion.zero(8), s2)
    assert lab.key == "QK"
    assert "QK" in lab.aliases


def test_classify_tiny_input_is_qk(s2, pool2):
    lab, _ = classify(pool2[KH] * 1e-20, s2)
    assert lab.key == "QK"


def test_classify_single_components(s2, pool2):
    lab, _ = classify(pool2[EH], s2)
    assert lab.components == frozenset({EH})
    assert "l.c.q.K." in lab.aliases
    lab, _ = classify(build(pool2, KH, EH), s2)
    assert lab.components == frozenset({KH, EH})
    assert "QKT" in lab.aliases
    assert lab.display == "(K+E)H"


def test_class_display_names():
    assert ClassLabel(frozenset({L3EH, KH, EH})).display == "(Λ₀³E+K+E)H"
    assert ClassLabel(frozenset({L3EH, L3ES3H})).display == "Λ₀³E(H+S³H)"
    assert ClassLabel(frozenset()).display == "{0}"
    full = ClassLabel(frozenset(ComponentLabel))
    assert full.display == "(Λ₀³E+K+E)(H+S³H)"
    assert "quaternionic" in ClassLabel(frozenset({L3EH, KH, EH})).aliases


def test_classify_round_trip_n2(s2, pool2):
    labs = [X for X in ComponentLabel if not X.zero_at_n2]
    for r in range(1, 5):
        for sub in itertools.combinations(labs, r):
            lab, _ = classify(build(pool2, *sub), s2)
            assert lab.components == frozenset(sub)


def test_classify_rejects_non_members(s2):
    bad = MixedTorsion(8, np.tile(s2.Omega.coeffs, (8, 1)))
    with pytest.raises(Exception):
        classify(bad, s2)


def test_table2_row_lookup(s3):
    rows = table2_rows(s3)
    assert len(rows) == 64
    assert rows[0].components == frozenset()
    r = rows[3]
    assert r.components == frozenset({EH})
    assert r.key == "EH"


def test_table2_members_both_columns(s3, pool3):
    # every row annihilates its projected members in both columns
    for row in table2_rows(s3):
        m = build(pool3, *row.components)
        assert table2_residual(m, s3, row).value < 1e-8, row.key
        d = DerivedFromDOmega.from_torsion(m, s3)
        assert table2_residual_dOmega(d, s3, row).value < 1e-8, row.key


def test_table2_rejects_non_members(s3, pool3):
    labs = list(ComponentLabel)
    for row in table2_rows(s3):
        outside = [X for X in labs if X not in row.components]
        if not outside:
            continue
        nm = build(pool3, *row.components) + pool3[outside[0]]
        assert table2_residual(nm, s3, row).value > 1e-3, row.key


def test_table2_n2_members(s2, pool2):
    for row in table2_rows(s2):
        comps = [X for X in row.components if not X.zero_at_n2]
        m = build(pool2, *comps)
        assert table2_residual(m, s2, row).value < 1e-8, row.key


def test_table2_zero_tensor(s2):
    z = MixedTorsion.zero(8)
    for row in table2_rows(s2):
        assert table2_residual(z, s2, row).value == 0.0


def test_table2_dOmega_rejected_at_n2(s2, pool2):
    d = DerivedFromDOmega.from_torsion(pool2[EH], s2)
    with pytest.raises(ValueError):
        table2_residual_dOmega(d, s2, "EH")


def test_specific_rows_from_conditions(s3, pool3):
    # EH: the 5-form is a multiple of xi ^ Omega
    aE = pool3[EH]
    d = DerivedFromDOmega.from_torsion(aE, s3)
    lhs = d.dOmega.coeffs + (1.0 / s3.k1) * wedge1(d.xi, s3.Omega).coeffs
    assert np.linalg.norm(lhs) / d.dOmega.norm() < 1e-8
    # KS3H: L(dOmega) = 0 and the contraction vanishes
    aK = pool3[KS3H]
    dK = DerivedFromDOmega.from_torsion(aK, s3)
    assert np.linalg.norm(s3.L_matrix(5) @ dK.dOmega.coeffs) / aK.norm() < 1e-8
    assert dK.dstarOmega.norm() / aK.norm() < 1e-10


def test_column_agreement(s3, pool3):
    rows = table2_rows(s3)
    singles = [r for r in rows if len(r.components) == 1]
    composites = [r for r in rows if len(r.components) in (2, 3)][:10]
    labs = list(ComponentLabel)
    for row in singles + composites:
        m = build(pool3, *row.components)
        outside = [X for X in labs if X not in row.components][0]
        nm = m + pool3[outside]
        for t, is_member in ((m, True), (nm, False)):
            v2 = table2_residual(t, s3, row).value <= 1e-8
            d = DerivedFromDOmega.from_torsion(t, s3)
            v3 = table2_residual_dOmega(d, s3, row).value <= 1e-8
            assert v2 == v3 == is_member, (row.key, is_member)


def test_table3(s2, pool2):
    labs = [X for X in ComponentLabel if not X.zero_at_n2]
    for row in table3_rows(s2):
        m = build(pool2, *row.components)
        d = DerivedFromDOmega.from_torsion(m, s2)
        assert table3_residual(d, s2, row).value < 1e-8, row.key
        outside = [X for X in labs if X not in row.components]
        if outside:
            nm = m + pool2[outside[0]]
            nd = DerivedFromDOmega.from_torsion(nm, s2)
            assert table3_residual(nd, s2, row).value > 1e-3, row.key


def test_table3_zero(s2):
    d = DerivedFromDOmega.from_torsion(MixedTorsion.zero(8), s2)
    for row in table3_rows(s2):
        assert table3_residual(d, s2, row).value == 0.0


def test_table3_requires_n2(s3, pool3):
    d = DerivedFromDOmega.from_torsion(pool3[EH], s3)
    with pytest.raises(ValueError):
        table3_residual(d, s3, 1)


def test_derived_quantities_match_contraction_route(s2, s3):
    for s in (s2, s3):
        a = random_W_element(s, 31)
        d = DerivedFromDOmega.from_torsion(a, s)
        ds = contract12(a)
        tri = xi_triple(ds, s)
        assert np.linalg.norm(d.dstarOmega.coeffs - ds.coeffs) / ds.norm() < 1e-8
        assert np.linalg.norm(d.xi - tri.xi) / max(
            np.linalg.norm(tri.xi), 1e-300) < 1e-8
        for ax in AXES:
            assert np.linalg.norm(d.xi_triple[ax] - tri[ax]) / max(
                np.linalg.norm(tri[ax]), 1e-300) < 1e-8


def test_wedge_criteria_match_projector_verdicts(s3, pool3):
    cases = [
        (build(pool3, KH, KS3H, L3EH), (True, True, True)),
        (build(pool3, KH, EH), (False, True, False)),
        (build(pool3, ES3H), (True, False, False)),
        (build(pool3, EH, ES3H), (False, False, False)),
        (MixedTorsion.zero(12), (True, True, True)),
    ]
    for a, expect in cases:
        wc = wedge_criteria(DerivedFromDOmega.from_torsion(a, s3), s3)
        assert (wc["EH_zero"], wc["ES3H_zero"], wc["EHS3H_zero"]) == expect


def test_perp_five_form(s2, rng):
    # wedges of one-forms with two Kaehler forms are never perpendicular
    z = rng.standard_normal(8)
    phi = wedge(wedge1(z, s2.omega["I"]), s2.omega["J"])
    assert not perp_EH5_test(phi, s2)
    # a form orthogonalised against the whole family passes
    fam = []
    for ax in AXES:
        for bx in AXES:
            for y in range(8):
                e = np.zeros(8)
                e[y] = 1.0
                fam.append(wedge(wedge1(e, s2.omega[ax]), s2.omega[bx]).coeffs)
    M = np.stack(fam, axis=1)
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    proj = U[:, sv > sv[0] * 1e-10]
    raw = rng.standard_normal(math.comb(8, 5))
    perp = AltForm(8, 5, raw - proj @ (proj.T @ raw))
    assert perp_EH5_test(perp, s2)
    assert perp_EH5_test(AltForm.zero(8, 5), s2)


def test_classification_report_shape(s2, pool2):
    rep = classification_report(build(pool2, KH, EH), s2)
    assert rep["key"] == "KH+EH"
    assert "QKT" in rep["aliases"]
    assert rep["table2"]["value"] < 1e-8
    assert set(rep["wedge_criteria"]) == {"EH_zero", "ES3H_zero",
                                          "EHS3H_zero"}
    assert rep["table3"]["value"] < 1e-8


def test_alternation_identities(s2, s3, rng):
    from aqh.threeform import r_matrix, torsion_embed

    for s in (s2, s3):
        a = random_W_element(s, 77)
        dOm = alternate5(a)
        lhs = alternate5(s.lcal_raw(a)).coeffs + 2 * dOm.coeffs
        rhs = s.L_matrix(5) @ dOm.coeffs
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9
        z = rng.standard_normal(s.dim)
        Rz = MixedTorsion.from_flat(s.dim, r_matrix(s) @ z)
        lhs5 = alternate5(Rz)
        rhs5 = wedge1(z, s.Omega) * 4.0
        assert np.linalg.norm(lhs5.coeffs - rhs5.coeffs) / rhs5.norm() < 1e-9
        b = AltForm(s.dim, 3, rng.standard_normal(math.comb(s.dim, 3)))
        lhs5 = alternate5(torsion_embed(b, s))
        rhs5c = 2.0 * ae_wedges(s, b)
        assert np.linalg.norm(lhs5.coeffs - rhs5c) / np.linalg.norm(rhs5c) < 1e-9

    # the map that derives the dOmega column: the alternation of each
    # covariant field equals its image in the fields recovered from dOmega
    from aqh.classify import _ALT_IMAGE, ctx_from_derived, ctx_from_torsion
    from aqh.torsion import w_embed

    a = random_W_element(s3, 78)
    cov = ctx_from_torsion(a, s3)
    ext = ctx_from_derived(DerivedFromDOmega.from_torsion(a, s3), s3)
    assert set(_ALT_IMAGE) == set(cov.w.make)
    for key, image in _ALT_IMAGE.items():
        got = alternate5(w_embed(cov.w[key].reshape(s3.dim, -1), s3)).coeffs
        want = sum(f * ext.f5[k] for k, f in image.items())
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), key


def test_report_independent_of_row_layout(s3):
    # equal arrays in C and Fortran order give the same report, bit for bit
    for seed in range(5):
        a = random_W_element(s3, seed)
        f = MixedTorsion(a.dim, np.asfortranarray(a.rows))
        assert (json.dumps(classification_report(a, s3))
                == json.dumps(classification_report(f, s3)))


def _hodge_route(dOm, s):
    """d*Omega, xi, xi_A and the wedge forms of a 5-form by the per-vector
    Hodge formulas of DerivedFromDOmega, one wedge and star at a time."""
    n = s.n
    w = dOm if n == 2 else wedge(wedge_power(s.Omega, n - 2), dOm)
    dstar = s.star(w) * ((-1.0) ** n * 6 * (n - 1)
                         / math.factorial(2 * n - 1))
    xi = -(1.0 / (12 * s.k2)) * s.star_inv(
        wedge(s.star(dOm), s.Omega)).coeffs
    xiA = {}
    for a in AXES:
        A = s.mats[a]
        t = s.star(wedge(s.star(dstar), s.omega[a])).coeffs
        xiA[a] = -(A @ ((t - 6.0 * (A @ xi)) / (4 * s.k1)))
    sd = s.star(dOm)
    wAA = {a: wedge(wedge(sd, s.omega[a]), s.omega[a]).coeffs for a in AXES}
    return ([dstar.coeffs, xi] + [xiA[a] for a in AXES]
            + [wAA[a] for a in AXES] + [wedge(sd, s.Omega).coeffs])


def test_dOmega_matrix_matches_hodge_route(s2, s3, rng):
    from aqh.classify import dOmega_op
    from aqh.structure import random_rotation, rotate_adapted

    rot = rotate_adapted(random_rotation(rng), s3)
    for s in (s2, s3, rot):
        M = dOmega_op(s).dense()
        assert M.shape == (math.comb(s.dim, 3) + 8 * s.dim,
                           math.comb(s.dim, 5))
        forms = [AltForm(s.dim, 5, rng.standard_normal(M.shape[1]))
                 for _ in range(3)]
        forms += [alternate5(random_W_element(s, seed)) for seed in (1, 2)]
        for dOm in forms:
            want = _hodge_route(dOm, s)
            d = DerivedFromDOmega.from_dOmega(dOm, s)
            got = ([d.dstarOmega.coeffs, d.xi]
                   + [d.xi_triple[a] for a in AXES]
                   + [d.wAA[a].coeffs for a in AXES] + [d.wOm.coeffs])
            atol = 1e-12 * max(np.abs(w).max() for w in want)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(M @ dOm.coeffs, np.concatenate(want),
                                       rtol=1e-12, atol=atol)


def _eager_fields(ds, xi, tri, dOm, s):
    """Every context field by its direct formula (f3, and f5 when dOm is
    given), each product formed on its own."""
    from aqh.threeform import hook_omega_matrix

    m = sum(wedge(AltForm(s.dim, 1, s.mats[a] @ tri[a]), s.omega[a]).coeffs
            for a in AXES)
    f3 = {"dstar": ds, "Ldstar": s.L_matrix(3) @ ds,
          "xiC": hook_omega_matrix(s) @ xi, "m": m}
    if dOm is None:
        return f3, {}
    AEd, AELd, Q5 = (ae_wedges(s, AltForm(s.dim, 3, x))
                     for x in (ds, f3["Ldstar"], m))
    return f3, {"dOm": dOm, "LdOm": s.L_matrix(5) @ dOm,
                "AEd": AEd, "AELd": AELd, "Q5": Q5,
                "xiOm": wedge1(xi, s.Omega).coeffs}


def test_ctx_fields_on_demand(s2, s3):
    from aqh.classify import RowResult, ctx_from_derived, ctx_from_torsion
    from aqh.projectors import lcal_coords
    from aqh.threeform import r_matrix, torsion_embed
    from aqh.torsion import w_coords

    for s in (s2, s3):
        a = random_W_element(s, 91)
        d = DerivedFromDOmega.from_torsion(a, s)
        qk = table2_rows(s)[0]
        cov, ext = ctx_from_torsion(a, s), ctx_from_derived(d, s)
        RowResult.evaluate(qk, qk.col2, cov)
        RowResult.evaluate(qk, qk.col3, ext)
        # a row pays only for the fields it names
        assert set(cov.w) == {"a"} and not cov.f3
        assert set(ext.f5) == {"dOm"} and not ext.f3 and not ext.w

        ds = contract12(a).coeffs
        tri = xi_triple(contract12(a), s)
        f3, _ = _eager_fields(ds, tri.xi, tri, None, s)
        C = w_coords(a, s, check=False)
        SE = w_matrix(full_rows(torsion_embed, s), s)
        R = w_matrix(r_matrix(s), s)
        want = {"w": {"a": C.ravel(), "La": lcal_coords(C, s).ravel(),
                      "SEd": SE @ ds, "SELd": SE @ f3["Ldstar"],
                      "Q": SE @ f3["m"], "R": R @ tri.xi},
                "f3": f3, "f5": {}}
        f3d, f5d = _eager_fields(d.dstarOmega.coeffs, d.xi, d.xi_triple,
                                 d.dOmega.coeffs, s)
        for ctx, tables in ((ctx_from_torsion(a, s), want),
                            (ctx_from_derived(d, s),
                             {"w": {}, "f3": f3d, "f5": f5d})):
            for tag, fields in tables.items():
                table = getattr(ctx, tag)
                assert set(table.make) == set(fields), tag
                for key, v in fields.items():
                    np.testing.assert_allclose(
                        table[key], v, rtol=1e-12,
                        atol=1e-12 * np.abs(v).max(), err_msg=key)


def test_report_leaves_no_reference_cycles(s2, s3):
    # a lazily computed field must not tie its context, and through it the
    # structure's caches, into a cycle that only the collector frees
    import gc

    for s in (s2, s3):
        a = random_W_element(s, 5)
        classification_report(a, s)
        gc.collect()
        gc.disable()
        try:
            classification_report(a, s)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_tables_cached_per_n(s3, rng):
    from aqh.structure import random_rotation, rotate_adapted

    rot = rotate_adapted(random_rotation(rng), s3)
    assert table2_rows(rot) is table2_rows(s3)
    assert all(x is y for x, y in zip(table2_rows(rot), table2_rows(s3)))
    assert table3_rows(rot) is table3_rows(s3)


def check_ae_against_wedges(s, rng):
    """AE: b -> sum_A i_A(b) ^ w_A on degrees 2 (the dense se_core) and 3
    (ae, applied to a stack), against one wedge per axis."""
    from aqh.classify import ae
    from aqh.threeform import se_core

    for p, apply in ((2, lambda x: x @ se_core(s).T),
                     (3, lambda x: ae(s, x))):
        x = rng.standard_normal((2, math.comb(s.dim, p)))
        want = np.stack([ae_wedges(s, AltForm(s.dim, p, b)) for b in x])
        np.testing.assert_allclose(apply(x), want, rtol=0, atol=1e-12)


def check_report_in_frame(s, sg, g, pool, subsets):
    """The report of g a Lambda^4(g)^T in the frame sg is the report of a in
    s: the same key, norms within 1e-12 of the total."""
    from aqh.exterior import compound

    L4 = compound(g, 4)
    for labels in subsets:
        a = build(pool, *labels)
        rep = classification_report(a, s)
        rep_g = classification_report(
            MixedTorsion(s.dim, g @ a.rows @ L4.T), sg)
        assert rep_g["key"] == rep["key"]
        total = rep["profile"]["total"]
        for X, v in rep["profile"]["norms"].items():
            assert abs(rep_g["profile"]["norms"][X] - v) <= 1e-12 * total


def test_sparse_builds_off_standard_frame(s2, pool2):
    # a general O(8) change of frame g: the sparse and W-coordinate builds
    # must not lean on the few nonzeros of the standard frame
    from aqh.exterior import SparseOp, compound
    from aqh.projectors import _w_core
    from aqh.structure import QuatStructure
    from aqh.threeform import hat_dstar

    rng = np.random.default_rng(8)
    g, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    for p in range(1, 5):
        T = np.asarray(s2.tab.tuples(p))
        minors = np.linalg.det(g[T[:, None, :, None], T[None, :, None, :]])
        np.testing.assert_allclose(compound(g, p), minors, rtol=0,
                                   atol=1e-13)
        # a stack of matrices gives the stack of their compounds
        np.testing.assert_array_equal(compound(np.stack([g.T, g]), p)[1],
                                      compound(g, p))
    sg = QuatStructure(2, g @ s2.I @ g.T, g @ s2.J @ g.T)
    want = w_matrix(full_rows(hat_dstar, sg), sg)
    np.testing.assert_allclose(_w_core(sg)["hat_w"], want, rtol=0,
                               atol=1e-13 * np.abs(want).max())
    b5 = rng.standard_normal((3, 56))
    # L on 5-forms: D then D^T off the frame, D^T D merged in it
    for s, merged in ((sg, False), (s2, True)):
        np.testing.assert_allclose(s.L_apply(5, b5), b5 @ s.L_matrix(5).T,
                                   rtol=0, atol=1e-12)
        assert isinstance(s._cache[("DtD", 5)], SparseOp) == merged
        check_ae_against_wedges(s, rng)
    check_report_in_frame(s2, sg, g, pool2, (
        (KH,), (EH, ES3H), (KH, KS3H, ES3H), tuple(pool2)))


def test_builds_off_standard_frame_n3(s3, pool3, frame3):
    # the same at n = 3, where the Table-2 fields of 5-forms also apply
    from aqh.projectors import _w_core
    from aqh.threeform import hat_dstar

    g, sg = frame3
    want = w_matrix(full_rows(hat_dstar, sg), sg)
    np.testing.assert_allclose(_w_core(sg)["hat_w"], want, rtol=0,
                               atol=1e-13 * np.abs(want).max())
    rng = np.random.default_rng(9)
    for s in (s3, sg):
        check_ae_against_wedges(s, rng)
    check_report_in_frame(s3, sg, g, pool3, ((L3EH, KH), (EH, ES3H, KS3H)))


def test_report_and_lie_paths_assemble_no_dense_operators():
    # the report and Lie paths apply SE, HAT, L on 5-forms and AE through W
    # coordinates or nonzeros; no dense L above degree 3 is assembled
    from aqh import components, standard_structure
    from aqh.liealg import MetricLieAlgebra, classify_algebra, \
        two_step_nilpotent

    s = standard_structure(3)
    pool = components(random_W_element(s, 12), s, check=False)
    for r in range(len(pool) + 1):
        for labels in itertools.combinations(pool, r):
            rep = classification_report(build(pool, *labels), s)
            assert rep["key"] == ClassLabel(frozenset(labels)).key
    classify_algebra(MetricLieAlgebra(s, two_step_nilpotent(3, 0).c))
    assert not {("L", 4), ("L", 5)} & set(s._cache)


def _cached_arrays(value):
    """The arrays inside a cache entry: an array, or those of a dict, tuple
    or SparseOp (a NamedTuple) of them."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple, list)):
        for v in (value.values() if isinstance(value, dict) else value):
            yield from _cached_arrays(v)


def test_checks_assemble_no_full_row_operators():
    # the verify sections apply L on degrees 4 and 5, and SE and HAT on full
    # rows, as the library does; a dense full-row SE or HAT would hold
    # dim N4 N3 numbers
    from aqh import standard_structure
    from aqh.verify import SECTIONS

    s = standard_structure(2)
    rng = np.random.default_rng(0)
    for _, check in SECTIONS:
        assert all(r.passed for r in check(s, rng))
    assert not [k for k in s._cache if isinstance(k, tuple)
                and k[0] == "L" and k[1] >= 4]
    biggest = max(a.size for v in s._cache.values()
                  for a in _cached_arrays(v))
    assert biggest <= s.dim * s.tab.nforms(4) * s.tab.nforms(3) // 2
