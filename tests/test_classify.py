"""Class assignment, the per-class conditions, and the 5-form machinery."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from aqh import (
    COMPONENT_DIMS,
    AltForm,
    ClassLabel,
    ComponentLabel,
    MixedTorsion,
    alternate5,
    classification_report,
    contract12,
    perp_EH5_test,
    random_W_element,
    table2_rows,
    table3_rows,
    wedge,
    wedge1,
    wedge_criteria,
    wedge_power,
)
from aqh.structure import AXES
from aqh.threeform import xi_maps
from reference import col2, col3, derived_ctx, i_axis, torsion_ctx, tuples


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
    return np.stack([f(AltForm(s.dim, 3, e), s).rows.ravel()
                     for e in np.eye(s.tab.nforms(3))], axis=1)


def ae_wedges(s, b):
    """sum_A i_A(b) ^ w_A, one wedge per axis."""
    return sum(wedge(i_axis(s, A, b), s.omega[A]).coeffs for A in AXES)


def test_classify_zero_is_qk(s2):
    rep = classification_report(MixedTorsion.zero(8), s2)
    assert rep["key"] == "QK"
    assert "QK" in rep["aliases"]


def test_classify_tiny_input_is_qk(s2, pool2):
    assert classification_report(pool2[KH] * 1e-20, s2)["key"] == "QK"


@pytest.mark.parametrize("tol", [1e-30, 1e-17, 1e-8])
def test_n2_keys_name_no_empty_component(s2, tol):
    # L3EH and L3ES3H are zero at n = 2: their norms are round-off, which a
    # tol below round-off would otherwise keep
    from aqh import classify_algebra
    from aqh.classify import ZERO_FLOOR, _label
    from aqh.cli import algebra_from_json, load_json
    from aqh.projectors import profile

    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "liealg", "class_KH_EH.json")
    keys = [classify_algebra(algebra_from_json(load_json(path)), tol)["key"]]
    # a tensor's tol is also its membership tol, which round-off fails below
    # 1e-15: its label is read from its profile
    keys += [_label(profile(random_W_element(s2, seed), s2),
                    tol, 2, ZERO_FLOOR)[0].key for seed in range(3)]
    assert not [k for k in keys if "L3E" in k]
    assert "KH+EH+KS3H+ES3H" in keys


def test_classify_single_components(s2, pool2):
    rep = classification_report(pool2[EH], s2)
    assert rep["key"] == "EH"
    assert "l.c.q.K." in rep["aliases"]
    rep = classification_report(build(pool2, KH, EH), s2)
    assert rep["key"] == "KH+EH"
    assert "QKT" in rep["aliases"]
    assert rep["class"] == "(K+E)H"


def test_class_display_names():
    assert ClassLabel(frozenset({L3EH, KH, EH})).display == "(Λ₀³E+K+E)H"
    assert ClassLabel(frozenset({L3EH, L3ES3H})).display == "Λ₀³E(H+S³H)"
    assert ClassLabel(frozenset()).display == "{0}"
    full = ClassLabel(frozenset(ComponentLabel))
    assert full.display == "(Λ₀³E+K+E)(H+S³H)"
    assert "quaternionic" in ClassLabel(frozenset({L3EH, KH, EH})).aliases


def test_classify_round_trip_n2(s2, pool2):
    labs = [X for X in ComponentLabel if COMPONENT_DIMS[X](2)]
    for r in range(1, 5):
        for sub in itertools.combinations(labs, r):
            rep = classification_report(build(pool2, *sub), s2)
            assert rep["key"] == ClassLabel(frozenset(sub)).key


def test_classify_rejects_non_members(s2):
    bad = MixedTorsion(8, np.tile(s2.Omega.coeffs, (8, 1)))
    with pytest.raises(Exception):
        classification_report(bad, s2)


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
        assert col2(m, s3, row).value < 1e-8, row.key
        assert col3(m, s3, row).value < 1e-8, row.key


def test_table2_rejects_non_members(s3, pool3):
    labs = list(ComponentLabel)
    for row in table2_rows(s3):
        outside = [X for X in labs if X not in row.components]
        if not outside:
            continue
        nm = build(pool3, *row.components) + pool3[outside[0]]
        assert col2(nm, s3, row).value > 1e-3, row.key


def test_table2_n2_members(s2, pool2):
    for row in table2_rows(s2):
        comps = [X for X in row.components if COMPONENT_DIMS[X](2)]
        m = build(pool2, *comps)
        assert col2(m, s2, row).value < 1e-8, row.key


def test_table2_zero_tensor(s2):
    z = MixedTorsion.zero(8)
    for row in table2_rows(s2):
        assert col2(z, s2, row).value == 0.0


def test_specific_rows_from_conditions(s3, pool3):
    # EH: the 5-form is a multiple of xi ^ Omega
    aE = pool3[EH]
    d = derived_ctx(aE, s3)
    dOm = d.f5["dOm"]
    lhs = dOm + (1.0 / s3.k1) * wedge1(d.xi[0], s3.Omega).coeffs
    assert np.linalg.norm(lhs) / np.linalg.norm(dOm) < 1e-8
    # KS3H: L(dOmega) = 0 and the contraction vanishes
    aK = pool3[KS3H]
    dK = derived_ctx(aK, s3)
    assert np.linalg.norm(s3.L_matrix(5) @ dK.f5["dOm"]) / aK.norm() < 1e-8
    assert np.linalg.norm(dK.dstar) / aK.norm() < 1e-10


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
            v2 = col2(t, s3, row).value <= 1e-8
            v3 = col3(t, s3, row).value <= 1e-8
            assert v2 == v3 == is_member, (row.key, is_member)


def test_table3(s2, pool2):
    labs = [X for X in ComponentLabel if COMPONENT_DIMS[X](2)]
    for row in table3_rows(s2):
        m = build(pool2, *row.components)
        assert col3(m, s2, row).value < 1e-8, row.key
        outside = [X for X in labs if X not in row.components]
        if outside:
            nm = m + pool2[outside[0]]
            assert col3(nm, s2, row).value > 1e-3, row.key


def test_table3_zero(s2):
    z = MixedTorsion.zero(8)
    for row in table3_rows(s2):
        assert col3(z, s2, row).value == 0.0


def test_derived_quantities_match_contraction_route(s2, s3):
    for s in (s2, s3):
        a = random_W_element(s, 31)
        d = derived_ctx(a, s)
        ds = contract12(a)
        xi = xi_maps(s) @ ds.coeffs
        assert np.linalg.norm(d.dstar - ds.coeffs) / ds.norm() < 1e-8
        # xi, then xi_I, xi_J, xi_K
        for k in range(4):
            assert np.linalg.norm(d.xi[k] - xi[k]) / max(
                np.linalg.norm(xi[k]), 1e-300) < 1e-8


def test_wedge_criteria_match_projector_verdicts(s3, pool3):
    cases = [
        (build(pool3, KH, KS3H, L3EH), (True, True, True)),
        (build(pool3, KH, EH), (False, True, False)),
        (build(pool3, ES3H), (True, False, False)),
        (build(pool3, EH, ES3H), (False, False, False)),
        (MixedTorsion.zero(12), (True, True, True)),
    ]
    for a, expect in cases:
        wc = wedge_criteria(alternate5(a), s3)
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
    from aqh.classify import _ALT_IMAGE
    from aqh.torsion import w_embed

    a = random_W_element(s3, 78)
    cov, ext = torsion_ctx(a, s3), derived_ctx(a, s3)
    assert set(_ALT_IMAGE) == set(cov.w)
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
    Hodge formulas of ctx_from_derived, one wedge and star at a time."""
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
    from aqh.threeform import wedge_norms

    rot = rotate_adapted(random_rotation(rng), s3)
    for s in (s2, s3, rot):
        M = dOmega_op(s).dense()
        assert M.shape == (math.comb(s.dim, 3), math.comb(s.dim, 5))
        forms = [AltForm(s.dim, 5, rng.standard_normal(M.shape[1]))
                 for _ in range(3)]
        forms += [alternate5(random_W_element(s, seed)) for seed in (1, 2)]
        for k, dOm in enumerate(forms):
            want = _hodge_route(dOm, s)
            d = derived_ctx(dOm, s)
            got = [d.dstar, *d.xi]
            atol = 1e-12 * max(np.abs(w).max() for w in want)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(M @ dOm.coeffs, want[0],
                                       rtol=1e-12, atol=atol)
            if k < 3:
                continue
            # on the alternation of W the wedge forms are the one-forms
            # -12 xi - 8 k1 xi_A and -12 k2 xi, and so are their norms
            wAA, wOm = want[5:8], want[8]
            xi = d.xi
            for xiA, w in zip(xi[1:], wAA):
                np.testing.assert_allclose(
                    s.star_inv(AltForm(s.dim, s.dim - 1, w)).coeffs,
                    -12 * xi[0] - 8 * s.k1 * xiA, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(
                s.star_inv(AltForm(s.dim, s.dim - 1, wOm)).coeffs,
                -12 * s.k2 * xi[0], rtol=1e-12, atol=atol)
            norms = wedge_norms(d.dstar, xi, s.n)
            lift = wedge(wedge_power(s.Omega, s.n - 2), dOm)
            direct = {"wOm0": np.linalg.norm(wOm),
                      "wAAeq": max(np.linalg.norm(wAA[0] - wAA[1]),
                                   np.linalg.norm(wAA[1] - wAA[2])),
                      "wAA0": max(np.linalg.norm(w) for w in wAA),
                      "wOmdeg0": lift.norm()}
            for key, v in direct.items():
                assert abs(norms[key] - v) <= 1e-12 * max(v, atol), key


def test_covariant_column_reads_no_five_form(s2, s3, pool2, pool3,
                                             monkeypatch):
    # the wedge norms of the covariant column come from the one-forms of
    # d* a, so no row alternates a or applies dOmega_op
    from aqh import classify as module

    def refuse(*args, **kwargs):
        raise AssertionError("the covariant column read a 5-form")

    monkeypatch.setattr(module, "alternate5", refuse)
    monkeypatch.setattr(module, "dOmega_op", refuse)
    for s, pool in ((s2, pool2), (s3, pool3)):
        for row in table2_rows(s):
            # summed in declaration order: a frozenset's follows the str hash
            m = sum((pool[X] for X in ComponentLabel if X in row.components
                     and COMPONENT_DIMS[X](s.n)), MixedTorsion.zero(s.dim))
            assert col2(m, s, row).value <= 1e-8, row.key


def _eager_fields(ds, xi, dOm, s):
    """Every context field by its direct formula (f3, and f5 when dOm is
    given), each product formed on its own; xi is the stack of xi, xi_I,
    xi_J, xi_K of ds."""
    from aqh.threeform import hook_omega_matrix

    m = sum(wedge(AltForm(s.dim, 1, s.mats[a] @ xi[k + 1]), s.omega[a])
            .coeffs for k, a in enumerate(AXES))
    xi = xi[0]
    f3 = {"dstar": ds, "Ldstar": s.L_matrix(3) @ ds,
          "xiC": hook_omega_matrix(s) @ xi, "m": m}
    if dOm is None:
        return f3, {}
    AEd, AELd, Q5 = (ae_wedges(s, AltForm(s.dim, 3, x))
                     for x in (ds, f3["Ldstar"], m))
    return f3, {"dOm": dOm, "LdOm": s.L_matrix(5) @ dOm,
                "AEd": AEd, "AELd": AELd, "Q5": Q5,
                "xiOm": wedge1(xi, s.Omega).coeffs}


def test_ctx_fields_match_eager_formulas(s2, s3):
    # each table of the torsion contexts holds exactly its fields, each
    # equal to its direct formula
    from aqh.projectors import lcal_coords
    from aqh.threeform import r_matrix, torsion_embed
    from aqh.torsion import w_coords

    for s in (s2, s3):
        a = random_W_element(s, 91)
        ds = contract12(a).coeffs
        xi = xi_maps(s) @ ds
        f3, _ = _eager_fields(ds, xi, None, s)
        C = w_coords(a, s)
        SE = w_matrix(full_rows(torsion_embed, s), s)
        R = w_matrix(r_matrix(s), s)
        want = {"w": {"a": C.ravel(), "La": lcal_coords(C, s).ravel(),
                      "SEd": SE @ ds, "SELd": SE @ f3["Ldstar"],
                      "Q": SE @ f3["m"], "R": R @ xi[0]},
                "f3": f3, "f5": {}}
        ext = derived_ctx(a, s)
        f3d, f5d = _eager_fields(ext.dstar, xi_maps(s) @ ext.dstar,
                                 alternate5(a).coeffs, s)
        for ctx, tables in ((torsion_ctx(a, s), want),
                            (ext, {"w": {}, "f3": f3d, "f5": f5d})):
            for tag, fields in tables.items():
                table = getattr(ctx, tag)
                assert set(table) == set(fields), tag
                for key, v in fields.items():
                    np.testing.assert_allclose(
                        table[key], v, rtol=1e-12,
                        atol=1e-12 * np.abs(v).max(), err_msg=key)


def test_report_leaves_no_reference_cycles(s2, s3):
    # no context may tie itself, and through it the structure's caches, into
    # a cycle that only the collector frees: not the report's, not the
    # derived one of wedge_criteria, whose alternation check holds what it
    # reads, and not the stacked ones of a verify sweep row
    import gc

    from aqh import components
    from aqh.verify import _row_sweep

    sweeps = {2: (table3_rows(s2).by_id[frozenset({KH, KS3H})], ("table3",)),
              3: (table2_rows(s3).by_id[frozenset({L3EH, KH, L3ES3H, KS3H})],
                  ("col2", "col3"))}
    for s in (s2, s3):
        a = random_W_element(s, 5)
        pool = components(a, s, check=False)
        row, columns = sweeps[s.n]
        calls = (lambda: classification_report(a, s),
                 lambda: wedge_criteria(alternate5(a), s),
                 lambda: list(_row_sweep(s, [row], [pool], columns)))
        for call in calls:
            call()
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
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
    from reference import compound

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
    from reference import compound
    from aqh.projectors import _w_core
    from aqh.structure import QuatStructure
    from aqh.threeform import hat_dstar, piece_basis

    rng = np.random.default_rng(8)
    g, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    for p in range(1, 5):
        T = np.asarray(tuples(8, p))
        minors = np.linalg.det(g[T[:, None, :, None], T[None, :, None, :]])
        np.testing.assert_allclose(compound(g, p), minors, rtol=0,
                                   atol=1e-13)
        # a stack of matrices gives the stack of their compounds
        np.testing.assert_array_equal(compound(np.stack([g.T, g]), p)[1],
                                      compound(g, p))
    sg = QuatStructure(2, g @ s2.I @ g.T, g @ s2.J @ g.T)
    want = w_matrix(full_rows(hat_dstar, sg), sg)
    np.testing.assert_allclose(_w_core(sg)["B"] @ piece_basis(sg)[0].T,
                               want, rtol=0, atol=1e-13 * np.abs(want).max())
    b5 = rng.standard_normal((3, 56))
    for s in (sg, s2):
        np.testing.assert_allclose(s.L_apply(5, b5), b5 @ s.L_matrix(5).T,
                                   rtol=0, atol=1e-12)
        check_ae_against_wedges(s, rng)
    check_report_in_frame(s2, sg, g, pool2, (
        (KH,), (EH, ES3H), (KH, KS3H, ES3H), tuple(pool2)))


def test_builds_off_standard_frame_n3(s3, pool3, frame3):
    # the same at n = 3, where the Table-2 fields of 5-forms also apply
    from aqh.projectors import _w_core
    from aqh.threeform import hat_dstar, piece_basis

    g, sg = frame3
    want = w_matrix(full_rows(hat_dstar, sg), sg)
    np.testing.assert_allclose(_w_core(sg)["B"] @ piece_basis(sg)[0].T,
                               want, rtol=0, atol=1e-13 * np.abs(want).max())
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

    s = standard_structure.__wrapped__(3)    # fresh: empty caches
    pool = components(random_W_element(s, 12), s, check=False)
    for r in range(len(pool) + 1):
        for labels in itertools.combinations(pool, r):
            rep = classification_report(build(pool, *labels), s)
            assert rep["key"] == ClassLabel(frozenset(labels)).key
    classify_algebra(MetricLieAlgebra(s, two_step_nilpotent(3, 0).c))
    assert not {("L", 4), ("L", 5)} & set(s._cache)


def test_cache_holds_one_xi_stack_and_no_merged_operators(s3, frame3):
    # every class of a report and a Lie pipeline, in the standard frame and
    # a general one, leave one stack of the four xi maps and no merged
    # copy of L or AE
    from aqh import components
    from aqh.liealg import MetricLieAlgebra, classify_algebra, \
        two_step_nilpotent
    from aqh.threeform import xi_maps

    for s in (s3, frame3[1]):
        pool = components(random_W_element(s, 12), s, check=False)
        for r in range(len(pool) + 1):
            for labels in itertools.combinations(pool, r):
                rep = classification_report(build(pool, *labels), s)
                assert rep["key"] == ClassLabel(frozenset(labels)).key
        classify_algebra(MetricLieAlgebra(s, two_step_nilpotent(3, 0).c))
        assert not [k for k in s._cache
                    if k in ("ae_op", "xi_matrix") or isinstance(k, tuple)
                    and k[0] in ("DtD", "xia_matrix")]
        # (A V_A b)[x] = -<Ax hook b, w_A>: the xi and xi_A formulas of the
        # threeform module docstring, (V_A b)[y] = <e_y hook b, w_A> read
        # off the dense b
        dense = [AltForm(s.dim, 3, e).dense() for e in np.eye(s.tab.nforms(3))]
        V = np.array([[AltForm.from_dense(d[y]).coeffs for d in dense]
                      for y in range(s.dim)])
        AV = [s.mats[a] @ (V @ s.omega[a].coeffs) for a in AXES]
        want = (AV[0] + AV[1] + AV[2]) / (6 * s.k2)
        np.testing.assert_allclose(xi_maps(s)[0], want, rtol=0, atol=1e-13)
        for k in range(3):
            np.testing.assert_allclose(
                xi_maps(s)[k + 1], AV[k] / (4 * s.k1) - 1.5 / s.k1 * want,
                rtol=0, atol=1e-13)


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

    s = standard_structure.__wrapped__(2)    # fresh: empty caches
    rng = np.random.default_rng(0)
    for _, check in SECTIONS:
        assert all(r.passed for r in check(s, rng))
    assert not [k for k in s._cache if isinstance(k, tuple)
                and k[0] == "L" and k[1] >= 4]
    biggest = max(a.size for v in s._cache.values()
                  for a in _cached_arrays(v))
    assert biggest <= s.dim * s.tab.nforms(4) * s.tab.nforms(3) // 2


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0, 1.0])
def test_bad_tol_raises_value_error(s2, tol):
    # a tolerance must be finite with 0 < tol < 1; the error names tol and
    # does not blame the tensor (MembershipError)
    from aqh import MetricLieAlgebra, classify_algebra
    from aqh.torsion import require_in_W

    a = random_W_element(s2, 7)
    calls = (lambda: classification_report(a, s2, tol),
             lambda: require_in_W(a, s2, tol),
             lambda: classify_algebra(
                 MetricLieAlgebra(s2, np.zeros((8, 8, 8))), tol))
    for call in calls:
        with pytest.raises(ValueError, match="tol") as exc:
            call()
        assert type(exc.value) is ValueError


def _members(s, pool):
    """A member of every class of Table 2 at s.n: the sum of the pool's
    components of the row, in declaration order."""
    seen = {}
    for row in table2_rows(s):
        comps = frozenset(X for X in row.components if COMPONENT_DIMS[X](s.n))
        seen.setdefault(comps, sum((pool[X] for X in ComponentLabel
                                    if X in comps), MixedTorsion.zero(s.dim)))
    return seen


def _schur_vectors(conds):
    """The nu vectors of compiled conditions, in order."""
    for c in conds:
        if c[0] == "schur":
            yield np.asarray(c[1])
        elif c[0] == "or":
            for branch in c[1]:
                yield from _schur_vectors(branch)


def test_report_reads_no_five_form(s2, s3, pool2, pool3, monkeypatch):
    # once the constants exist, a report of any class, in the standard frame
    # and a rotated one, alternates nothing and recovers nothing from a
    # 5-form: its rows are Schur forms of the profile
    from aqh import classify as module
    from aqh import components
    from aqh.structure import random_rotation, rotate_adapted
    from aqh.threeform import _Ctx
    rng = np.random.default_rng(3)
    cases = []
    for s, pool in ((s2, pool2), (s3, pool3)):
        classification_report(pool[KH], s)  # the constants of s.n
        rot = rotate_adapted(random_rotation(rng), s)
        rpool = components(random_W_element(rot, 17), rot, check=False)
        cases += [(s, _members(s, pool)), (rot, _members(rot, rpool))]

    def refuse(*args, **kwargs):
        raise AssertionError("the report read a 5-form")

    # nor does it fill a table of fields
    for name in ("alternate5", "dOmega_op", "ctx_from_derived",
                 "ctx_from_torsion"):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(_Ctx, "with_f3", refuse)
    for s, members in cases:
        assert len(members) == (16 if s.n == 2 else 64)
        for comps, m in members.items():
            rep = classification_report(m, s)
            assert rep["key"] == ClassLabel(comps).key
            assert rep["table2"]["value"] < 1e-12
            assert rep.get("table2_dOmega", rep.get("table3"))["value"] < 1e-12


def test_schur_constants_independent_of_frame(s2, s3, rng):
    # constants measured on a rotated structure are those of the standard
    # one, and there the report's rows match the direct routes
    from aqh import components
    from aqh.classify import _build_schur_table, schur_table
    from aqh.structure import random_rotation, rotate_adapted

    for s in (s2, s3):
        rot = rotate_adapted(random_rotation(rng), s)
        want, got = schur_table(s), _build_schur_table(rot)
        np.testing.assert_allclose(got.alpha, want.alpha, rtol=0, atol=1e-12)
        for column in ("col2", "col3", "table3"):
            assert len(getattr(got, column)) == len(getattr(want, column))
            for g, w in zip(getattr(got, column), getattr(want, column)):
                gv, wv = list(_schur_vectors(g)), list(_schur_vectors(w))
                assert len(gv) == len(wv)
                for x, y in zip(gv, wv):
                    np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
        pool = components(random_W_element(rot, 29), rot, check=False)
        for comps, m in _members(rot, pool).items():
            # the report of a member, and the Schur forms of its row on the
            # member plus one outside component, where no residual is zero
            out = [X for X in pool if X not in comps
                   and COMPONENT_DIMS[X](s.n)]
            check_schur_rows(m, comps, rot, True)
            if out:
                check_schur_rows(m + pool[out[0]], comps, rot, False)


def check_schur_rows(t, comps, s, report):
    """Rows of the class comps on t by the report's Schur forms (through
    classification_report itself when report) against the direct routes,
    within 1e-12 |t|, and the report's wedge criteria against wedge_criteria."""
    from aqh.classify import schur_table
    from aqh.projectors import profile

    n = s.n
    row2 = table2_rows(s).by_id[comps]
    rows3 = [r for r in table3_rows(s) if comps <= r.components]
    row3 = min(rows3, key=lambda r: len(r.components)) if rows3 else None
    direct = {"table2": (row2, "col2", col2(t, s, row2))}
    if n >= 3:
        direct["table2_dOmega"] = (row2, "col3", col3(t, s, row2))
    elif row3 is not None:
        direct["table3"] = (row3, "table3", col3(t, s, row3))
    if report:
        rep = classification_report(t, s)
        assert rep["wedge_criteria"] == wedge_criteria(alternate5(t), s)
        got = {k: (rep[k]["value"], rep[k].get("residuals", []))
               for k in direct}
    else:
        ctx = torsion_ctx(t, s)
        ctx.profile = [profile(t, s).norms[X] for X in ComponentLabel]
        got = {}
        for k, (row, column, _) in direct.items():
            rr = schur_table(s).evaluate(column, row, ctx)
            got[k] = (rr.value, [r / rr.scale for r in rr.residuals])
            # the Table-3 row may hold the added component
            assert k == "table3" or rr.value > 1e-3, (k, row.key)
    for k, (_, _, rr) in direct.items():
        assert abs(got[k][0] - rr.value) <= 1e-12, k
        for x, y in zip(got[k][1], rr.residuals):
            assert abs(x - y / rr.scale) <= 1e-12, k


def test_wedge_criteria_refuse_forms_off_the_alternation(s2, s3):
    # a random 5-form misses star_inv(star dOm ^ w_I ^ w_I) = -12 xi - 8 k1
    # xi_I at n=3, so its wedge norms mean nothing; at n=2 it holds on
    # every 5-form
    rng = np.random.default_rng(8)
    f = AltForm(s3.dim, 5, rng.standard_normal(s3.tab.nforms(5)))
    with pytest.raises(ValueError, match="not the alternation"):
        wedge_criteria(f, s3)
    f2 = AltForm(s2.dim, 5, rng.standard_normal(s2.tab.nforms(5)))
    assert set(wedge_criteria(f2, s2)) == {"EH_zero", "ES3H_zero",
                                           "EHS3H_zero"}
    assert all(wedge_criteria(AltForm.zero(s3.dim, 5), s3).values())


def _tags(conds):
    for c in conds:
        if c[0] == "or":
            for branch in c[1]:
                yield from _tags(branch)
        else:
            yield c[0]


def test_wedge_rows_refuse_forms_off_the_alternation(s2, s3):
    # the rows that read wAAeq or wAA0 refuse a random n=3 5-form, as
    # wedge_criteria does; wOm0 = |star(dOm) ^ Omega| is a Hodge identity on
    # every 5-form, so its row reads it; at n=2 every row reads every 5-form
    from aqh.threeform import wedge_norms

    rng = np.random.default_rng(8)
    f = AltForm(s3.dim, 5, rng.standard_normal(s3.tab.nforms(5)))
    refused = 0
    for row in table2_rows(s3):
        if {"wAAeq", "wAA0"} & set(_tags(row.col3)):
            refused += 1
            with pytest.raises(ValueError, match="not the alternation"):
                col3(f, s3, row)
        else:
            col3(f, s3, row)
    assert refused == 2
    d = derived_ctx(f, s3)
    assert wedge_norms(d.dstar, d.xi, 3)["wOm0"] == \
        pytest.approx(wedge(s3.star(f), s3.Omega).norm(), rel=1e-12)
    f2 = AltForm(s2.dim, 5, rng.standard_normal(s2.tab.nforms(5)))
    for row in table3_rows(s2):
        col3(f2, s2, row)
