"""Three-form analysis: xi maps, projectors, membership rows, right inverse."""

import math

import numpy as np
import pytest

from aqh import (
    AltForm,
    contract12,
    hat_dstar,
        interior,
    proj3,
    table1_residuals,
    wedge,
    wedge1,
)
from aqh.structure import AXES
from aqh.threeform import (
    TABLE1_COMPONENTS,
    proj3_parts,
    r_matrix,
    xi_maps,
    )
from aqh.torsion import _w_project
from aqh.verify import table1_prefix_free_residual


def rand3(rng, dim):
    return AltForm(dim, 3, rng.standard_normal(math.comb(dim, 3)))


def one_forms(b, s):
    """The stack (4, dim) of xi, xi_I, xi_J, xi_K of the 3-form b."""
    return xi_maps(s) @ b.coeffs


def brute_xi(b, s):
    """Independent evaluation of the defining double contraction."""
    d = b.dense()
    out = np.zeros(s.dim)
    for ax in AXES:
        A = s.mats[ax]
        out += np.einsum("sr,rsy,yx->x", A, d, A)
    return out / (12 * s.k2)


def test_xi_matches_brute_force(s2, s3, rng):
    for s in (s2, s3):
        b = rand3(rng, s.dim)
        np.testing.assert_allclose(one_forms(b, s)[0], brute_xi(b, s),
                                   atol=1e-12)


def test_xi_on_hook_forms(s2, rng):
    x = rng.standard_normal(8)
    b = interior(x, s2.Omega)
    # every row of the stack, xi and the triple, is x
    np.testing.assert_allclose(one_forms(b, s2), np.tile(x, (4, 1)),
                               atol=1e-12)


def test_xi_zero_cases(s2, rng):
    assert np.abs(one_forms(AltForm.zero(8, 3), s2)).max() == 0.0
    bK = proj3(rand3(rng, 8), "KH", s2)
    # xi and each of the triple
    assert np.abs(one_forms(bK, s2)).max() / bK.norm() < 1e-12


def test_xi_triple_mean(s2, rng):
    # the global one-form is the mean of the triple on projected input
    b = proj3(rand3(rng, 8), "EHS3H", s2)
    xi = one_forms(b, s2)
    np.testing.assert_allclose(xi[0], xi[1:].mean(axis=0), atol=1e-12)


def test_es3h_parameterization(s2, rng):
    # b = -2 sum_A (A z_A) ^ w_A with sum z_A = 0 lies in ES3H: xi = 0 and
    # the triple recovers the z's
    z = {ax: rng.standard_normal(8) for ax in ("I", "J")}
    z["K"] = -z["I"] - z["J"]
    b = AltForm.zero(8, 3)
    for ax in AXES:
        b = b + (-2.0) * wedge1(s2.mats[ax] @ z[ax], s2.omega[ax])
    xi = one_forms(b, s2)
    assert np.abs(xi[0]).max() < 1e-12
    for k, ax in enumerate(AXES):
        np.testing.assert_allclose(xi[k + 1], z[ax], atol=1e-12)
    assert max(table1_residuals(b, "E.S3H", s2)) <= 1e-9 * b.norm()


def proj3_mats(s):
    """The matrices of the four parts that proj3_parts applies."""
    P = proj3_parts(np.eye(s.tab.nforms(3)), s)
    return {lab: P[:, k].T for k, lab in enumerate(("KH", "EH", "ES3H",
                                                     "L3ES3H"))}


def test_proj3_traces_and_algebra(s2, s3):
    want = {2: {"KH": 32, "EH": 8, "L3ES3H": 0, "ES3H": 16},
            3: {"KH": 128, "EH": 12, "L3ES3H": 56, "ES3H": 24}}
    for s in (s2, s3):
        mats = proj3_mats(s)
        for lab, tr in want[s.n].items():
            assert np.trace(mats[lab]) == pytest.approx(tr, abs=1e-8)
        total = sum(mats.values())
        assert np.abs(total - np.eye(s.tab.nforms(3))).max() < 1e-10
        for lab, P in mats.items():
            assert np.abs(P @ P - P).max() < 1e-10
        assert np.trace(mats["EH"] + mats["ES3H"]) == pytest.approx(12 * s.n)


def test_proj3_decomposition_consistency(s2, rng):
    b = rand3(rng, 8)
    lhs = proj3(b, "EH", s2) + proj3(b, "KH", s2)
    rhs = proj3(b, "plus3", s2)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_proj3_rejects_unknown_label(s2, rng):
    with pytest.raises(KeyError):
        proj3(rand3(rng, 8), "nope", s2)


def test_l3es3h_projector_vanishes_at_dim8(s2):
    assert np.linalg.norm(proj3_mats(s2)["L3ES3H"]) < 1e-10


def test_table1_members_and_rejections(s3, rng):
    b = rand3(rng, 12)
    parts = {lab: proj3(b, lab, s3) for lab in ("KH", "EH", "L3ES3H", "ES3H")}
    for row_id, comps in TABLE1_COMPONENTS.items():
        member = AltForm.zero(12, 3)
        for lab in comps:
            member = member + parts[lab]
        if member.norm() > 1e-10:
            assert max(table1_residuals(member, row_id, s3)) \
                <= 1e-9 * member.norm(), row_id
        outside = [lab for lab in parts if lab not in comps]
        if outside and row_id != "full":
            nm = member + parts[outside[0]]
            assert max(table1_residuals(nm, row_id, s3)) \
                > 1e-6 * nm.norm(), row_id


def test_table1_zero_in_every_row(s2):
    z = AltForm.zero(8, 3)
    for row_id in TABLE1_COMPONENTS:
        assert max(table1_residuals(z, row_id, s2)) == 0.0


def test_table1_hook_form_is_EH(s2, rng):
    b = interior(rng.standard_normal(8), s2.Omega)
    assert max(table1_residuals(b, "EH", s2)) / b.norm() < 1e-12


def test_table1_es3h_prefix_readings(s3, rng):
    # of the two displayed variants for the "KH+E.S3H" row, only the one
    # with the extra complex-structure action annihilates members
    b = rand3(rng, 12)
    mix = proj3(b, "KH", s3) + proj3(b, "ES3H", s3)
    with_prefix = max(table1_residuals(mix, "KH+E.S3H", s3)) / mix.norm()
    without = table1_prefix_free_residual(mix, s3) / mix.norm()
    assert with_prefix < 1e-9
    assert without > 1e-2


def _table1_reference(b, row_id, s):
    """The row's residual norms, each condition written out on its own."""
    Lb = s.L_map(b).coeffs
    bb = b.coeffs
    xi = one_forms(b, s)
    xiC = interior(xi[0], s.Omega).coeffs
    m = sum(wedge(AltForm(s.dim, 1, s.mats[a] @ xi[k + 1]), s.omega[a]).coeffs
            for k, a in enumerate(AXES))
    nrm = np.linalg.norm
    xia = [nrm(xi[1]), nrm(xi[2]), nrm(xi[3])]
    xia_eq = [nrm(xi[1] - xi[2]), nrm(xi[2] - xi[3])]
    return {
        "0": [nrm(bb)],
        "KH": [nrm(Lb - 3 * bb), nrm(xi[0])],
        "EH": [nrm(bb - xiC)],
        "L3E.S3H": [nrm(Lb + 3 * bb)] + xia,
        "E.S3H": [nrm(bb + 2 * m), nrm(xi[0])],
        "(K+E)H": [nrm(Lb - 3 * bb)],
        "KH+L3E.S3H": xia,
        "KH+E.S3H": [nrm(Lb - 3 * bb - 12 * m)],
        "EH+L3E.S3H": [nrm(Lb + 3 * bb - 6 * xiC)] + xia_eq,
        "E(H+S3H)": [nrm(bb + 2 * m)],
        "(L3E+E)S3H": [nrm(Lb + 3 * bb)],
        "(K+E)H+L3E.S3H": xia_eq,
        "(K+E)H+E.S3H": [nrm(Lb - 3 * bb - 6 * xiC - 12 * m)],
        "KH+(L3E+E)S3H": [nrm(xi[0])],
        "EH+(L3E+E)S3H": [nrm(Lb + 3 * bb - 6 * xiC)],
        "full": [0.0],
    }[row_id]


def test_table1_matches_explicit_formulas(s2, s3, rng):
    from aqh.structure import random_rotation, rotate_adapted

    for s in (s2, s3, rotate_adapted(random_rotation(rng), s3)):
        b = rand3(rng, s.dim)
        parts = {lab: proj3(b, lab, s)
                 for lab in ("KH", "EH", "L3ES3H", "ES3H")}
        for row_id, comps in TABLE1_COMPONENTS.items():
            member = AltForm.zero(s.dim, 3)
            for lab in comps:
                member = member + parts[lab]
            forms = [member] + [member + parts[lab] for lab in parts
                                if lab not in comps][:1]
            for f in forms:
                np.testing.assert_allclose(
                    max(table1_residuals(f, row_id, s)),
                    max(_table1_reference(f, row_id, s)), rtol=1e-12,
                    atol=1e-12 * f.norm(), err_msg=f"{s.n} {row_id}")


def test_table1_builds_no_torsion_maps():
    from aqh import standard_structure

    s = standard_structure.__wrapped__(3)    # fresh: empty caches
    b = rand3(np.random.default_rng(3), s.dim)
    for row_id in TABLE1_COMPONENTS:
        table1_residuals(b, row_id, s)
    torsion_keys = {"fiber_basis", "w_core", "se_core", "r_matrix",
                    "dOmega"}
    assert not [k for k in s._cache
                if k in torsion_keys or (isinstance(k, tuple)
                                         and k[0] in ("ae", "field_map"))]


def test_r_matrix_matches_wedges(s2, rng):
    # rows x ^ (zeta hook Omega) - zeta ^ (x hook Omega), one wedge at a time
    zeta = rng.standard_normal(8)
    rows = (r_matrix(s2) @ zeta).reshape(8, -1)
    for x in range(8):
        ex = np.eye(8)[x]
        want = (wedge1(ex, interior(zeta, s2.Omega)).coeffs
                - wedge1(zeta, interior(ex, s2.Omega)).coeffs)
        np.testing.assert_allclose(rows[x], want, atol=1e-12)


def test_hat_dstar_zero(s2):
    assert hat_dstar(AltForm.zero(8, 3), s2).norm() == 0.0


def test_hat_dstar_right_inverse(s2, s3, rng):
    for s in (s2, s3):
        for _ in range(20):
            b = rand3(rng, s.dim)
            back = contract12(hat_dstar(b, s))
            assert np.linalg.norm(back.coeffs - b.coeffs) / b.norm() < 1e-9


def test_hat_dstar_lands_in_torsion_space(s2, s3, rng):
    for s in (s2, s3):
        h = hat_dstar(rand3(rng, s.dim), s)
        resid = _w_project(h, s)[1]
        assert resid <= 1e-8, resid


def test_hat_dstar_inverts_contraction_of_members(s3, pool3):
    import aqh.projectors as PR

    # for b := d*a the right inverse rebuilds each visible component of a
    a = sum(pool3.values(), start=list(pool3.values())[0] * 0.0)
    ds = contract12(a)
    for X, lab in ((PR.ComponentLabel.KH, "KH"), (PR.ComponentLabel.EH, "EH"),
                   (PR.ComponentLabel.ES3H, "ES3H"),
                   (PR.ComponentLabel.L3ES3H, "L3ES3H")):
        part = hat_dstar(proj3(ds, lab, s3), s3)
        assert np.linalg.norm(part.rows - pool3[X].rows) / a.norm() < 1e-9


def test_xi_equivariance_under_rotation(s2, rng):
    from aqh import random_rotation, rotate_adapted

    b = rand3(rng, 8)
    s_new = rotate_adapted(random_rotation(rng), s2)
    t_old, t_new = one_forms(b, s2), one_forms(b, s_new)
    np.testing.assert_allclose(t_new[0], t_old[0], atol=1e-10)
    # the triple transforms, its reassembly does not
    old = AltForm.zero(8, 3)
    new = AltForm.zero(8, 3)
    for k, ax in enumerate(AXES):
        old = old + wedge1(s2.mats[ax] @ t_old[k + 1], s2.omega[ax])
        new = new + wedge1(s_new.mats[ax] @ t_new[k + 1], s_new.omega[ax])
    np.testing.assert_allclose(new.coeffs, old.coeffs, atol=1e-10)


def test_hook_readers_match_slot_slices(s2, s3, frame3, rng):
    # the readers of FormTables.hook against e_y hook b read off the dense
    # tensor: the columns e_y hook Omega, the rows x hook b of the
    # embedding, and d* on W coordinates, entry (t, (y, j)) the t-th
    # coefficient of -e_y hook Q[:, j]
    from aqh.threeform import hook_omega_matrix, se_core, torsion_embed
    from aqh.torsion import fiber_basis_matrix
    from aqh.verify import dstar_on_W
    from reference import hooks

    for s in (s2, s3, frame3[1]):
        np.testing.assert_array_equal(hook_omega_matrix(s),
                                      hooks(s.Omega).T)
        b = rand3(rng, s.dim)
        np.testing.assert_allclose(torsion_embed(b, s).rows,
                                   hooks(b) @ se_core(s).T, rtol=0,
                                   atol=1e-13 * b.norm())
        Q = fiber_basis_matrix(s)
        want = -np.stack([hooks(AltForm(s.dim, 4, q)) for q in Q.T])
        np.testing.assert_array_equal(dstar_on_W(s), want.transpose(
            2, 1, 0).reshape(s.tab.nforms(3), -1))
