"""The torsion space W: fiber, embedding, extraction, membership."""

import itertools

import numpy as np
import pytest

from aqh import (
    MembershipError,
    MixedTorsion,
    extract_cA,
    from_nabla_omegas,
    random_W_element,
    w_dim,
)
from aqh.structure import AXES
from aqh.verify import dimension_certificate
from aqh.torsion import (
    _fiber_maps,
    _w_project,
    family_conditions,
    fiber_basis_matrix,
    reassemble,
    require_in_W,
)
from reference import (
    F_map,
    MixedTwoFormFamily,
    f_inverse_raw,
    fiber_project,
    fiber_residuals,
    tuples,
)


def random_family(s, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((s.dim,) * 3)
    return MixedTwoFormFamily(s.dim, raw - raw.transpose(0, 2, 1))


def wedge22_reference(mats, omega):
    """Row-wise wedge of a stack of antisymmetric-matrix 2-forms with a fixed
    2-form, expanded over the six (2, 2)-shuffles."""
    a, b, c, d = np.array(list(itertools.combinations(
        range(omega.shape[0]), 4))).T
    M, N = mats, omega
    return (
        M[..., a, b] * N[c, d] - M[..., a, c] * N[b, d]
        + M[..., a, d] * N[b, c] + M[..., b, c] * N[a, d]
        - M[..., b, d] * N[a, c] + M[..., c, d] * N[a, b]
    )


def test_fiber_projector_idempotent(s2):
    c = random_family(s2, 0)
    p1 = fiber_project(c, s2)
    p2 = fiber_project(p1, s2)
    np.testing.assert_allclose(p1.mats, p2.mats, atol=1e-12)
    r1, r2 = fiber_residuals(p1, s2)
    assert max(r1, r2) / p1.norm() < 1e-10


def test_fiber_projector_kills_kahler_rows(s2):
    rows = np.tile(s2.I, (8, 1, 1))
    out = fiber_project(MixedTwoFormFamily(8, rows), s2)
    assert out.norm() < 1e-12


def test_conjugation_sum_eigenvalues(s2):
    # T c = sum_A c(A., A.) has eigenvalues exactly {3, -1} on 2-forms
    N2 = s2.tab.nforms(2)
    pairs = np.asarray(tuples(8, 2))
    T = np.zeros((N2, N2))
    for col in range(N2):
        M = np.zeros((8, 8))
        i, j = pairs[col]
        M[i, j], M[j, i] = 1.0, -1.0
        img = sum(s2.mats[ax].T @ M @ s2.mats[ax] for ax in AXES)
        T[:, col] = img[pairs[:, 0], pairs[:, 1]]
    ev = np.linalg.eigvalsh(0.5 * (T + T.T))
    assert np.abs((ev - 3.0) * (ev + 1.0)).max() < 1e-9


def test_F_zero(s2):
    z = MixedTwoFormFamily(8, np.zeros((8, 8, 8)))
    assert F_map(z, s2).norm() == 0.0


def test_F_round_trips(s2, s3):
    for s in (s2, s3):
        for seed in range(20):
            c = fiber_project(random_family(s, seed), s)
            a = F_map(c, s)
            back = f_inverse_raw(a, s)
            assert np.linalg.norm(back.mats - c.mats) / c.norm() < 1e-9
            again = F_map(back, s)
            assert np.linalg.norm(again.rows - a.rows) / a.norm() < 1e-9


def test_F_inverse_output_in_fiber(s2):
    a = random_W_element(s2, 3)
    require_in_W(a, s2)
    c = f_inverse_raw(a, s2)
    r1, r2 = fiber_residuals(c, s2)
    assert max(r1, r2) / c.norm() < 1e-9


def test_F_inverse_rejects_non_members(s2):
    bad = MixedTorsion(8, np.tile(s2.Omega.coeffs, (8, 1)))
    with pytest.raises(MembershipError):
        require_in_W(bad, s2)


def test_embedded_rows_have_L_eigenvalue_two(s2):
    a = random_W_element(s2, 4)
    L4 = s2.L_matrix(4)
    assert np.linalg.norm(a.rows @ L4.T - 2 * a.rows) / a.norm() < 1e-12


def test_w_project_residual(s2):
    a = random_W_element(s2, 5)
    assert _w_project(a, s2)[1] < 1e-12
    bad = MixedTorsion(8, np.tile(s2.Omega.coeffs, (8, 1)))
    assert _w_project(bad, s2)[1] > 1e-3


def test_checked_w_coords_are_the_membership_product(s2):
    from aqh.torsion import w_coords

    a = random_W_element(s2, 5)
    C = a.rows @ fiber_basis_matrix(s2)
    # the coordinates the membership test formed, not a second product
    assert np.array_equal(require_in_W(a, s2), C)
    assert np.array_equal(w_coords(a, s2), C)
    # w_coords is the plain product; require_in_W is the checked route
    bad = MixedTorsion(8, np.tile(s2.Omega.coeffs, (8, 1)))
    assert np.array_equal(w_coords(bad, s2),
                          bad.rows @ fiber_basis_matrix(s2))
    with pytest.raises(MembershipError):
        require_in_W(bad, s2)


def test_extract_cA_conditions_and_reassembly(s2, s3):
    for s in (s2, s3):
        a = random_W_element(s, 6)
        cA = extract_cA(a, s)
        conds = family_conditions(cA, s)
        assert max(conds.values()) / a.norm() < 1e-9
        re = reassemble(cA, s)
        assert np.linalg.norm(re.rows - a.rows) / a.norm() < 1e-9


def test_extract_cA_zero(s2):
    cA = extract_cA(MixedTorsion.zero(8), s2)
    assert cA.shape == (3, 8, 8, 8) and not cA.any()


def test_from_nabla_omegas_validation(s2):
    bad = random_family(s2, 7).mats
    with pytest.raises(MembershipError):
        from_nabla_omegas(np.stack([bad, bad, bad]), s2)


def test_from_nabla_omegas_matches_direct_derivative(s2):
    from aqh import koszul, nabla_Omega, nabla_omegas, two_step_nilpotent

    g = two_step_nilpotent(2, 11)
    G = koszul(g)
    direct = nabla_Omega(g, G)
    assembled = from_nabla_omegas(2.0 * nabla_omegas(g, G), s2)
    assert np.linalg.norm(assembled.rows - direct.rows) / direct.norm() < 1e-12


def test_extracted_triple_traces_vanish(s2):
    # after extraction every row of c_I is trace-free against w_J, w_K
    a = random_W_element(s2, 8)
    cA = extract_cA(a, s2)
    for k in range(3):
        for bname in AXES:
            tr = 0.5 * np.einsum("xij,ij->x", cA[k], s2.mats[bname])
            assert np.abs(tr).max() / a.norm() < 1e-9


def test_random_W_element_determinism(s2):
    a = random_W_element(s2, 12)
    b = random_W_element(s2, 12)
    np.testing.assert_array_equal(a.rows, b.rows)
    c = random_W_element(s2, 13)
    gram = np.array([
        [np.sum(a.rows * a.rows), np.sum(a.rows * c.rows)],
        [np.sum(c.rows * a.rows), np.sum(c.rows * c.rows)]])
    assert np.linalg.det(gram) > 1e-6


def test_torsion_space_dimension(s2, s3):
    for s, expected in ((s2, 120), (s3, 504)):
        assert w_dim(s.n) == expected
        Q = fiber_basis_matrix(s)
        assert s.dim * Q.shape[1] == expected
        samples = np.stack([random_W_element(s, 900 + i).rows.ravel()
                            for i in range(expected + 12)])
        sv = np.linalg.svd(samples, compute_uv=False)
        assert int((sv > sv[0] * 1e-10).sum()) == expected


def _distance(row):
    return float(row.detail.split("span(Q) ")[1].split(",")[0])


def test_dimension_check_fails_off_W(s2):
    # M plus a rank-one term of relative size 1e-6 off span(Q): its range
    # has rank 16 and lies about 1e-6 from span(Q)
    Q, M = _fiber_maps(s2)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(len(Q))
    u -= Q @ (Q.T @ u)
    v = rng.standard_normal(M.shape[1])
    off = M + 1e-6 * np.linalg.norm(M) * np.outer(u / np.linalg.norm(u),
                                                  v / np.linalg.norm(v))
    row = dimension_certificate(s2, Q, off)
    assert not row.passed
    assert "map 128, expected 120" in row.detail
    assert _distance(row) > 1e-7


def test_dimension_check_fails_on_rank(s2):
    # M without its smallest nonzero singular value: rank 14 of 15, its
    # range still in span(Q)
    Q, M = _fiber_maps(s2)
    assert dimension_certificate(s2, Q, M).passed
    u, sv, vt = np.linalg.svd(M, full_matrices=False)
    r = Q.shape[1] - 1
    row = dimension_certificate(s2, Q, (u[:, :r] * sv[:r]) @ vt[:r])
    assert not row.passed
    assert "map 112, expected 120" in row.detail
    assert _distance(row) < 1e-10


def test_fiber_basis_matches_per_column_build(s2, s3):
    """The batched build spans the same subspace as F(fiber_project(.))
    applied one basis 2-form at a time."""
    for s in (s2, s3):
        Q = fiber_basis_matrix(s)
        cols = []
        for i, j in tuples(s.dim, 2):
            mats = np.zeros((s.dim,) * 3)
            mats[0, i, j], mats[0, j, i] = 1.0, -1.0
            fam = fiber_project(MixedTwoFormFamily(s.dim, mats), s)
            cols.append(F_map(fam, s).rows[0])
        u, sv, _ = np.linalg.svd(np.stack(cols, axis=1), full_matrices=False)
        ref = u[:, :Q.shape[1]]
        assert sv[Q.shape[1]] < 1e-10
        np.testing.assert_allclose(Q @ Q.T, ref @ ref.T, atol=1e-12)


def test_embedding_and_reassembly_match_six_term_wedge(s2, s3, frame3):
    for s in (s2, s3, frame3[1]):
        c = random_family(s, 3)
        want = sum(0.25 * wedge22_reference(-(A.T @ c.mats + c.mats @ A), A)
                   for A in (s.I, s.J, s.K))
        np.testing.assert_allclose(F_map(c, s).rows, want,
                                   rtol=0, atol=1e-12)
        cA = np.stack([random_family(s, 4 + k).mats for k in range(3)])
        want = sum(wedge22_reference(c, A) for c, A in zip(cA, s.IJK))
        np.testing.assert_allclose(reassemble(cA, s).rows, want,
                                   rtol=0, atol=1e-12)


def test_random_W_element_is_F_of_fiber_projection(s2, s3):
    # the one-product sampler against its definition on the same draw
    for s in (s2, s3):
        for seed in (0, 7, 71):
            a = random_W_element(s, seed)
            raw = np.random.default_rng(seed).standard_normal((s.dim,) * 3)
            fam = fiber_project(
                MixedTwoFormFamily(s.dim, raw - raw.transpose(0, 2, 1)), s)
            ref = F_map(fam, s)
            assert (np.linalg.norm(a.rows - ref.rows)
                    <= 1e-14 * np.linalg.norm(ref.rows))
            assert _w_project(a, s)[1] <= 1e-12


def test_f_inverse_raw_matches_contraction(s2, s3):
    from aqh.threeform import r_matrix

    for s in (s2, s3):
        a = random_W_element(s, 5)
        R = r_matrix(s).reshape(s.dim, -1, s.dim)
        ref = np.einsum("xu,yuz->xyz", a.rows, R) / (-8 * s.n)
        np.testing.assert_allclose(f_inverse_raw(a, s).mats, ref,
                                   rtol=0, atol=1e-14 * np.abs(ref).max())
