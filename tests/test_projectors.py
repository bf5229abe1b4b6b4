"""Six irreducible components of the torsion space."""

import numpy as np
import pytest

from aqh import (
    COMPONENT_DIMS,
    ComponentLabel,
    MembershipError,
    MixedTorsion,
    components,
    contract12,
    profile,
    random_W_element,
)
from reference import component_matrices_on_W


def test_eigen_split_partition(s2):
    from aqh.projectors import lcal_hpart
    from aqh.torsion import w_coords, w_embed

    a = random_W_element(s2, 1)
    C = w_coords(a, s2)
    h = w_embed(lcal_hpart(C, s2), s2)
    sh = w_embed(C - lcal_hpart(C, s2), s2)
    np.testing.assert_allclose((h + sh).rows, a.rows, atol=1e-12)
    np.testing.assert_allclose(s2.lcal_raw(h).rows, 4 * h.rows, atol=1e-10)
    np.testing.assert_allclose(s2.lcal_raw(sh).rows, -2 * sh.rows, atol=1e-10)


def test_component_completeness_orthogonality(s2, pool2):
    a = sum(pool2.values(), start=MixedTorsion.zero(8))
    comps = components(a, s2, check=False)
    total = sum(comps.values(), start=MixedTorsion.zero(8))
    assert np.linalg.norm(total.rows - a.rows) / a.norm() < 1e-12
    labs = list(ComponentLabel)
    for i, X in enumerate(labs):
        for Y in labs[i + 1:]:
            ip = float(np.sum(comps[X].rows * comps[Y].rows))
            assert abs(ip) / a.norm() ** 2 < 1e-12


def test_component_idempotency(s3, pool3):
    for X in ComponentLabel:
        c = pool3[X]
        parts = components(c, s3, check=False)
        cc = parts[X]
        assert np.linalg.norm(cc.rows - c.rows) / max(c.norm(), 1e-30) < 1e-9
        for Y in ComponentLabel:
            if Y is X:
                continue
            cross = parts[Y]
            assert cross.norm() / max(c.norm(), 1e-30) < 1e-9


def test_component_traces(s2, s3):
    for s in (s2, s3):
        mats = component_matrices_on_W(s)
        for X in ComponentLabel:
            tr = float(np.trace(mats[X]))
            assert tr == pytest.approx(COMPONENT_DIMS[X](s.n), abs=1e-6)
        assert float(np.trace(mats["hpart"])) == pytest.approx(
            40 if s.n == 2 else 168, abs=1e-6)
        assert float(np.trace(mats["s3hpart"])) == pytest.approx(
            80 if s.n == 2 else 336, abs=1e-6)


def test_zero_components_at_dim8(s2, pool2):
    for X in (ComponentLabel.L3EH, ComponentLabel.L3ES3H):
        assert pool2[X].norm() < 1e-10


def test_contraction_kernel(s2, s3, pool2, pool3):
    for s, pool in ((s2, pool2), (s3, pool3)):
        scale = max(c.norm() for c in pool.values())
        for X in (ComponentLabel.L3EH, ComponentLabel.KS3H):
            assert contract12(pool[X]).norm() / scale < 1e-10


def test_profile(s2, pool2):
    a = pool2[ComponentLabel.KH] + pool2[ComponentLabel.EH]
    prof = profile(a, s2)
    assert prof.pythagoras_residual < 1e-8
    assert prof.norms[ComponentLabel.KH] == pytest.approx(
        pool2[ComponentLabel.KH].norm())
    assert prof.norms[ComponentLabel.ES3H] / prof.total < 1e-9
    z = profile(MixedTorsion.zero(8), s2)
    assert z.total == 0.0 and all(v < 1e-300 for v in z.norms.values())


def test_profile_pythagoras_many(s2):
    for k in range(10):
        a = random_W_element(s2, 700 + k)
        assert profile(a, s2).pythagoras_residual < 1e-8


def test_membership_guard(s2):
    bad = MixedTorsion(8, np.tile(s2.Omega.coeffs, (8, 1)))
    with pytest.raises(MembershipError):
        components(bad, s2)


def test_pure_type_contraction_formula(s2, pool2):
    """Rows of a KH tensor are recovered from its contraction, and the
    associated one-forms collapse."""
    from aqh import torsion_embed
    from aqh.threeform import xi_maps

    aK = pool2[ComponentLabel.KH]
    ds = contract12(aK)
    rebuilt = torsion_embed(ds, s2) * (1.0 / 6.0)
    assert np.linalg.norm(rebuilt.rows - aK.rows) / aK.norm() < 1e-9
    xi = xi_maps(s2) @ ds.coeffs
    assert np.abs(xi[0]).max() / aK.norm() < 1e-9
    assert np.abs(xi[1] - xi[2]).max() / aK.norm() < 1e-9


def test_mixed_eigen_contraction_formula(s3, pool3):
    from aqh import torsion_embed
    from aqh.threeform import xi_maps

    aM = pool3[ComponentLabel.L3EH] + pool3[ComponentLabel.L3ES3H]
    ds = contract12(aM)
    lhs = s3.lcal_raw(aM)
    rhs = MixedTorsion(12, 4 * aM.rows + torsion_embed(ds, s3).rows)
    assert np.linalg.norm(lhs.rows - rhs.rows) / aM.norm() < 1e-9
    assert np.abs(xi_maps(s3)[0] @ ds.coeffs).max() / aM.norm() < 1e-9


def test_component_dims_closed_forms():
    """The closed forms reproduce the census at n = 2, 3 and add up to
    dim W for every n; no structure is built."""
    from aqh import w_dim

    order = (ComponentLabel.L3EH, ComponentLabel.KH, ComponentLabel.EH,
             ComponentLabel.L3ES3H, ComponentLabel.KS3H, ComponentLabel.ES3H)
    assert [COMPONENT_DIMS[X](2) for X in order] == [0, 32, 8, 0, 64, 16]
    assert [COMPONENT_DIMS[X](3) for X in order] == [28, 128, 12, 56, 256, 24]
    for n in range(2, 7):
        assert sum(COMPONENT_DIMS[X](n) for X in order) == w_dim(n)
    assert w_dim(4) == 1296


def _mixture(pool, seed, dim):
    rng = np.random.default_rng(seed)
    return sum((c * float(10.0 ** rng.uniform(-3, 3)) for c in pool.values()),
               start=MixedTorsion.zero(dim))


def _frames(s2, s3):
    from aqh import random_rotation, rotate_adapted

    q = random_rotation(np.random.default_rng(17))
    return (s2, s3, rotate_adapted(q, s3))


def test_core_matches_paper_route(s2, s3):
    """The W-coordinate core against hat_dstar o proj3 o d* and the dense
    Lcal eigen-split on full rows, in three frames."""
    from aqh.verify import paper_components

    for s in _frames(s2, s3):
        a = random_W_element(s, 31)
        m = _mixture(components(a, s), 32, s.dim)
        for t in (a, m):
            norms = profile(t, s).norms
            paper = paper_components(t, s)
            core = components(t, s)
            for X in ComponentLabel:
                assert abs(norms[X] - paper[X].norm()) < 1e-12 * t.norm()
                assert (np.linalg.norm(core[X].rows - paper[X].rows)
                        < 1e-12 * t.norm())


def test_membership_is_distance_to_W(s2, s3):
    from aqh import classification_report
    from aqh.torsion import _w_project, fiber_basis_matrix

    for s in _frames(s2, s3):
        a = _mixture(components(random_W_element(s, 33), s), 34, s.dim)
        assert _w_project(a, s)[1] < 1e-12
        Q = fiber_basis_matrix(s)
        raw = np.random.default_rng(35).standard_normal(a.rows.shape)
        off = raw - (raw @ Q) @ Q.T
        bad = a + MixedTorsion(s.dim, off) * (1e-6 * a.norm()
                                              / np.linalg.norm(off))
        assert _w_project(bad, s)[1] == pytest.approx(1e-6, rel=1e-3)
        for fn in (lambda: components(bad, s),
                   lambda: classification_report(bad, s)):
            with pytest.raises(MembershipError):
                fn()


def test_embeddings_land_in_W(s2, s3):
    """The covariant table column is evaluated on W coordinates, which needs
    the images of torsion_embed and of the zeta rows to lie in W."""
    from aqh import torsion_embed
    from aqh.exterior import AltForm
    from aqh.threeform import r_matrix
    from aqh.torsion import _w_project

    rng = np.random.default_rng(36)
    for s in _frames(s2, s3):
        b = AltForm(s.dim, 3, rng.standard_normal(s.tab.nforms(3)))
        rz = MixedTorsion.from_flat(
            s.dim, r_matrix(s) @ rng.standard_normal(s.dim))
        for t in (torsion_embed(b, s), rz):
            assert _w_project(t, s)[1] <= 1e-12


def _class_mixtures(s, seed):
    """One tensor per class: each subset of the nonzero components of a
    random element, weights spread over six decades."""
    labs = [X for X in ComponentLabel if COMPONENT_DIMS[X](s.n)]
    pool = components(random_W_element(s, seed), s)
    rng = np.random.default_rng(seed)
    for m in range(2 ** len(labs)):
        yield sum((pool[X] * float(10.0 ** rng.uniform(-3, 3))
                   for k, X in enumerate(labs) if m >> k & 1),
                  start=MixedTorsion.zero(s.dim))


def test_profile_matches_paper_route_on_every_class(s2, s3, frame3):
    """The Schur norms (c_X |P_X d* a| and the Lcal split of the d*-kernel
    residual) against the paper's route on full rows, on the 16 n=2 and 64
    n=3 classes, in the standard frame and a random O(4n) frame."""
    from aqh import QuatStructure, classification_report
    from aqh.verify import paper_components

    g, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
    frames = (s2, QuatStructure(2, g @ s2.I @ g.T, g @ s2.J @ g.T), s3,
              frame3[1])
    for s in frames:
        count = 0
        for t in _class_mixtures(s, 37):
            count += 1
            paper = {X: c.norm() for X, c in paper_components(t, s).items()}
            rep = classification_report(t, s)["profile"]["norms"]
            for X, v in profile(t, s).norms.items():
                assert abs(v - paper[X]) <= 1e-12 * max(t.norm(), 1e-300)
                assert rep[X.value] == v
        assert count == 2 ** (4 if s.n == 2 else 6)


def test_report_reads_lcal_once(s3, pool3, monkeypatch):
    import aqh.classify
    import aqh.projectors
    from aqh import classification_report, standard_structure

    # the first report builds the constants of n = 3, which read La of
    # their samples
    classification_report(pool3[ComponentLabel.KH], s3)
    calls = []
    lcal = aqh.projectors.lcal_coords

    def counted(*args):
        calls.append(1)
        return lcal(*args)

    monkeypatch.setattr(aqh.classify, "lcal_coords", counted)
    monkeypatch.setattr(aqh.projectors, "lcal_coords", counted)
    # the profile splits the d*-kernel residual once; the rows, La ones
    # included, are Schur forms of the profile and apply no Lcal
    assert classification_report(pool3[ComponentLabel.KH], s3)["key"] == "KH"
    assert len(calls) == 1
    assert classification_report(pool3[ComponentLabel.L3EH], s3)["key"] \
        == "L3EH"
    assert len(calls) == 2
    # the proj3 parts are applied through their factors and the interior
    # products read from FormTables.hook(3): the dense N3 x N3 maps cached
    # are L on 3-forms and the factor plus3 = (3 + L)/6
    s = standard_structure(3)
    for X in ComponentLabel:
        classification_report(pool3[X], s)
    N3 = s.tab.nforms(3)
    assert not {"proj3", "interior_stack"} & set(s._cache)
    arrays = [(k, v) for k, e in s._cache.items() for v in (
        e.values() if isinstance(e, dict) else
        e if isinstance(e, tuple) else [e]) if isinstance(v, np.ndarray)]
    assert not [k for k, v in arrays if v.shape == (4 * N3, N3)]
    assert sorted(str(k) for k, v in arrays if v.shape[-2:] == (N3, N3)) \
        == ["('L', 3)", "plus3"]


def test_split_coords_stack_matches_single_calls(s2, s3):
    from aqh.exterior import contract12
    from aqh.projectors import split_coords
    from aqh.torsion import w_coords

    for s in (s2, s3):
        tensors = [random_W_element(s, 600 + k) for k in range(3)]
        C = np.stack([w_coords(a, s) for a in tensors])
        ds = np.stack([contract12(a).coeffs for a in tensors])
        stack = split_coords(C, ds, s)
        for k in range(len(tensors)):
            one = split_coords(C[k], ds[k], s)
            for X, c in one.items():
                assert (np.abs(stack[X][k] - c).max()
                        <= 1e-14 * np.abs(C[k]).max()), (s.n, X)


@pytest.mark.parametrize("n", [2, 3])
def test_component_norms_of_a_stack_match_single_calls(n):
    # 50 tensors as verify's profile-pythagoras stacks them: for one tensor
    # the bits of the unstacked reading, which the report prints; for the
    # stack arrays equal to 1e-15 of each norm (of the tensor's norm for the
    # components of dimension 0 at n = 2, which are round-off)
    from aqh.projectors import component_norms
    from aqh.structure import standard_structure
    from aqh.torsion import fiber_basis_matrix
    import reference

    s = standard_structure(n)
    a = np.stack([random_W_element(s, 41_000 + k).rows for k in range(50)])
    C = a @ fiber_basis_matrix(s)
    ds = s.tab.contraction(4)(a.reshape(50, -1))
    stack = component_norms(C, ds, s)
    for k in range(50):
        one = component_norms(C[k], ds[k], s)
        assert one == reference.component_norms(C[k], ds[k], s)
        assert list(one) == list(stack)
        for X, v in one.items():
            assert type(v) is float and stack[X].shape == (50,)
            bound = v if COMPONENT_DIMS[X](n) else np.linalg.norm(a[k])
            assert abs(stack[X][k] - v) <= 1e-15 * bound, (k, X)
