"""Left-invariant pipeline: Koszul connection, differentials, Nijenhuis."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from aqh import (
    AlgebraError,
    AltForm,
    MetricLieAlgebra,
    algebra_from_json,
    alternate5,
    ce_d,
    classify_algebra,
    codiff_Omega,
    contract12,
    koszul,
    nabla_Omega,
    nabla_form,
    nijenhuis,
    standard_structure,
    two_step_nilpotent,
    VerificationError,
)
from aqh.structure import AXES, insert
from aqh.torsion import require_in_W
from aqh.exterior import tables, wedge1
from aqh.liealg import PIPELINE_CHECKS, _gray_residual, d_omegas, nabla_omegas
from reference import compound, nabla_dense, tuple_index, tuples
from reference import nabla_omega as nabla_omega_ref
from reference import nijenhuis as nijenhuis_ref

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "liealg")


def _abelian():
    return MetricLieAlgebra(standard_structure(2), np.zeros((8, 8, 8)))


def _algebra_json(g):
    """The JSON document of an algebra on the standard structure."""
    return {"n": g.structure.n, "structure": "standard", "brackets": [
        [int(i), int(j), int(k), float(g.c[i, j, k])]
        for i, j, k in zip(*np.nonzero(g.c)) if i < j]}


def test_antisymmetrization_and_jacobi():
    s = standard_structure(2)
    c = np.zeros((8, 8, 8))
    c[0, 1, 2] = 1.0  # not antisymmetric as given; gets projected
    g = MetricLieAlgebra(s, c)
    assert g.c[0, 1, 2] == pytest.approx(0.5)
    assert g.c[1, 0, 2] == pytest.approx(-0.5)
    bad = np.zeros((8, 8, 8))
    bad[0, 1, 1] = 1.0
    bad[1, 0, 1] = -1.0  # [e0, e1] = e1 alone violates Jacobi with nothing? it doesn't;
    # build a genuine violation instead: [e0,e1]=e2, [e0,e2]=0, [e1,e2]=e1
    bad = np.zeros((8, 8, 8))
    bad[0, 1, 2], bad[1, 0, 2] = 1.0, -1.0
    bad[1, 2, 1], bad[2, 1, 1] = 1.0, -1.0
    with pytest.raises(AlgebraError):
        MetricLieAlgebra(s, bad)


def test_nan_bracket_rejected():
    c = np.zeros((8, 8, 8))
    c[0, 1, 2] = np.nan
    with pytest.raises(AlgebraError):
        MetricLieAlgebra(standard_structure(2), c)


def test_koszul_abelian_is_flat():
    g = _abelian()
    assert np.abs(koszul(g)).max() == 0.0


def test_koszul_properties():
    g = two_step_nilpotent(2, 3)
    G = koszul(g)
    # metric compatibility and torsion-freeness against the bracket table
    assert np.abs(G + G.transpose(0, 2, 1)).max() < 1e-12
    assert np.abs(G - G.transpose(1, 0, 2) - g.c).max() < 1e-12


def test_nabla_metric_vanishes():
    g = two_step_nilpotent(2, 4)
    G = koszul(g)
    assert np.abs(nabla_dense(g, G, np.eye(8))).max() < 1e-13


def test_nabla_form_leibniz(rng):
    from aqh import wedge

    g = two_step_nilpotent(2, 5)
    G = koszul(g)
    s = g.structure
    a = AltForm(8, 1, rng.standard_normal(8))
    b = AltForm(8, 2, rng.standard_normal(28))
    lhs = nabla_form(g, G, wedge(a, b))
    ra = nabla_form(g, G, a)
    rb = nabla_form(g, G, b)
    for x in range(8):
        rhs = (wedge(AltForm(8, 1, ra[x]), b)
               + wedge(a, AltForm(8, 2, rb[x])))
        np.testing.assert_allclose(lhs[x], rhs.coeffs, atol=1e-12)


def _almost_abelian(n, seed):
    """R acting on R^(4n-1) by a random matrix D: [e_0, e_r] = D e_r."""
    s = standard_structure(n)
    D = np.random.default_rng(seed).standard_normal((s.dim - 1,) * 2)
    c = np.zeros((s.dim,) * 3)
    c[0, 1:, 1:] = D.T
    c[1:, 0, 1:] = -D.T
    return MetricLieAlgebra(s, c)


def _bracket_alternation(g, b):
    """db(x_0..x_p) = sum_{i<j} (-1)^{i+j} b([x_i, x_j], x_0..^i..^j..x_p)
    on increasing basis tuples."""
    dim, p = g.dim, b.degree
    tab = tables(dim)
    idx_p = tuple_index(dim, p)
    out = np.zeros(tab.nforms(p + 1))
    for oi, T in enumerate(tuples(dim, p + 1)):
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = tuple(T[m] for m in range(p + 1) if m not in (i, j))
            for k in range(dim):
                if k in rest:
                    continue
                pos = sum(1 for x in rest if x < k)
                S = rest[:pos] + (k,) + rest[pos:]
                out[oi] += ((-1.0) ** (i + j + pos) * g.c[T[i], T[j], k]
                            * b.coeffs[idx_p[S]])
    return out


def test_ce_d_matches_bracket_alternation(rng):
    for g in (two_step_nilpotent(2, 11), _almost_abelian(2, 12)):
        s = g.structure
        forms = [AltForm(8, p, rng.standard_normal(math.comb(8, p)))
                 for p in range(5)]
        for b in forms + [s.star(s.Omega)]:
            got = ce_d(g, b)
            assert got.degree == b.degree + 1
            np.testing.assert_allclose(got.coeffs, _bracket_alternation(g, b),
                                       atol=1e-12)


def test_ce_d_matches_bracket_alternation_n3():
    # the two degrees classify_algebra differentiates at n=3: 4 -> 5, 8 -> 9
    for g in (two_step_nilpotent(3, 11), _almost_abelian(3, 12)):
        s = g.structure
        for b in (s.Omega, s.star(s.Omega)):
            got = ce_d(g, b)
            assert got.degree == b.degree + 1
            np.testing.assert_allclose(got.coeffs, _bracket_alternation(g, b),
                                       atol=1e-12)


def test_nabla_form_matches_dense(rng):
    g = _almost_abelian(2, 13)
    G = koszul(g)
    s = g.structure
    for w in (s.Omega, AltForm(8, 3, rng.standard_normal(56))):
        rows = nabla_form(g, G, w)
        dense = nabla_dense(g, G, w.dense())
        for x in range(8):
            np.testing.assert_allclose(
                rows[x], AltForm.from_dense(dense[x]).coeffs, atol=1e-12)
    for k, ax in enumerate(AXES):
        np.testing.assert_allclose(nabla_omegas(g, G)[k],
                                   nabla_dense(g, G, s.mats[ax]), atol=1e-12)


def test_abelian_pipeline():
    rep = classify_algebra(_abelian())
    assert rep["key"] == "QK"
    assert rep["abelian"]


def test_torsion_membership_and_product_rule():
    g = two_step_nilpotent(2, 6)
    G = koszul(g)
    nOm = nabla_Omega(g, G)
    require_in_W(nOm, g.structure)
    rep = classify_algebra(g)
    assert rep["checks"]["product_rule"] < 1e-12


def test_differential_squares_to_zero():
    g = two_step_nilpotent(2, 7)
    s = g.structure
    dOm = ce_d(g, s.Omega)
    assert ce_d(g, dOm).norm() < 1e-12
    f = AltForm.zero(8, 0)
    f.coeffs[0] = 3.0
    assert ce_d(g, f).norm() == 0.0


def test_alternation_equals_differential():
    for seed in (0, 1, 2):
        g = two_step_nilpotent(2, seed)
        G = koszul(g)
        nOm = nabla_Omega(g, G)
        lhs = alternate5(nOm)
        rhs = ce_d(g, g.structure.Omega)
        assert np.linalg.norm(lhs.coeffs - rhs.coeffs) / max(
            rhs.norm(), 1e-300) < 1e-9


def test_nijenhuis():
    g0 = _abelian()
    assert np.abs(nijenhuis(g0)).max() == 0.0
    g = two_step_nilpotent(2, 8)
    for N in nijenhuis(g):
        # antisymmetric in the last two slots, trace-free in the first two
        assert np.abs(N + N.transpose(0, 2, 1)).max() < 1e-12
        assert np.abs(np.einsum("iix->x", N)).max() < 1e-12


def _nijenhuis_from_brackets(g, A):
    """N[x, y, z] = <e_x, N_A(e_y, e_z)> from the bracket of basis vectors,
    N_A(Y, Z) = [Y,Z] + A[AY,Z] + A[Y,AZ] - [AY,AZ]."""

    def br(x, y):
        return np.einsum("i,j,ijk->k", x, y, g.c)

    E = np.eye(g.dim)
    N = np.zeros((g.dim,) * 3)
    for y, z in itertools.product(range(g.dim), repeat=2):
        Y, Z = E[y], E[z]
        N[:, y, z] = (br(Y, Z) + A @ br(A @ Y, Z)
                      + A @ br(Y, A @ Z) - br(A @ Y, A @ Z))
    return N


def test_nijenhuis_matches_bracket_definition(s3):
    from aqh.structure import random_rotation, rotate_adapted

    rot = rotate_adapted(random_rotation(np.random.default_rng(5)), s3)
    algebras = [_almost_abelian(2, 21), two_step_nilpotent(2, 22),
                _almost_abelian(3, 23), two_step_nilpotent(3, 24),
                MetricLieAlgebra(rot, _almost_abelian(3, 25).c),
                MetricLieAlgebra(rot, two_step_nilpotent(3, 26).c)]
    for g in algebras:
        atol = 1e-12 * np.abs(g.c).max()
        for ax, N in zip(AXES, nijenhuis(g)):
            want = _nijenhuis_from_brackets(g, g.structure.mats[ax])
            np.testing.assert_allclose(N, want, rtol=0, atol=atol, err_msg=ax)
    # a generic almost-abelian algebra is not integrable: N_A is not zero
    g = algebras[0]
    assert np.abs(nijenhuis(g)).max(axis=(1, 2, 3)).min() > 1e-2


def test_stacked_axes_match_the_per_axis_forms(frame3):
    # nabla w_A and N_A of the three axes in one product each against the
    # per-axis formulas, at n = 2 and 3 and in an O(12)-conjugated frame
    g3, s = frame3
    moved = [MetricLieAlgebra(s, np.einsum("ia,jb,kc,abc->ijk", g3, g3, g3,
                                           alg.c))
             for alg in (two_step_nilpotent(3, 61), _almost_abelian(3, 62))]
    for g in [two_step_nilpotent(2, 63), _almost_abelian(2, 64),
              two_step_nilpotent(3, 65), _almost_abelian(3, 66), *moved]:
        G = koszul(g)
        nw, NA = nabla_omegas(g, G), nijenhuis(g)
        assert nw.shape == NA.shape == (3,) + (g.dim,) * 3
        for k, ax in enumerate(AXES):
            want = nabla_omega_ref(g, G, ax)
            assert np.abs(nw[k] - want).max() <= 1e-13 * np.abs(want).max()
            want = nijenhuis_ref(g, ax)
            assert np.abs(NA[k] - want).max() <= 1e-13 * np.abs(want).max()


def test_classify_algebra_computes_each_axis_once(monkeypatch):
    from aqh import liealg

    calls = {"nijenhuis": 0, "nabla_omegas": 0}
    for name in calls:
        def counted(*args, _f=getattr(liealg, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(liealg, name, counted)
    rep = classify_algebra(two_step_nilpotent(2, 9))
    # the stacks of N_A and nabla w_A once, shared by every check that reads
    # them
    assert calls == {"nijenhuis": 1, "nabla_omegas": 1}
    assert rep["checks"]["gray_identity"] < 1e-10


def test_classify_algebra_builds_no_dOmega_map(monkeypatch):
    # d*Omega is the contraction of nabla Omega, checked against
    # -star d star Omega: a report derives nothing from dOmega, so at n = 3,
    # where the report's constants need no 5-form, no d*Omega map is built
    from aqh import QuatStructure
    from aqh import classify as module

    s = standard_structure(3)
    fresh = QuatStructure(3, s.I, s.J)
    g = MetricLieAlgebra(fresh, two_step_nilpotent(3, 4).c)
    classify_algebra(g)  # the caches, and the report's constants
    calls = []

    def counted(name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("ctx_from_derived", "dOmega_op"):
        monkeypatch.setattr(module, name, counted(name))
    rep = classify_algebra(g)
    assert not calls
    assert "dOmega" not in fresh._cache
    assert rep["checks"]["alternation_vs_differential"] < 1e-10


def test_classify_algebra_builds_each_form_map_once(monkeypatch):
    # the derivation matrix of Omega and the d maps of Omega, the w_A side
    # by side and star Omega are built in the first report on a fresh
    # structure, each from one derivation_op call (the one function that
    # forms the dim^2 x N_p support tables; the d maps call it through
    # exterior.koszul_op); a second report builds none
    from aqh import exterior, liealg

    s = standard_structure.__wrapped__(3)
    g = MetricLieAlgebra(s, two_step_nilpotent(3, 4).c)
    built = []
    real = liealg.derivation_op

    def counted(b):
        built.append(b)
        return real(b)

    monkeypatch.setattr(liealg, "derivation_op", counted)
    monkeypatch.setattr(exterior, "derivation_op", counted)
    first = classify_algebra(g)
    assert {k for k in s._cache if isinstance(k, tuple)
            and k[0] in ("derivation", "d")} == {
        ("derivation", "Omega"), ("d", "Omega"), ("d", "omegas"),
        ("d", "star_Omega")}
    assert len(built) == 4
    built.clear()
    second = classify_algebra(g)
    assert not built
    assert second == first


def test_classify_algebra_in_a_conjugated_frame(frame3):
    # an orthogonal change of frame g moves the structure and the bracket
    # table together, c'[i,j,k] = g_ia g_jb g_kc c[a,b,c]: an isometric
    # isomorphism, so the class, the profile norms and the checks stay.  In
    # that frame Omega and star Omega have no zero coefficient, so the maps
    # of the structure's forms are built on a generic support
    g, s = frame3
    assert np.count_nonzero(s.Omega.coeffs) == s.tab.nforms(4)
    for alg in (two_step_nilpotent(3, 8), _almost_abelian(3, 9)):
        moved = MetricLieAlgebra(s, np.einsum("ia,jb,kc,abc->ijk", g, g, g,
                                              alg.c))
        want, got = classify_algebra(alg), classify_algebra(moved)
        assert got["key"] == want["key"]
        for X, v in want["profile"]["norms"].items():
            assert abs(got["profile"]["norms"][X] - v) \
                <= 1e-12 * want["profile"]["total"], X
        assert max(got["checks"][k] for k in PIPELINE_CHECKS) <= 1e-8


def test_classify_algebra_refuses_a_broken_hodge_route(monkeypatch, tmp_path,
                                                        capsys):
    # d of star Omega, the only form of degree dim - 4 = 8 that the n = 3
    # pipeline differentiates, with the wrong sign: the report and
    # `aqh classify` refuse the algebra as a verification failure
    from aqh import liealg
    from aqh.cli import main

    real = liealg.ce_d

    def broken(g, b):
        out = real(g, b)
        return -1.0 * out if b.degree == g.dim - 4 else out

    g = two_step_nilpotent(3, 0)
    monkeypatch.setattr(liealg, "ce_d", broken)
    with pytest.raises(VerificationError,
                       match="codifferential routes disagree") as exc:
        classify_algebra(g)
    # a failed cross-check is not an input error: it must not be a ValueError
    assert not isinstance(exc.value, ValueError)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_algebra_json(g)))
    assert main(["classify", "--input", str(path)]) == 1
    assert "codifferential routes disagree" in capsys.readouterr().err


def test_classify_algebra_refuses_inadmissible_nabla_omegas(monkeypatch,
                                                            tmp_path, capsys):
    # nabla w_J pushed off the admissible families: the product rule's
    # admissibility check fails, a failure of the computation, so the report
    # raises VerificationError and `aqh classify` exits 1, not 2
    from aqh import liealg
    from aqh.cli import main

    real = liealg.nabla_omegas

    def perturbed(g, G):
        out = real(g, G).copy()
        bump = np.random.default_rng(0).standard_normal(out[1].shape)
        out[1] += 1e-3 * np.abs(out).max() * (bump - bump.transpose(0, 2, 1))
        return out

    g = two_step_nilpotent(3, 0)
    monkeypatch.setattr(liealg, "nabla_omegas", perturbed)
    with pytest.raises(VerificationError, match="not admissible"):
        classify_algebra(g)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_algebra_json(g)))
    assert main(["classify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "verification failure" in err and "not admissible" in err


def _scaled(g, scale):
    return MetricLieAlgebra(g.structure, scale * g.c)


def _flat_almost_abelian(n, seed):
    """ad(e_0) = X^T, X skew, commuting with I, J, K and zero on H e_0: a
    flat algebra, nabla Omega = 0, class QK."""
    s = standard_structure(n)
    Y = np.random.default_rng(seed).standard_normal((s.dim, s.dim))
    Y -= Y.T
    Y[[0, n, 2 * n, 3 * n]] = 0.0
    Y[:, [0, n, 2 * n, 3 * n]] = 0.0
    X = (Y - s.I @ Y @ s.I - s.J @ Y @ s.J - s.K @ Y @ s.K) / 4
    c = np.zeros((s.dim,) * 3)
    c[0], c[:, 0] = X.T, -X.T
    return MetricLieAlgebra(s, c)


def test_algebra_class_does_not_depend_on_the_bracket_scale():
    # c -> 10^e c is a homothety of the metric, which keeps the class.  An
    # absolute zero floor on |nabla Omega| read QK from x1e-16 down, and
    # read the round-off nabla Omega of a flat algebra (3e-16 max|c| at
    # n = 2) as KH+EH+KS3H+ES3H from x1e4 up
    g = two_step_nilpotent(3, 1)
    keys = {e: classify_algebra(_scaled(g, 10.0 ** e))["key"]
            for e in (60, 20, 0, -10, -16, -40, -60, -80)}
    assert set(keys.values()) == {"L3EH+KH+EH+L3ES3H+KS3H+ES3H"}, keys
    flat = _flat_almost_abelian(2, 3)
    keys = {e: classify_algebra(_scaled(flat, 10.0 ** e))["key"]
            for e in (-16, 0, 4, 8)}
    assert set(keys.values()) == {"QK"}, keys


def test_flat_algebras_read_qk_at_every_scale(tmp_path, capsys):
    # nabla Omega of a flat algebra is round-off, a few u max|c|, so its
    # residuals relative to |nabla Omega| are round-off over round-off: held
    # to PIPELINE_TOL or to the floor ZERO_FLOOR max|c|, whichever is
    # larger, `aqh liealg` exits 0 with key QK (it exited 1 at n=3, "nabla
    # Omega is not in the torsion space", residual 0.15 to 0.34)
    from aqh.cli import main

    for n, seed in ((2, 3), (3, 0), (3, 1), (3, 2)):
        flat = _flat_almost_abelian(n, seed)
        for e in (-12, -6, 0, 4, 8):
            path = tmp_path / "g.json"
            g = _scaled(flat, 10.0 ** e)
            path.write_text(json.dumps(_algebra_json(g)))
            code = main(["liealg", "--input", str(path), "--format", "json"])
            assert code == 0, (n, seed, e)
            assert json.loads(capsys.readouterr().out)["key"] == "QK"


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_floor_hides_no_fault_at_any_scale(monkeypatch, scale):
    # the floor under the residuals is far below a fault of a genuine
    # nabla Omega: a wrong-sign Gray term, a perturbed nabla w_J and a
    # nabla Omega moved off W still fail at every scale
    from aqh import liealg

    g = _scaled(two_step_nilpotent(3, 1), scale)
    real_N, real_nw = liealg.nijenhuis, liealg.nabla_omegas
    with monkeypatch.context() as m:
        m.setattr(liealg, "nijenhuis", lambda g: -real_N(g))
        assert classify_algebra(g)["checks"]["gray_identity"] > 1e-2

    def perturbed(g, G):
        out = real_nw(g, G).copy()
        bump = np.random.default_rng(0).standard_normal(out[1].shape)
        out[1] += 1e-3 * np.abs(out).max() * (bump - bump.transpose(0, 2, 1))
        return out

    with monkeypatch.context() as m:
        m.setattr(liealg, "nabla_omegas", perturbed)
        with pytest.raises(VerificationError, match="not admissible"):
            classify_algebra(g)
    _pushed_off_W(monkeypatch)
    with pytest.raises(VerificationError,
                       match="nabla Omega is not in the torsion space"):
        classify_algebra(g)


def test_gray_and_nijenhuis_checks_are_relative(monkeypatch, tmp_path):
    # both checks are held to the scale of the bracket table: a valid
    # algebra passes at x1e8, where the plain max-abs residuals read about
    # 3e-8 and 6e-8, and a wrong-sign Gray term or a traced N_A fails at
    # every scale, also at x1e-12, where its plain residual is far below 1e-8
    from aqh import liealg
    from aqh.cli import main

    g = two_step_nilpotent(3, 1)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_algebra_json(_scaled(g, 1e8))))
    assert main(["liealg", "--input", str(path)]) == 0
    for scale in (1e-12, 1e-6, 1.0, 1e8):
        checks = classify_algebra(_scaled(g, scale))["checks"]
        assert max(checks[k] for k in PIPELINE_CHECKS) <= 1e-14, scale
    real = liealg.nijenhuis
    with monkeypatch.context() as m:
        # -A_(2) N_A with the wrong sign: N_A negated, its trace still zero
        m.setattr(liealg, "nijenhuis", lambda g: -real(g))
        for scale in (1e-12, 1e-6, 1e8):
            checks = classify_algebra(_scaled(g, scale))["checks"]
            assert checks["gray_identity"] > 1e-2, scale
            assert checks["nijenhuis_trace"] <= 1e-14, scale

    def traced(g):
        out = real(g).copy()
        out[2, :, :, 0] += 1e-3 * np.abs(g.c).max() * np.eye(g.dim)
        return out

    monkeypatch.setattr(liealg, "nijenhuis", traced)
    for scale in (1e-12, 1e-6, 1e8):
        checks = classify_algebra(_scaled(g, scale))["checks"]
        assert checks["nijenhuis_trace"] > 1e-3, scale


def _rotated_su2(n, seed):
    """su(2) + R^(4n-3) in the frame of a random orthogonal matrix."""
    dim = 4 * n
    su2 = np.zeros((dim,) * 3)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        su2[i, j, k], su2[j, i, k] = 1.0, -1.0
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim,) * 2))
    return MetricLieAlgebra(standard_structure(n),
                            np.einsum("ia,jb,kc,abc->ijk", Q, Q, Q, su2))


def test_large_algebras_pass_and_broken_tables_fail_at_every_scale(tmp_path):
    # the Jacobi residual is held to max|c|^2 and the Koszul guards to
    # max|c|: a rotated su(2) at x1e4 (Jacobi round-off about 8e-9) and an
    # almost-abelian algebra with ad(e_0) of size 1e4 (torsion round-off
    # above 1e-12) are Lie algebras, and `aqh liealg` classifies them; a
    # random table and a bracket table that is not antisymmetric are
    # refused at every scale
    from aqh.cli import main

    su2, aa = _scaled(_rotated_su2(2, 0), 1e4), _scaled(_almost_abelian(3, 1),
                                                        1e4)
    assert _jacobi_reference(su2.c) > 1e-12
    G = koszul(aa)
    assert np.abs(G - G.transpose(1, 0, 2) - aa.c).max() > 1e-12
    for g in (su2, aa):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(_algebra_json(g)))
        assert main(["liealg", "--input", str(path)]) == 0
    s = standard_structure(2)
    rng = np.random.default_rng(3)
    c = rng.standard_normal((8,) * 3)
    sym = rng.standard_normal((8,) * 3)
    sym = sym + sym.transpose(1, 0, 2)
    for scale in (1e-14, 1e-8, 1e-6, 1.0, 1e8):
        with pytest.raises(AlgebraError, match="Jacobi identity fails"):
            MetricLieAlgebra(s, scale * c)
        g = _scaled(two_step_nilpotent(2, 2), scale)
        g.c = g.c + scale * sym  # not a bracket table: the guards refuse it
        with pytest.raises(AlgebraError, match="connection"):
            koszul(g)


def test_gray_identity():
    for seed in (0, 1, 2):
        g = two_step_nilpotent(2, seed)
        s, G = g.structure, koszul(g)
        NA, nw = nijenhuis(g), nabla_omegas(g, G)
        for k, ax in enumerate(AXES):
            assert _gray_residual(
                s.mats[ax], ce_d(g, s.omega[ax]).dense(), NA[k],
                nw[k]) < 1e-10


def _gray_reference(A, dw, NA, nw):
    """The Gray residual through the slot insertions of its definition."""
    rhs = dw - insert(A, 2, insert(A, 3, dw)) - insert(A, 2, NA)
    return float(np.abs(2.0 * nw - rhs).max())


def test_gray_residual_matches_insert_formula(rng):
    # A_(2)A_(3) and A_(2) as two products per axis, one axis or the stacked
    # three, against the insert formula; on the pipeline's inputs and on a
    # perturbed nabla w_A, whose residual is of order one
    for g in (two_step_nilpotent(2, 31), _almost_abelian(2, 32),
              two_step_nilpotent(3, 33), _almost_abelian(3, 34)):
        s, G = g.structure, koszul(g)
        args = {a: (s.mats[a], ce_d(g, s.omega[a]).dense(),
                    nijenhuis_ref(g, a), nabla_omega_ref(g, G, a))
                for a in AXES}
        scale = max(max(np.abs(x).max() for x in v[1:]) for v in
                    args.values()) + 1.0
        assert max(_gray_residual(*args[a]) for a in AXES) < 1e-12
        for bump in (0.0, 1.0):
            refs = []
            for a in AXES:
                A, dw, NA, nw = args[a]
                nw = nw + bump * rng.standard_normal(nw.shape)
                args[a] = (A, dw, NA, nw)
                refs.append(_gray_reference(A, dw, NA, nw))
                assert abs(_gray_residual(A, dw, NA, nw) - refs[-1]) \
                    <= 1e-13 * scale
            stacked = [np.stack(x) for x in zip(*args.values())]
            assert abs(_gray_residual(*stacked) - max(refs)) <= 1e-13 * scale


def test_codiff_Omega_matches_wedge1_formulas():
    # the stacked wedge of ae_factors(1) and the dense dw_A(A., A., A.)
    # against one wedge1 per axis and the compound of A
    for g in (two_step_nilpotent(2, 41), _almost_abelian(2, 42),
              two_step_nilpotent(3, 43), _almost_abelian(3, 44)):
        s, G = g.structure, koszul(g)
        out = codiff_Omega(g)
        zero = AltForm.zero(s.dim, 3)
        structural, two_form = zero, zero
        for a in AXES:
            A, dw = s.mats[a], ce_d(g, s.omega[a])
            w = 0.5 * np.einsum("yrs,rs->y", dw.dense(), A)
            dstar_w = -np.einsum("rrz->z", nabla_omega_ref(g, G, a))
            act = AltForm(s.dim, 3, -2.0 * (compound(A, 3) @ dw.coeffs))
            structural = structural + act + -2.0 * wedge1(-(A @ w), s.omega[a])
            two_form = two_form + 2.0 * wedge1(dstar_w, s.omega[a]) + act
            assert out["report"]["two_form_codiff_identity"][a] == \
                pytest.approx(float(np.abs(A @ dstar_w + w).max()),
                              rel=1e-13, abs=1e-13 * np.abs(w).max())
        want = {"contraction": contract12(nabla_Omega(g, G)),
                "hodge": -1.0 * s.star(ce_d(g, s.star(s.Omega))),
                "structural": structural, "two_form_codiff": two_form}
        scale = max(want["contraction"].norm(), 1e-300)
        assert want["contraction"].norm() > 1e-3
        for k, v in want.items():
            assert np.abs(out["variants"][k].coeffs - v.coeffs).max() \
                <= 1e-13 * scale, k


def test_classify_algebra_projects_onto_W_once(monkeypatch):
    # the membership residual and the report's W coordinates are one
    # projection of nabla Omega
    import aqh.classify
    import aqh.liealg
    import aqh.torsion

    calls = []

    def counted(*args, _f=aqh.torsion._w_project):
        calls.append(1)
        return _f(*args)

    for mod in (aqh.torsion, aqh.liealg, aqh.classify):
        if hasattr(mod, "_w_project"):
            monkeypatch.setattr(mod, "_w_project", counted)
    for g in (two_step_nilpotent(3, 5), _almost_abelian(2, 6)):
        calls.clear()
        rep = classify_algebra(g)
        assert len(calls) == 1
        assert rep["checks"]["torsion_membership"] < 1e-12


def _pushed_off_W(monkeypatch):
    """Make liealg.nabla_Omega add a random tensor of relative size 1e-6:
    mostly off W, which has far fewer dimensions than V* (x) Lambda^4."""
    from aqh import MixedTorsion, liealg

    real = liealg.nabla_Omega

    def pushed(g, G):
        a = real(g, G)
        bump = np.random.default_rng(0).standard_normal(a.rows.shape)
        return MixedTorsion(a.dim, a.rows + 1e-6 * a.norm() * bump
                            / np.linalg.norm(bump))

    monkeypatch.setattr(liealg, "nabla_Omega", pushed)


def test_classify_algebra_membership_is_a_pipeline_check(monkeypatch):
    # nabla Omega lies in W by construction: a tol below its round-off
    # residual still gives a report, and a nabla Omega off W is a failure of
    # the computation, refused whatever the tol
    g = two_step_nilpotent(3, 7)
    resid = classify_algebra(g)["checks"]["torsion_membership"]
    assert resid > 0.0
    rep = classify_algebra(g, tol=resid / 2)
    assert rep["checks"]["torsion_membership"] == resid
    _pushed_off_W(monkeypatch)
    for tol in (1e-8, 0.5):
        with pytest.raises(VerificationError,
                           match=r"nabla Omega is not in the torsion space"):
            classify_algebra(g, tol=tol)


def test_codifferential_routes_agree():
    for seed in (0, 1, 2):
        g = two_step_nilpotent(2, seed)
        out = codiff_Omega(g)
        assert max(out["report"]["pairwise"].values()) < 1e-9
        assert max(out["report"]["two_form_codiff_identity"].values()) < 1e-10


def test_wedge_trace_reading_check(s2):
    # the corrected wedge-trace combination holds; the displayed reading
    # 2 <A . hook d w_A, w_A> fails (an erratum of the paper)
    from aqh.verify import check_lie

    row, = (r for r in check_lie(s2, np.random.default_rng(0))
            if r.check == "wedge-trace-reading")
    assert row.passed and row.tol == 1e-9
    assert float(row.detail.rsplit(" ", 1)[1]) > 1e-2


def test_codifferential_routes_refuse_nan_residuals(monkeypatch):
    # a NaN residual is a disagreement, not a pass: codiff_Omega reports it
    # and classify_algebra refuses it
    from aqh import liealg

    real = liealg.contract12
    monkeypatch.setattr(liealg, "contract12", lambda a: real(a) * math.nan)
    g = two_step_nilpotent(2, 0)
    assert all(math.isnan(v) for v in
               codiff_Omega(g)["report"]["pairwise"].values())
    with pytest.raises(VerificationError,
                       match="codifferential routes disagree"):
        classify_algebra(g)


def test_d_omegas_match_ce_d_per_axis():
    for g in (two_step_nilpotent(2, 51), _almost_abelian(2, 52),
              two_step_nilpotent(3, 53), _almost_abelian(3, 54),
              _abelian()):
        s = g.structure
        want = np.stack([ce_d(g, s.omega[a]).dense() for a in AXES])
        np.testing.assert_allclose(d_omegas(g), want, rtol=0,
                                   atol=1e-14 * max(np.abs(want).max(), 1.0))


def test_codifferential_abelian_vanishes():
    out = codiff_Omega(_abelian())
    assert out["value"].norm() == 0.0
    assert all(v.norm() < 1e-14 for v in out["variants"].values())


def test_codifferential_kernel_classes(s2, pool2):
    from aqh import ComponentLabel

    # a torsion tensor inside the contraction kernel has vanishing d*
    a = pool2[ComponentLabel.KS3H]
    assert contract12(a).norm() / a.norm() < 1e-10


def test_classify_algebra_report_fields():
    g = two_step_nilpotent(2, 9)
    rep = classify_algebra(g)
    for key in ("class", "key", "profile", "table2", "wedge_criteria",
                "checks"):
        assert key in rep
    assert rep["checks"]["nijenhuis_trace"] < 1e-12
    assert rep["checks"]["gray_identity"] < 1e-10
    assert rep["checks"]["alternation_vs_differential"] < 1e-9
    assert rep["checks"]["codifferential_pairwise"] < 1e-9


def test_json_round_trip():
    g = two_step_nilpotent(2, 10)
    back = algebra_from_json(_algebra_json(g))
    np.testing.assert_allclose(back.c, g.c, atol=1e-14)


def test_fixtures_classify_as_recorded():
    with open(os.path.join(FIXTURES, "MANIFEST.json")) as fh:
        manifest = json.load(fh)
    assert len(manifest) >= 8
    for key, entry in manifest.items():
        with open(os.path.join(FIXTURES, entry["file"])) as fh:
            data = json.load(fh)
        g = algebra_from_json(data)
        rep = classify_algebra(g)
        assert rep["key"] == key, entry["file"]
        if key != "QK":
            assert rep["checks"]["gray_identity"] < 1e-10
            assert rep["checks"]["codifferential_pairwise"] < 1e-9


def _jacobi_reference(c):
    c = 0.5 * (c - c.transpose(1, 0, 2))
    return float(np.abs(np.einsum("ijm,mkl->ijkl", c, c)
                        + np.einsum("jkm,mil->ijkl", c, c)
                        + np.einsum("kim,mjl->ijkl", c, c)).max())


def test_jacobi_check_matches_cyclic_sum():
    # the one-product Jacobi sum against the three cyclic terms: random
    # tables are refused with the same residual, Lie algebras pass
    for n in (2, 3):
        s = standard_structure(n)
        c = np.random.default_rng(n).standard_normal((s.dim,) * 3)
        with pytest.raises(AlgebraError) as exc:
            MetricLieAlgebra(s, c)
        assert f"({_jacobi_reference(c):.2e})" in str(exc.value)
        su2 = np.zeros((s.dim,) * 3)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            su2[i, j, k], su2[j, i, k] = 1.0, -1.0
        ad_id = np.zeros((s.dim,) * 3)
        ad_id[0, 1:, 1:] = np.eye(s.dim - 1)
        for good in (su2, ad_id):
            assert _jacobi_reference(good) <= 1e-12
            MetricLieAlgebra(s, good)
