"""Quaternionic structures, slot operators, and the two endomorphisms."""

import itertools
import math

import numpy as np
import pytest

from aqh import (
    AltForm,
    StructureError,
    QuatStructure,
    insert,
    inner,
    random_rotation,
    random_W_element,
    rotate_adapted,
    standard_structure,
    wedge,
    wedge_power,
)
from aqh.structure import AXES
import aqh.projectors as projectors
from aqh.classify import classification_report
from reference import i_axis, slot_sum


def test_standard_structure_axioms(s2, s3):
    for s in (s2, s3):
        eye = np.eye(s.dim)
        assert np.abs(s.I @ s.J + s.J @ s.I).max() == 0.0
        assert np.abs(s.I @ s.I + eye).max() == 0.0
        assert np.abs(s.K - s.I @ s.J).max() == 0.0
        for A in (s.I, s.J, s.K):
            assert np.abs(A.T @ A - eye).max() == 0.0


def test_structure_rejects_small_n():
    with pytest.raises(StructureError):
        standard_structure(1)


def test_structure_rejects_non_quaternionic():
    bad = np.eye(8)
    with pytest.raises(StructureError):
        QuatStructure(2, bad, bad)


def test_structure_rejects_nan(s2):
    I = s2.I.copy()
    I[0, 0] = np.nan
    with pytest.raises(StructureError):
        QuatStructure(2, I, s2.J)


def test_standard_structure_is_shared_and_read_only():
    s = standard_structure(2)
    assert standard_structure(2) is s
    assert standard_structure.__wrapped__(2) is not s
    for x in (s.I, s.J, s.K, *(w.coeffs for w in s.omega.values()),
              s.Omega.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        s.Omega.coeffs += 1.0


def test_structure_copies_its_matrices(s2):
    # the caller's arrays stay writable and are not the structure's
    I, J = s2.I.copy(), s2.J.copy()
    s = QuatStructure(2, I, J)
    I[0, 0] = J[0, 0] = 5.0
    assert s.I[0, 0] == s.J[0, 0] == 0.0
    assert s.I is not s2.I and np.array_equal(s.I, s2.I)


def test_kahler_form_norms(s3):
    assert inner(s3.omega["I"], s3.omega["I"]) == pytest.approx(6.0)


def test_fundamental_form(s2):
    expect = sum(
        (wedge(s2.omega[a], s2.omega[a]) for a in AXES),
        AltForm.zero(8, 4))
    np.testing.assert_allclose(s2.Omega.coeffs, expect.coeffs)


def test_rotate_identity(s2):
    s_new = rotate_adapted(np.eye(3), s2)
    np.testing.assert_allclose(s_new.I, s2.I)
    np.testing.assert_allclose(s_new.Omega.coeffs, s2.Omega.coeffs)


def test_rotate_quarter_turn(s2):
    # J -> K -> -J about the I axis
    q = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])
    s_new = rotate_adapted(q, s2)
    np.testing.assert_allclose(s_new.I, s2.I)
    np.testing.assert_allclose(s_new.J, s2.K)
    np.testing.assert_allclose(s_new.K, -s2.J, atol=1e-14)
    np.testing.assert_allclose(s_new.Omega.coeffs, s2.Omega.coeffs,
                               atol=1e-12)


def test_rotate_rejects_bad_input(s2):
    with pytest.raises(StructureError):
        rotate_adapted(2 * np.eye(3), s2)
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(StructureError):
        rotate_adapted(refl, s2)


def test_rotate_rejects_nan(s2):
    q = np.eye(3)
    q[0, 1] = np.nan
    with pytest.raises(StructureError):
        rotate_adapted(q, s2)


def test_rotation_preserves_classification(s2, pool2, rng):
    a = (pool2[projectors.ComponentLabel.KH]
         + pool2[projectors.ComponentLabel.ES3H])
    rep0 = classification_report(a, s2)
    norms0 = rep0["profile"]["norms"]
    for _ in range(3):
        s_new = rotate_adapted(random_rotation(rng), s2)
        rep1 = classification_report(a, s_new)
        assert rep1["key"] == rep0["key"]
        for X in norms0:
            assert rep1["profile"]["norms"][X] == pytest.approx(norms0[X],
                                                                abs=1e-9)


def test_insert_involution(s2, rng):
    b = rng.standard_normal((8, 8, 8))
    for i in (1, 2, 3):
        out = insert(s2.I, i, insert(s2.I, i, b))
        np.testing.assert_allclose(out, -b, atol=1e-13)
    with pytest.raises(StructureError):
        insert(s2.I, 4, b)


def test_insert_on_kahler_forms(s2):
    wI = np.asarray(s2.I)
    # I_(1)I_(2) w_I = w_I ;  J_(1)J_(2) w_I = -w_I
    out = insert(s2.I, 1, insert(s2.I, 2, wI))
    np.testing.assert_allclose(out, wI, atol=1e-14)
    out = insert(s2.J, 1, insert(s2.J, 2, wI))
    np.testing.assert_allclose(out, -wI, atol=1e-14)


def test_slot_sum_scalar_and_derivation(s2, rng):
    assert slot_sum(s2.I, np.asarray(1.0)).shape == ()
    assert float(slot_sum(s2.I, np.asarray(1.0))) == 0.0
    # derivation property against the wedge
    a = AltForm(8, 1, rng.standard_normal(8))
    b = AltForm(8, 2, rng.standard_normal(28))
    lhs = i_axis(s2, "J", wedge(a, b))
    rhs = wedge(i_axis(s2, "J", a), b) + wedge(a, i_axis(s2, "J", b))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_slot_sum_on_own_kahler_form(s2):
    # i_I w_I evaluated directly from the slot definition
    brute = slot_sum(s2.I, np.asarray(s2.I))
    lib = i_axis(s2, "I", s2.omega["I"])
    np.testing.assert_allclose(lib.dense(), brute, atol=1e-14)


def test_L_on_kahler_form(s2):
    out = s2.L_map(s2.omega["I"])
    np.testing.assert_allclose(out.coeffs, -s2.omega["I"].coeffs, atol=1e-13)


def test_L_matches_dense_slot_definition(s2, rng):
    for p in (2, 3, 4):
        b = AltForm(8, p, rng.standard_normal(math.comb(8, p)))
        dense = np.zeros((8,) * p)
        for ax in AXES:
            A = s2.mats[ax]
            for i, j in itertools.combinations(range(1, p + 1), 2):
                dense += insert(A, i, insert(A, j, b.dense()))
        np.testing.assert_allclose(s2.L_map(b).coeffs,
                                   AltForm.from_dense(dense).coeffs,
                                   atol=1e-12)


def test_L_low_degree_is_zero(s2, rng):
    a = AltForm(8, 1, rng.standard_normal(8))
    assert s2.L_map(a).norm() == 0.0


def test_L_squared_matrix(s2, s3):
    for s in (s2, s3):
        N3 = s.tab.nforms(3)
        L3 = s.L_matrix(3)
        assert np.abs(L3 @ L3 - 9 * np.eye(N3)).max() < 1e-9


def test_L_on_torsion_rows(s2, s3):
    for s in (s2, s3):
        a = random_W_element(s, 17)
        L4 = s.L_matrix(4)
        resid = np.linalg.norm(a.rows @ L4.T - 2 * a.rows) / a.norm()
        assert resid < 1e-12


def test_lcal_matches_dense_slot_definition(s2):
    a = random_W_element(s2, 99)
    dense = np.zeros((8,) * 5)
    flat, sign = s2.tab.dense_table(4)
    rows_dense = np.zeros((8, 8 ** 4))
    for k in range(flat.shape[0]):
        rows_dense[:, flat[k]] = sign[k] * a.rows
    dense = rows_dense.reshape((8,) * 5)
    out = np.zeros_like(dense)
    for ax in AXES:
        A = s2.mats[ax]
        inner_sum = sum(insert(A, j, dense) for j in range(2, 6))
        out += insert(A, 1, inner_sum)
    lib = s2.lcal_raw(a)
    lib_dense = np.zeros((8, 8 ** 4))
    for k in range(flat.shape[0]):
        lib_dense[:, flat[k]] = sign[k] * lib.rows
    np.testing.assert_allclose(lib_dense.reshape((8,) * 5), out, atol=1e-12)


def test_lcal_eigenvalues(s2, pool2):
    hpart = (pool2[projectors.ComponentLabel.KH]
             + pool2[projectors.ComponentLabel.EH])
    s3h = (pool2[projectors.ComponentLabel.KS3H]
           + pool2[projectors.ComponentLabel.ES3H])
    np.testing.assert_allclose(s2.lcal_raw(hpart).rows, 4 * hpart.rows,
                               atol=1e-10)
    np.testing.assert_allclose(s2.lcal_raw(s3h).rows, -2 * s3h.rows,
                               atol=1e-10)


def test_lcal_intertwines_contraction(s2):
    from aqh import contract12

    a = random_W_element(s2, 5)
    ds = contract12(a)
    lhs = contract12(s2.lcal_raw(a))
    rhs = ds.coeffs + s2.L_matrix(3) @ ds.coeffs
    assert np.linalg.norm(lhs.coeffs - rhs) / ds.norm() < 1e-12


def test_eigenspace_slot_pair_identities(s2, rng):
    import aqh.threeform as TF

    b = AltForm(8, 3, rng.standard_normal(56))
    plus = TF.proj3(b, "plus3", s2)
    minus = TF.proj3(b, "minus3", s2)
    for ax in AXES:
        A = s2.mats[ax]
        d = plus.dense()
        val = (insert(A, 1, insert(A, 2, d))
               + insert(A, 2, insert(A, 3, d))
               + insert(A, 3, insert(A, 1, d)))
        assert np.abs(val - d).max() / plus.norm() < 1e-10
    dm = minus.dense()
    val = sum(insert(s2.mats[ax], 2, insert(s2.mats[ax], 3, dm))
              for ax in AXES)
    assert np.abs(val + dm).max() / minus.norm() < 1e-10


def test_structure_json_round_trip(s2):
    from aqh.structure import structure_from_json

    back = structure_from_json({"n": 2, "I": s2.I.tolist(),
                                "J": s2.J.tolist()}, 2)
    np.testing.assert_allclose(back.I, s2.I)
    np.testing.assert_allclose(back.K, s2.K)
    shorthand = structure_from_json({"n": 3}, 3)
    assert shorthand.n == 3


def test_volume_coefficient_follows_fundamental_form(s2, s3):
    # Vol = ((-1)^(n+1)/(2n+1)!) Omega^n fixes the star orientation: on the
    # standard frames, on frames m I m^T, m J m^T with det m = -1 and +1, and
    # with the basis reordered as (e_1, I e_1, J e_1, K e_1, e_2, ..)
    rng = np.random.default_rng(4)
    for s in (s2, s3, standard_structure(4)):
        g, _ = np.linalg.qr(rng.standard_normal((s.dim, s.dim)))
        if np.linalg.det(g) > 0:
            g[:, 0] *= -1.0
        flip = np.diag([-1.0] + [1.0] * (s.dim - 1))
        perm = np.eye(s.dim)[[a + s.n * q for a in range(s.n)
                              for q in range(4)]]
        frames = [(s, 1.0)] + [
            (QuatStructure(s.n, m @ s.I @ m.T, m @ s.J @ m.T),
             round(np.linalg.det(m))) for m in (g, g @ flip, perm)]
        for t, det in frames:
            top = wedge_power(t.Omega, t.n)
            v = top.coeffs[0] * (-1.0) ** (t.n + 1) / math.factorial(
                2 * t.n + 1)
            assert t.vol_coeff == det * s.vol_coeff
            assert abs(t.vol_coeff - v) < 1e-12


def test_structure_forms_no_power_of_Omega():
    # a cold n=4 structure builds no wedge table with a factor of degree 8
    # or more: Omega^n is formed only by verify's volume check
    import os
    import subprocess
    import sys

    import aqh

    code = ("import aqh\n"
            "from aqh.exterior import tables\n"
            "aqh.standard_structure(4)\n"
            "print(max(max(k[1:]) for k in tables(16)._built\n"
            "          if k[0] == 'wedge'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(aqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 8


def _leaves(value):
    """The objects inside a cached value: arrays, and whatever is not a
    dict, list or tuple; a SparseOp holds its three arrays."""
    from aqh.exterior import SparseOp

    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, SparseOp):
        value = value[:3]
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_each_cached_array_is_held_by_one_entry():
    # a structure cache entry that re-held arrays of other entries would be
    # counted twice by any per-entry inventory of the caches; the tuple
    # table of FormTables is its int64 columns, with no Python tuples
    from aqh.exterior import tables
    from aqh.liealg import (MetricLieAlgebra, classify_algebra,
                            two_step_nilpotent)
    from aqh.verify import run_suite

    s = standard_structure.__wrapped__(3)    # fresh: empty caches
    classification_report(random_W_element(s, 5), s)
    classify_algebra(MetricLieAlgebra(s, two_step_nilpotent(3, 1).c))
    owners = {}
    for key, value in s._cache.items():
        for v in _leaves(value):
            if isinstance(v, np.ndarray):
                while isinstance(v.base, np.ndarray):
                    v = v.base
                owners.setdefault(id(v), set()).add(repr(key))
    shared = sorted(sorted(keys) for keys in owners.values() if len(keys) > 1)
    assert not shared, shared
    run_suite(3, 0)
    tab = vars(tables(12))
    kinds = {type(v).__name__ for k in tab if k != "dim"
             for v in _leaves(tab[k])}
    assert kinds <= {"ndarray", "NoneType"}, kinds
