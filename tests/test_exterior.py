"""Exterior algebra kernel: wedge/interior/inner/hodge conventions."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqh import (
    AltForm,
    DegreeError,
    MixedTorsion,
    alternate5,
    contract12,
    inner,
    interior,
    wedge,
    wedge1,
    wedge_power,
)
from aqh.exterior import (
    FormTables,
    InputFormatError,
    SparseOp,
    _accumulate,
    derivation_op,
    hodge_op,
    mixed_from_json,
    mixed_to_json,
    tables,
    wedge_coeffs,
    wedge_op,
    wedge_rows,
)
from aqh.structure import random_rotation, rotate_adapted, standard_structure
from aqh.torsion import fiber_basis_matrix
from reference import (form_from_json, form_to_json, hooks, slot_sum,
                       tuple_index, tuples, volume_form)


def rand_form(rng, dim, p):
    return AltForm(dim, p, rng.standard_normal(math.comb(dim, p)))


def basis_form(dim, idx):
    """The form e^{i1} ^ ... ^ e^{ip} for an increasing tuple."""
    c = np.zeros(math.comb(dim, len(idx)))
    c[tuple_index(dim, len(idx))[tuple(idx)]] = 1.0
    return AltForm(dim, len(idx), c)


def test_wedge_base_case():
    e1 = basis_form(8, (0,))
    e2 = basis_form(8, (1,))
    w = wedge(e1, e2)
    # w(e_0, e_1) = 1 and w(e_1, e_0) = -1, and no other pair is nonzero
    want = np.zeros((8, 8))
    want[0, 1], want[1, 0] = 1.0, -1.0
    np.testing.assert_array_equal(w.dense(), want)


def test_wedge_graded_commutativity(rng):
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        a, b = rand_form(rng, 8, p), rand_form(rng, 8, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a) * ((-1.0) ** (p * q))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_wedge_associativity(rng):
    a, b, c = rand_form(rng, 8, 1), rand_form(rng, 8, 2), rand_form(rng, 8, 2)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_wedge_degree_overflow():
    a = basis_form(8, (0, 1, 2, 3))
    b = basis_form(8, (3, 4, 5, 6, 7))
    with pytest.raises(DegreeError):
        wedge(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_wedge_bilinear_antisymmetric_oneforms(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    a = AltForm(8, 1, x)
    b = AltForm(8, 1, y)
    ab = wedge(a, b)
    # coefficients are the 2x2 minors
    for (i, j), v in zip(tuples(8, 2), ab.coeffs):
        assert abs(v - (x[i] * y[j] - x[j] * y[i])) < 1e-12


def test_volume_top_coefficient(s2, s3):
    # the shuffle convention is pinned by Omega^n having top coefficient
    # +(2n+1)! on the adapted basis
    for s in (s2, s3):
        top = wedge_power(s.Omega, s.n)
        assert abs(top.coeffs[0] - math.factorial(2 * s.n + 1)) < 1e-9


def test_interior_base_cases(rng):
    e12 = wedge(basis_form(8, (0,)), basis_form(8, (1,)))
    out = interior(np.eye(8)[0], e12)
    np.testing.assert_allclose(out.coeffs, basis_form(8, (1,)).coeffs)
    # double contraction vanishes
    a = rand_form(rng, 8, 4)
    x = rng.standard_normal(8)
    out = interior(x, interior(x, a))
    assert out.norm() < 1e-12
    with pytest.raises(DegreeError):
        interior(x, AltForm.zero(8, 0))


def test_interior_brute_force(s2, rng):
    # |e_0 hook Omega|^2 against a direct sum over index triples
    zo = interior(np.eye(8)[0], s2.Omega)
    dense = s2.Omega.dense()
    total = 0.0
    for T in tuples(8, 3):
        total += dense[(0,) + T] ** 2
    assert abs(inner(zo, zo) - total) < 1e-12


def test_inner_product(s2, rng):
    assert inner(s2.omega["I"], s2.omega["I"]) == pytest.approx(4.0)
    assert inner(s2.omega["I"], s2.omega["J"]) == pytest.approx(0.0)
    a = rand_form(rng, 8, 3)
    assert inner(a, a) >= 0
    assert inner(AltForm.zero(8, 3), AltForm.zero(8, 3)) == 0.0
    with pytest.raises(DegreeError):
        inner(a, rand_form(rng, 8, 2))


def test_inner_is_normalized_full_contraction(rng):
    a, b = rand_form(rng, 8, 3), rand_form(rng, 8, 3)
    dense = float(np.tensordot(a.dense(), b.dense(), axes=3))
    assert abs(inner(a, b) - dense / math.factorial(3)) < 1e-10


def test_hodge_pairing(s2, rng):
    for p in range(9):
        psi, phi = rand_form(rng, 8, p), rand_form(rng, 8, p)
        lhs = wedge(psi, s2.star(phi)).coeffs[0]
        assert abs(lhs - inner(psi, phi) * s2.vol_coeff) < 1e-10


def test_hodge_involution(s2, rng):
    # star^2 = (-1)^p in even dimension; star_inv undoes star
    for p in range(9):
        a = rand_form(rng, 8, p)
        ss = s2.star(s2.star(a))
        np.testing.assert_allclose(ss.coeffs, ((-1.0) ** p) * a.coeffs,
                                   atol=1e-12)
        np.testing.assert_allclose(s2.star_inv(s2.star(a)).coeffs, a.coeffs,
                                   atol=1e-12)


def test_hodge_of_volume(s2):
    vol = volume_form(s2)
    assert s2.star(vol).coeffs[0] == pytest.approx(1.0)


def test_interior_wedge_adjoint(rng):
    a, b = rand_form(rng, 8, 3), rand_form(rng, 8, 2)
    x = rng.standard_normal(8)
    assert abs(inner(interior(x, a), b) - inner(a, wedge1(x, b))) < 1e-12


def test_contract12_and_alternate_zero(s2):
    z = MixedTorsion.zero(8)
    assert contract12(z).norm() == 0.0
    assert alternate5(z).norm() == 0.0


def test_exp_table_matches_enumeration():
    tab = tables(8)
    for p in range(1, 9):
        idx = tuple_index(8, p - 1)
        want = [(u, T[m], idx[T[:m] + T[m + 1:]], (-1.0) ** m)
                for u, T in enumerate(tuples(8, p)) for m in range(p)]
        got = list(zip(*(a.tolist() for a in tab.exp_table(p))))
        assert got == want


@pytest.mark.parametrize("dim", [8, 12])
def test_hook_and_contraction_match_slot_slices(dim, rng):
    # hook(p) against e_y hook b read off the dense tensor, its transpose
    # as the adjoint, and contraction(p) as minus the trace of the hooks,
    # for every degree
    tab = tables(dim)
    for p in range(1, dim + 1):
        B = rng.standard_normal((3, tab.nforms(p)))
        want = np.stack([hooks(AltForm(dim, p, b)) for b in B])
        if 1 < p and dim ** p <= 1 << 21:
            dense = [AltForm(dim, p, b).dense() for b in B]
            np.testing.assert_array_equal(want, [[AltForm.from_dense(
                d[y]).coeffs for y in range(dim)] for d in dense])
        H = tab.hook(p)
        assert H.shape == (dim * tab.nforms(p - 1), tab.nforms(p))
        np.testing.assert_array_equal(H(B), want.reshape(3, -1))
        R = rng.standard_normal((2, dim * tab.nforms(p - 1)))
        np.testing.assert_allclose(H.T(R) @ B.T, R @ want.reshape(3, -1).T,
                                   rtol=0, atol=1e-12 * dim ** 2)
        rows = rng.standard_normal((dim, tab.nforms(p)))
        trace = np.einsum("yyt->t", H(rows).reshape(dim, dim, -1))
        np.testing.assert_allclose(tab.contraction(p)(rows.ravel()), -trace,
                                   rtol=0, atol=1e-12 * dim)


def test_wedge_table_matches_enumeration():
    # the tuple loop the vectorised build replaced, and the complement rule
    # of the Hodge star
    tab, idx = tables(8), lambda T: tuple_index(8, len(T))[T]
    for p in range(9):
        for q in range(9 - p):
            want = []
            for o, O in enumerate(tuples(8, p + q)):
                for pos in itertools.combinations(range(p + q), p):
                    S = tuple(O[i] for i in pos)
                    T = tuple(O[i] for i in range(p + q) if i not in pos)
                    want.append((o, idx(S), idx(T),
                                 (-1.0) ** (sum(pos) - p * (p - 1) // 2)))
            got = list(zip(*(a.tolist() for a in tab.wedge_table(p, q))))
            assert got == want
        comp = [idx(tuple(i for i in range(8) if i not in S))
                for S in tuples(8, p)]
        sign = [(-1.0) ** (sum(S) - p * (p - 1) // 2) for S in tuples(8, p)]
        star = hodge_op(8, p, 1.0)
        assert star.c.tolist() == list(range(len(comp)))
        assert star.r.tolist() == comp
        assert star.v.tolist() == sign


def _slot_derivation_by_tuples(M, b):
    """sum_i b(.., M e_(t_i), ..) on every increasing tuple t, term by term:
    t_i replaced by each z, with the sign that sorts the new tuple."""
    idx, out = tuple_index(b.dim, b.degree), np.zeros(b.coeffs.size)
    for u, T in enumerate(tuples(b.dim, b.degree)):
        for i, z in itertools.product(range(len(T)), range(b.dim)):
            S = T[:i] + (z,) + T[i + 1:]
            if z in T[:i] + T[i + 1:]:
                continue
            inv = sum(x > y for x, y in itertools.combinations(S, 2))
            out[u] += ((-1) ** inv * M[z, T[i]]
                       * b.coeffs[idx[tuple(sorted(S))]])
    return out


def test_derivation_matches_slot_sum(rng):
    # sum_i b(.., M X_i, ..) for a generic (not quaternionic) matrix; the
    # dense slot insertions carry a minus sign.  Besides random forms at
    # dim 8, the sparse forms of the Lie pipeline at n=2 and n=3: Omega and
    # star Omega (39 of 495 coefficients at n=3) and the Kaehler forms; star
    # Omega at n=3 has 12^8 dense entries, so it is checked term by term
    cases = [rand_form(rng, 8, p) for p in range(1, 6)]
    for n in (2, 3):
        s = standard_structure(n)
        cases += [s.Omega, s.star(s.Omega), *s.omega.values()]
    for b in cases:
        M = rng.standard_normal((3, b.dim, b.dim))
        Y = derivation_op(b).T.dense()
        got = M.reshape(3, -1) @ Y
        assert got.shape == (3, math.comb(b.dim, b.degree))
        for k in range(3):
            if b.dim ** b.degree <= 8 ** 5:
                want = -AltForm.from_dense(slot_sum(M[k], b.dense())).coeffs
            else:
                want = _slot_derivation_by_tuples(M[k], b)
            np.testing.assert_allclose(got[k], want, atol=1e-12)
            np.testing.assert_allclose(M[k].ravel() @ Y, got[k], atol=0)
    D0 = derivation_op(AltForm.zero(b.dim, 0)).T.dense()
    assert (M.reshape(3, -1) @ D0).shape == (3, 1)


def test_derivation_of_forms_side_by_side(rng):
    # a sequence of forms of one degree meets the stack in one product;
    # each form gives its column of the result
    s = standard_structure(3)
    M = rng.standard_normal((5, 12, 12))
    for forms in (list(s.omega.values()), [s.Omega, rand_form(rng, 12, 4)]):
        got = (M.reshape(5, -1) @ derivation_op(forms).T.dense()).reshape(
            5, len(forms), -1)
        assert got.shape == (5, len(forms), forms[0].coeffs.size)
        for k, b in enumerate(forms):
            np.testing.assert_allclose(
                got[:, k], M.reshape(5, -1) @ derivation_op(b).T.dense(),
                rtol=0, atol=1e-13)
    with pytest.raises(DegreeError):
        derivation_op([s.omega["I"], s.Omega])


def test_derivation_high_degrees_match_slot_sum(rng):
    # degrees 6 and 7 at dim 8, beyond those of test_derivation_matches_slot_sum,
    # for a stack of 12 matrices; one matrix gives its row of the stack.  The
    # dense reference (8^7 entries at p = 7) is evaluated on three rows.
    M = rng.standard_normal((12, 8, 8))
    for p in (6, 7):
        b = rand_form(rng, 8, p)
        Y = derivation_op(b).T.dense()
        got = M.reshape(12, -1) @ Y
        assert got.shape == (12, math.comb(8, p))
        dense = b.dense()
        for k in (0, 5, 11):
            want = -AltForm.from_dense(slot_sum(M[k], dense)).coeffs
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-12)
        for k in range(12):
            np.testing.assert_allclose(M[k].ravel() @ Y, got[k], rtol=0,
                                       atol=1e-12)


def test_rank_lookup_matches_search():
    # one lut[mask] for all degrees, filled in any order, numbers the
    # tuples as the sorted search of their masks does
    for dim in (8, 12):
        tab = FormTables(dim)
        degrees = list(range(dim + 1))
        np.random.default_rng(dim).shuffle(degrees)
        for p in degrees:
            ref = (1 << tab.columns(p)).sum(axis=0)
            masks = np.random.default_rng(p).permutation(ref)
            order = np.argsort(ref)
            want = order[np.searchsorted(ref[order], masks)]
            np.testing.assert_array_equal(tab._rank(p, masks), want)
        for key in ((2, 2), (1, 3), (4, dim - 4)):
            for x, y in zip(tab.wedge_table(*key),
                            tables(dim).wedge_table(*key)):
                np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("dim", [8, 12, 16])
def test_columns_are_the_lexicographic_tuples_and_rank_numbers_them(dim):
    # columns(p) against the itertools enumeration, and _rank of the bit mask
    # of each column is its position, for every degree
    tab = FormTables(dim)
    for p in range(dim + 1):
        cols = tab.columns(p)
        assert cols.dtype == np.int64 and not cols.flags.writeable
        want = np.array(tuples(dim, p), np.int64).reshape(len(cols.T), p).T
        np.testing.assert_array_equal(cols, want)
        np.testing.assert_array_equal(tab._rank(p, (1 << cols).sum(axis=0)),
                                      np.arange(math.comb(dim, p)))


def test_der_table_rows_grouped_by_source():
    # row s of each der_table array holds the p (dim - p + 1) pairs that
    # read source tuple s; the (zr, t) pairs never repeat
    for dim, p in ((8, 3), (12, 4), (12, 8)):
        zr, t, sign = tables(dim).der_table(p)
        N = math.comb(dim, p)
        assert zr.shape == t.shape == sign.shape == (N, p * (dim - p + 1))
        assert np.unique(zr * N + t).size == zr.size
        # a source tuple s reaches itself once per entry, with z = r
        z, r = np.divmod(zr, dim)
        diag = t == np.arange(N)[:, None]
        assert (diag.sum(axis=1) == p).all() and (z[diag] == r[diag]).all()


def test_alternate5_matches_dense_alternation(rng):
    a = MixedTorsion(8, rng.standard_normal((8, math.comb(8, 4))))
    dense = np.stack([AltForm(8, 4, a.rows[x]).dense() for x in range(8)])
    alt = np.zeros_like(dense)
    for perm in itertools.permutations(range(5)):
        inv = sum(perm[i] > perm[j]
                  for i in range(5) for j in range(i + 1, 5))
        alt += (-1.0) ** inv * dense.transpose(perm)
    want = AltForm.from_dense(alt / math.factorial(4)).coeffs
    np.testing.assert_allclose(alternate5(a).coeffs, want, atol=1e-12)


def test_wedge_rows_sums_one_form_wedges(rng):
    rows = rng.standard_normal((8, math.comb(8, 3)))
    want = sum((wedge1(np.eye(8)[r], AltForm(8, 3, rows[r])) for r in range(8)),
               AltForm.zero(8, 4))
    np.testing.assert_allclose(wedge_rows(rows, 3), want.coeffs, atol=1e-12)


@pytest.mark.parametrize("dim", [8, 12])
def test_wedge_sums_the_table_rows_as_wedge_op_applies_them(dim, rng):
    # every (p, q) with p + q <= dim: the bits of the fixed-factor operator,
    # whose entries skip the zeros of b; on a (2, 3) stack, the bits of the
    # six wedges, in one pass or in chunks (at dim 12, p = q = 4 goes one
    # entry a pass)
    for p in range(dim + 1):
        for q in range(dim + 1 - p):
            a = rng.standard_normal((2, 3, math.comb(dim, p)))
            b = rng.standard_normal((2, 3, math.comb(dim, q)))
            b[0, 0, ::3] = 0.0
            x, y = AltForm(dim, p, a[0, 0]), AltForm(dim, q, b[0, 0])
            assert (wedge(x, y).coeffs.tobytes()
                    == wedge_op(y, p)(x.coeffs).tobytes()), (p, q)
            rows = [wedge(AltForm(dim, p, u), AltForm(dim, q, v)).coeffs
                    for u, v in zip(a.reshape(6, -1), b.reshape(6, -1))]
            got = wedge_coeffs(a, b, dim, p, q)
            assert got.shape == (2, 3, math.comb(dim, p + q))
            assert got.reshape(6, -1).tobytes() == np.array(rows).tobytes()


def test_sparse_op_product_matches_dense(rng):
    # repeated (r, c) pairs, empty rows and columns
    A = SparseOp(rng.integers(0, 6, 30), rng.integers(0, 8, 30),
                 rng.standard_normal(30), (7, 9))
    x = rng.standard_normal((2, 9))
    np.testing.assert_allclose(A(x), x @ A.dense().T, atol=1e-12)
    y = rng.standard_normal((2, 7))
    np.testing.assert_allclose(A.T(y), y @ A.dense(), atol=1e-12)


def test_sparse_op_bounds_the_memory_of_a_stack(rng):
    # a generic frame makes deriv_op(4) dense (14,940 nonzeros at n = 3);
    # one pass over the 42 rows of Q^T held a 42 x nnz index and two value
    # arrays, 10.05 MiB of tracemalloc
    s = rotate_adapted(random_rotation(rng), standard_structure(3))
    op, x = s.deriv_op(4), fiber_basis_matrix(s).T
    want = _accumulate(op.r, op.v * x.take(op.c, -1), op.shape[0])
    tracemalloc.start()
    try:
        got = op(x)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert np.array_equal(op(x.reshape(6, 7, -1)), want.reshape(6, 7, -1))
    assert peak < 2.0, f"deriv_op(4) on 42 rows peaks at {peak:.2f} MiB"


def test_json_round_trip(rng):
    a = rand_form(rng, 8, 4)
    back = form_from_json(form_to_json(a))
    np.testing.assert_allclose(back.coeffs, a.coeffs)
    rows = rng.standard_normal((8, math.comb(8, 4)))
    mt = MixedTorsion(8, rows)
    back = mixed_from_json(mixed_to_json(mt))
    np.testing.assert_allclose(back.rows, mt.rows)


@pytest.mark.parametrize("data, message", [
    ({"n": 1, "degree": 2, "coeffs": {}}, "key 'n'"),
    ({"n": 2, "degree": 9, "coeffs": {}}, "key 'degree'"),
    ({"n": 2, "degree": 2, "coeffs": {"0,8": 1.0}}, "'0,8': index 8"),
    ({"n": 2, "degree": 2, "coeffs": {"1,0": 1.0}}, "'1,0': needs 2 indices"),
    ({"n": 2, "degree": 2, "coeffs": {"0,1": "inf"}}, "'0,1': value"),
])
def test_form_from_json_rejects_invalid(data, message):
    with pytest.raises(InputFormatError, match=message):
        form_from_json(data)


def _reference_coeffs(data, dim, p, lead):
    """The coefficient array of a JSON tensor, one key at a time."""
    idx = {T: i for i, T in enumerate(itertools.combinations(range(dim), p))}
    out = np.zeros((dim,) * lead + (len(idx),))
    for key, v in data["coeffs"].items():
        T = tuple(map(int, key.split(",")))
        out[T[:lead] + (idx[T[lead:]],)] = float(v)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_json_parser_matches_per_key_reference(n):
    # shuffled key order, and keys and values that only the per-key path
    # reads: blanks, signs, leading zeros, and integer and float values
    from aqh import random_W_element, standard_structure

    dim = 4 * n
    rng = np.random.default_rng(60 + n)
    docs = [mixed_to_json(random_W_element(standard_structure(n), 61)),
            form_to_json(rand_form(rng, dim, 3))]
    odd = {"0, 1,2,3,4": 1.5, "+0,2,3,4,5": 1, "01,2,3,4,5": -2}
    for doc in docs:
        lead = 1 if doc["degree"] == 4 else 0
        items = list(doc["coeffs"].items())
        for variant in range(3):
            rng.shuffle(items)
            data = json.loads(json.dumps(dict(doc, coeffs=dict(items))))
            if variant == 2 and lead:
                for key, v in odd.items():
                    plain = ",".join(str(int(x)) for x in key.split(","))
                    data["coeffs"].pop(plain, None)
                    data["coeffs"][key] = v
            want = _reference_coeffs(data, dim, doc["degree"], lead)
            got = (mixed_from_json(data).rows if lead
                   else form_from_json(data).coeffs)
            np.testing.assert_array_equal(got, want)
        # a key with an empty field is refused, as one key at a time
        load = mixed_from_json if lead else form_from_json
        for key in (("0,,2,3,4", ",1,2,3,4", "0,1,2,3,4,", "") if lead
                    else ("0,,2", ",1,2", "0,1,2,", "")):
            data = json.loads(json.dumps(dict(doc, coeffs=dict(items))))
            data["coeffs"][key] = 1.0
            with pytest.raises(InputFormatError, match=f"key {key!r} is "
                               "not a list of integers"):
                load(data)
