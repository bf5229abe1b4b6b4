"""The components section of the identity suite: it forms no dim W x dim W
matrix, and each of its projector checks fails on a projector family broken
the way that check alone can see.  The Lie-pipeline section's route checks
fail on a broken route, and the classifier section's row checks on a broken
row or Schur constant.  The stacked rotation check of the operators section
reads as the per-rotation loop did and sees one broken Omega of its stack,
and the full suite at n = 3 and n = 2 runs every check, in order, and
passes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from aqh import classify as C
from aqh import projectors as PR
from aqh import verify as V
from aqh.projectors import ComponentLabel as CL
from aqh.structure import standard_structure
from aqh.torsion import w_dim

SECTION = ("components",)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _arrays(v)


def test_components_section_forms_no_dense_W_matrix(monkeypatch):
    built = []

    def record(n):
        built.append(standard_structure.__wrapped__(n))     # fresh caches
        return built[-1]

    monkeypatch.setattr(V, "standard_structure", record)
    V.run_suite(3, 71, sections=SECTION)    # fills the shared form tables
    tracemalloc.start()
    try:
        results = V.run_suite(3, 71, sections=SECTION)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    D = w_dim(3)
    dense = [k for k, v in built[-1]._cache.items()
             if any(a.shape[-2:] == (D, D) for a in _arrays(v))]
    assert not dense
    # 40.0 MiB with eight cached 504 x 504 matrices; 28.8 MiB on row blocks
    # with a 6 x 6 stack of split parts and deriv_op(4) applied to all of
    # Q^T in one pass; about 16 MiB with both streamed, most of it the
    # section's cold structure caches
    assert peak < 20.0, f"components section peak {peak:.1f} MiB"


def _unit(x):
    return x / np.linalg.norm(x)


@pytest.fixture(scope="module")
def pieces():
    """Unit W-coordinate vectors of a generic direction and of KH, EH, L3EH
    and KS3H at n = 3."""
    s = standard_structure(3)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((1, s.dim, w_dim(3) // s.dim))
    parts = PR.split_coords(C, C.reshape(1, -1) @ V.dstar_on_W(s).T, s)
    out = {X: _unit(parts[X].ravel())
           for X in (CL.KH, CL.EH, CL.L3EH, CL.KS3H)}
    out["any"] = _unit(rng.standard_normal(w_dim(3)))
    return out


def _run_mutated(monkeypatch, moves):
    """The components section at n = 3 with split_coords giving part X of
    coordinates C the extra u (C . v) for each (X, u, v) of moves."""
    split = PR.split_coords

    def mutated(C, ds, s):
        parts = split(C, ds, s)
        flat = C.reshape(*C.shape[:-2], -1)
        for X, u, v in moves:
            parts[X] = parts[X] + np.multiply.outer(flat @ v, u).reshape(
                parts[X].shape)
        return parts

    monkeypatch.setattr(PR, "split_coords", mutated)
    return {r.check.split("/")[1]: r.passed
            for r in V.run_suite(3, 71, sections=SECTION)}


def test_projector_algebra_sees_a_rank_one_perturbation(monkeypatch, pieces):
    # P_KH + 1e-6 u v^T
    passed = _run_mutated(monkeypatch, [
        (CL.KH, 1e-6 * pieces["any"], _unit(np.sin(np.arange(w_dim(3)))))])
    assert not passed["component-projector-algebra"]


def test_component_traces_see_a_direction_moved_between_components(
        monkeypatch, pieces):
    # a unit vector u of KH moved into EH: still six complementary
    # orthogonal projectors, but of traces 127 and 13
    u = pieces[CL.KH]
    passed = _run_mutated(monkeypatch, [(CL.KH, -u, u), (CL.EH, u, u)])
    assert passed["component-projector-algebra"]
    assert not passed["component-traces"]


def test_component_traces_see_a_move_between_the_invisible_components(
        monkeypatch, pieces):
    # a unit vector u of L3EH moved into KS3H: d* kills both, so the
    # contraction checks pass, and the eigen-split traces read Lcal, not the
    # split; the component traces read L3EH=27 (and paper-route fails).  A
    # route that read the traces through d* and HAT_W would miss this move
    u = pieces[CL.L3EH]
    passed = _run_mutated(monkeypatch, [(CL.L3EH, -u, u), (CL.KS3H, u, u)])
    assert passed["component-projector-algebra"]
    assert passed["eigen-split-traces"]
    assert passed["contraction-kernel"]
    assert passed["contraction-injective-on-visible"]
    assert not passed["component-traces"]


def test_injectivity_sees_a_visible_direction_in_the_kernel(monkeypatch,
                                                             pieces):
    # a unit vector w of KH swapped with a unit vector k of KS3H, which d*
    # kills: the projectors and their traces are as good as before
    w, k = pieces[CL.KH], pieces[CL.KS3H]
    passed = _run_mutated(monkeypatch, [(CL.KH, -w, w), (CL.KH, k, k),
                                        (CL.KS3H, -k, k), (CL.KS3H, w, w)])
    assert passed["component-projector-algebra"]
    assert passed["component-traces"]
    assert not passed["contraction-injective-on-visible"]


def _lie_checks():
    return {r.check.split("/")[1]: r.passed
            for r in V.run_suite(3, 71, sections=("lie-pipeline",))}


def test_codifferential_routes_see_a_wrong_sign_in_the_structural_route(
        monkeypatch):
    # codiff_Omega wedges the one-forms (u, d* w_A) of its two formula
    # routes with the w_A in one product of ae_factors(1), u in the first
    # row; u with the wrong sign is a wrong structural route, and the report
    # does not read it
    from aqh.structure import QuatStructure

    real = QuatStructure.ae_factors

    def flipped(self, p):
        W, D = real(self, p)
        if p != 1:
            return W, D
        return (lambda x: W(np.asarray(x) * [[-1.0], [1.0]])), D

    monkeypatch.setattr(QuatStructure, "ae_factors", flipped)
    passed = _lie_checks()
    assert not passed["pipeline-codifferential-routes"]
    assert passed["two-form-codiff-identity"]
    assert passed["pipeline-product-rule"]


def test_xi_check_sees_a_perturbed_xi_map(monkeypatch):
    # xi of the contraction through xi_maps, scaled by 1 + 1e-4, against
    # the Hodge formula, which reads no xi map
    from aqh import threeform as TF

    real = TF.xi_maps

    def perturbed(s):
        M = real(s).copy()
        M[0] *= 1 + 1e-4
        return M

    monkeypatch.setattr(TF, "xi_maps", perturbed)
    passed = _lie_checks()
    assert not passed["xi-hodge-vs-contraction"]
    assert passed["pipeline-codifferential-routes"]



def _classifier_checks(n):
    return {r.check.split("/")[1]: r.passed
            for r in V.run_suite(n, 71, sections=("classifier",))}


def _with_cond(row, column, k, cond):
    """row with condition k of column replaced by cond."""
    conds = list(getattr(row, column))
    conds[k] = cond
    return dataclasses.replace(row, **{column: tuple(conds)})


def test_schur_row_forms_sees_a_scaled_constant(monkeypatch):
    # nu_KH of row L3EH's condition d* a = 0, scaled by 1 + 1e-6: the row
    # reads it on its mixture L3EH + KH
    table = C.schur_table(standard_structure(3))
    tag, nu = table.col2[1][1]
    assert tag == "schur" and nu[1] > 0.1
    nu = (nu[0], nu[1] * (1 + 1e-6), *nu[2:])
    col2 = list(table.col2)
    col2[1] = (col2[1][0], (tag, nu))
    monkeypatch.setitem(C._SCHUR, 3, dataclasses.replace(table,
                                                         col2=tuple(col2)))
    passed = _classifier_checks(3)
    assert not passed["schur-row-forms"]
    assert passed["class-conditions-members"]
    assert passed["column-agreement"]


def test_column_agreement_sees_a_dropped_col3_term(monkeypatch):
    # row L3EH's col3 condition (L - 2) dOm - 4 dOm without its dOm term:
    # L dOm does not vanish on L3EH, so its members fail column 3 alone
    C.schur_table(standard_structure(3))    # built on the rows as they are
    real = C._build_table2
    rows = list(real(3))
    assert rows[1].col3[0] == ("f5", {"LdOm": 1.0, "dOm": -6.0})
    rows[1] = _with_cond(rows[1], "col3", 0, ("f5", {"LdOm": 1.0}))
    monkeypatch.setattr(C, "_build_table2",
                        lambda n: C._Rows(rows) if n == 3 else real(n))
    passed = _classifier_checks(3)
    assert not passed["column-agreement"]
    assert passed["class-conditions-members"]


def test_partial_table_sees_a_dropped_table3_term(monkeypatch):
    # Table 3 row EH + KS3H, dOm + xi ^ Omega = 0, without its xi ^ Omega
    # term: dOm alone does not vanish on the row's members
    C.schur_table(standard_structure(2))    # built on the rows as they are
    rows = list(C._build_table3())
    assert rows[2].col3[0] == ("f5", {"dOm": 1.0, "xiOm": 1.0})
    rows[2] = _with_cond(rows[2], "col3", 0, ("f5", {"dOm": 1.0}))
    monkeypatch.setattr(C, "_build_table3", lambda: C._Rows(rows))
    passed = _classifier_checks(2)
    assert not (passed["partial-table-members"]
                and passed["partial-table-reject"])
    assert passed["class-conditions-members"]


def test_classifier_sees_a_dropped_col2_term(monkeypatch):
    # every 8th single term, in row order, dropped from a multi-term
    # column-2 condition at n = 2 fails the classifier section.  Rows L3EH,
    # L3ES3H and L3EH + L3ES3H are left out: both components are zero at
    # n = 2, so those rows have no mixture to read the dropped term on
    C.schur_table(standard_structure(2))    # built on the rows as they are
    real = C._build_table2
    rows = real(2)
    empty = {frozenset({CL.L3EH}), frozenset({CL.L3ES3H}),
             frozenset({CL.L3EH, CL.L3ES3H})}
    drops = [(i, k, key) for i, row in enumerate(rows)
             if row.components not in empty
             for k, cond in enumerate(row.col2)
             if cond[0] in ("w", "f3") and len(cond[1]) > 1 for key in cond[1]]
    assert len(drops) == 186
    missed = []
    for i, k, key in drops[::8]:
        tag, terms = rows[i].col2[k]
        patched = list(rows)
        patched[i] = _with_cond(rows[i], "col2", k, (tag, {
            f: c for f, c in terms.items() if f != key}))
        table = C._Rows(patched)
        monkeypatch.setattr(C, "_build_table2", lambda n, table=table:
                            table if n == 2 else real(n))
        if all(_classifier_checks(2).values()):
            missed.append((rows[i].key, k, key))
    assert not missed


def test_row_sweep_stacks_match_single_tensors():
    # each row is read on one stacked context of its mixtures; every entry
    # gives the residuals of its mixture on the mixture's own stack-of-one
    # context, within 1e-14 of the mixture's norm
    from aqh import MixedTorsion, alternate5, components, contract12
    from aqh.torsion import random_W_element, w_coords

    for n, tables in ((2, ((C.table2_rows, ("col2",)),
                           (C.table3_rows, ("table3",)))),
                      (3, ((C.table2_rows, ("col2", "col3")),))):
        s = standard_structure(n)
        pools = [components(random_W_element(s, 80 + k), s, check=False)
                 for k in range(2)]
        labs = [X for X in CL if PR.COMPONENT_DIMS[X](n)]
        for table, columns in tables:
            rows = [r for r in table(s) if r.components & set(labs)]
            sweep = list(V._row_sweep(s, rows, pools, columns))
            assert len(sweep) == len(rows)
            for row, (member, results) in zip(rows, sweep):
                comps = [X for X in labs if X in row.components]
                outside = [X for X in labs if X not in row.components]
                mixes = [sum((pool[X] for X in t), MixedTorsion.zero(s.dim))
                         for pool in pools
                         for t, _ in V._mixtures(comps, outside)]
                assert len(mixes) == len(member)
                for column, (rr, _) in zip(columns, results):
                    for i, m in enumerate(mixes):
                        scale = np.array([m.norm()])
                        one = (C.ctx_from_torsion(
                            w_coords(m, s)[None],
                            contract12(m).coeffs[None], s, scale)
                            if column == "col2" else C.ctx_from_derived(
                                alternate5(m).coeffs[None], s, scale))
                        conds = row.col2 if column == "col2" else row.col3
                        single = C.RowResult.evaluate(row, conds, one)
                        assert abs(rr.scale[i] - scale[0]) <= 1e-14 * scale[0]
                        for x, y in zip(rr.residuals, single.residuals):
                            assert abs(x[i] - y[0]) <= 1e-14 * scale[0], (
                                row.key, column, i)


def test_mixed_contexts_match_direct_ones():
    # every field of a context mixed from the components' contexts (dstar,
    # xi, f3, w, f5 and the alternation misses) equals the field of the
    # context made directly on the mixed tensors, within 1e-13 relative to
    # the field's largest entry, on 0/1 mixtures within and across pools
    from aqh import MixedTorsion, alternate5, components, contract12
    from aqh.torsion import random_W_element, w_coords

    for n in (2, 3):
        s = standard_structure(n)
        pools = [components(random_W_element(s, 70 + k), s, check=False)
                 for k in range(2)]
        parts = [pool[X] for pool in pools for X in CL
                 if PR.COMPONENT_DIMS[X](n)]
        S = np.random.default_rng(n).integers(0, 2, (9, len(parts)))
        mixes = [sum((a for a, x in zip(parts, row) if x),
                     MixedTorsion.zero(s.dim)) for row in S]

        def contexts(ts):
            scale = np.array([t.norm() for t in ts])
            return (C.ctx_from_torsion(
                        np.stack([w_coords(t, s) for t in ts]),
                        np.stack([contract12(t).coeffs for t in ts]), s,
                        scale),
                    C.ctx_from_derived(
                        np.stack([alternate5(t).coeffs for t in ts]), s,
                        scale))

        scale = np.array([m.norm() for m in mixes])
        mixed = [ctx.mix(S.astype(float), scale) for ctx in contexts(parts)]
        direct = contexts(mixes)
        for got, want in zip(mixed, direct):
            assert (got.miss is None) == (want.miss is None)
            fields = {"dstar": (got.dstar, want.dstar),
                      "xi": (got.xi, want.xi)}
            if want.miss is not None:
                fields["miss"] = (got.miss, want.miss)
            for tag in ("f3", "w", "f5"):
                assert set(getattr(got, tag)) == set(getattr(want, tag)), tag
                fields.update({f"{tag}.{k}": (getattr(got, tag)[k], v)
                               for k, v in getattr(want, tag).items()})
            for key, (x, y) in fields.items():
                # the misses are round-off on alternations of W: they are
                # read against the 5-forms, as the guard reads them
                ref = want.f5["dOm"] if key == "miss" else y
                assert x.shape == y.shape, key
                gap = np.abs(x - y).max() / np.abs(ref).max()
                assert gap <= 1e-13, (n, key, gap)


def test_row_sweep_guards_the_alternation():
    # Table-2 row L3EH + KH + L3ES3H + KS3H reads wAA0 in column 3, which
    # holds only on alternations of W: a sweep whose pool has one tensor off
    # W, so that its 5-form is off the alternation image, is refused on the
    # mixed contexts; the same sweep without it passes
    from aqh import MixedTorsion, components
    from aqh.torsion import random_W_element

    s = standard_structure(3)
    row = C.table2_rows(s).by_id[frozenset({CL.L3EH, CL.KH, CL.L3ES3H,
                                            CL.KS3H})]
    pools = [components(random_W_element(s, 90 + k), s, check=False)
             for k in range(2)]
    [(member, [(rr, _)])] = V._row_sweep(s, [row], pools, ("col3",))
    assert rr.value[member].max() <= 1e-8
    rows = np.random.default_rng(4).standard_normal((s.dim, s.tab.nforms(4)))
    off = dict(pools[1])
    off[CL.KH] = off[CL.KH] + MixedTorsion(s.dim, 1e-3 * rows)
    with pytest.raises(ValueError, match="not the alternation"):
        list(V._row_sweep(s, [row], [pools[0], off], ("col3",)))


def test_round_trip_reads_the_report(monkeypatch):
    # a report that names the class QK for every tensor: each of the 15
    # subsets at n = 2 comes back wrong
    real = C._report
    monkeypatch.setattr(C, "_report",
                        lambda *args: {**real(*args), "key": "QK"})
    [row] = [r for r in V.run_suite(2, 71, sections=("classifier",))
             if r.check == "classifier/classification-round-trip"]
    assert not row.passed
    assert (row.residual, row.detail) == (15.0, "0/15 subsets")


class _DrawRecorder:
    """An rng that records its state before each standard_normal draw."""

    def __init__(self, seed):
        self.rng, self.states = np.random.default_rng(seed), []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size=None):
        self.states.append((size, self.rng.bit_generator.state))
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("seed", [0, 71])
def test_rotation_check_matches_the_per_rotation_loop(seed):
    # the stacked check against 100 structures built one by one from the
    # same place in the stream
    from reference import rotation_invariance_loop

    s = standard_structure(3)
    rng = _DrawRecorder(seed)
    [row] = [r for r in V.check_operators(s, rng)
             if r.check == "fundamental-form-rotation-invariance"]
    [state] = [st for size, st in rng.states if size == (100, 3, 3)]
    ref = np.random.default_rng()
    ref.bit_generator.state = state
    want = rotation_invariance_loop(s, ref)
    assert row.passed and abs(row.residual - want) <= 1e-15


def test_rotation_check_sees_one_perturbed_omega(monkeypatch):
    # one Omega of the stack of 100 moved by 1e-8 in one coefficient
    real = V.fundamental_forms

    def perturbed(IJK):
        w, Om = real(IJK)
        if Om.ndim == 2:
            Om = Om.copy()
            Om[37, 5] += 1e-8
        return w, Om

    monkeypatch.setattr(V, "fundamental_forms", perturbed)
    passed = {r.check.split("/")[1]: r.passed
              for r in V.run_suite(3, 71, sections=("operators",))}
    assert not passed.pop("fundamental-form-rotation-invariance")
    assert all(passed.values())


def test_rotation_check_refuses_a_non_quaternionic_pair(monkeypatch):
    # one rotated I of the stack scaled by 1 + 1e-9: I^2 = -1 fails, the
    # axiom helper raises, and the section aborts
    from aqh.liealg import VerificationError
    from aqh.structure import StructureError, quaternionic_K

    s = standard_structure(3)
    I, J = np.tile(s.I, (5, 1, 1)), np.tile(s.J, (5, 1, 1))
    assert np.array_equal(quaternionic_K(I, J), np.tile(s.K, (5, 1, 1)))
    I[3] *= 1 + 1e-9
    with pytest.raises(StructureError, match="I\\^2 = -1"):
        quaternionic_K(I, J)
    real = V.rotated_pair

    def broken(q, s):
        I2, J2 = real(q, s)
        I2[42] = I2[42] * (1 + 1e-9)
        return I2, J2

    monkeypatch.setattr(V, "rotated_pair", broken)
    with pytest.raises(VerificationError, match="section operators"):
        V.run_suite(3, 71, sections=("operators",))


# the checks of run_suite(3, seed), in order; at n = 2 the suite adds
# l3es3h-vanishes-dim8, has no mixed-eigen-contraction-formula and reads
# the partial Table 3 in place of column agreement
SUITE_N3 = {
    "exterior": [
        "hodge-pairing", "star-involution-sign",
        "wedge-associativity-commutativity", "interior-wedge-adjoint",
        "volume-normalization"],
    "operators": [
        "L-squared-on-threeforms", "L-matches-slot-definition",
        "lcal-quadratic-relation", "L-on-torsion-rows",
        "contraction-intertwines-lcal", "eigenspace-slot-pair-identities",
        "fundamental-form-rotation-invariance"],
    "torsion-space": [
        "embedding-round-trip", "torsion-space-dimension",
        "conjugation-sum-eigenvalues", "triple-extraction",
        "triple-extraction-covariance"],
    "three-forms": [
        "contraction-right-inverse", "right-inverse-lands-in-torsion-space",
        "threeform-projector-traces", "threeform-projector-algebra",
        "membership-rows-members", "membership-rows-reject",
        "membership-es3h-prefix-reading", "xi-rotation-invariance"],
    "components": [
        "component-projector-algebra", "component-traces",
        "eigen-split-traces", "hat-isometry", "contraction-kernel",
        "paper-route", "contraction-injective-on-visible",
        "pure-type-contraction-formula", "mixed-eigen-contraction-formula",
        "profile-pythagoras", "profile-rotation-invariance"],
    "classifier": [
        "classification-round-trip", "class-conditions-members",
        "class-conditions-reject", "column-agreement", "schur-row-forms",
        "table2-pattern", "swann-alternation", "alternation-identities",
        "hodge-factor-single-wedge", "hodge-factor-insertion-wedge",
        "hodge-triple-wedge-corrected", "exterior-derivative-recovery",
        "wedge-criteria-agreement", "perp-five-form-test"],
    "lie-pipeline": [
        "abelian-is-integrable", "pipeline-alternation",
        "pipeline-gray-identity", "pipeline-nijenhuis-trace",
        "pipeline-codifferential-routes", "pipeline-product-rule",
        "wedge-trace-reading", "two-form-codiff-identity",
        "xi-hodge-vs-contraction", "synthetic-torsion-round-trip"],
}


def _suite_checks(n):
    sections = {k: list(v) for k, v in SUITE_N3.items()}
    if n == 2:
        three = sections["three-forms"]
        three.insert(three.index("threeform-projector-algebra") + 1,
                     "l3es3h-vanishes-dim8")
        sections["components"].remove("mixed-eigen-contraction-formula")
        cls = sections["classifier"]
        k = cls.index("column-agreement")
        cls[k:k + 1] = ["partial-table-members", "partial-table-reject"]
    return [f"{sec}/{c}" for sec, checks in sections.items() for c in checks]


@pytest.mark.parametrize("n, seed", [(3, 71), (2, 0)])
def test_suite_runs_every_check_and_passes(n, seed):
    # a stacked check that is dropped, renamed, moved or failing shows here
    rows = V.run_suite(n, seed)
    assert [r.check for r in rows] == _suite_checks(n)
    assert [r.check for r in rows if not r.passed] == []
