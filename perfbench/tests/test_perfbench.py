"""Tests of the benchmark itself: span arithmetic, wrapping, the
correctness gate and the output digest.

    python -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_once():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.exclusive_times(parent, start, end).tolist() == \
        [3.0, 2.0, 1.0, 4.0]
    # masked: only spans 0 and 2 count, so 0 loses its grandchild 2 only
    mask = [True, False, True, False]
    out = tracing.exclusive_times(parent, start, end, mask)
    assert out[0] == 9.0 and out[2] == 1.0


def test_layer_metrics_per_item():
    tr = tracing.Tracer()
    tr.intern(tracing.ITEM)
    nid = tr.intern("torsion.is_in_W")
    for item in range(2):
        root = tr.open(0)
        child = tr.open(nid)
        tr.close(child)
        tr.close(root)
        # fixed times: item lasts 4 s, the call 1 s
        tr.start[root], tr.end[root] = 10.0 * item, 10.0 * item + 4
        tr.start[child], tr.end[child] = 10.0 * item + 1, 10.0 * item + 2
    m = tracing.layer_metrics(tr, 0, tr.mark(), 2)
    assert m["torsion.is_in_W.calls"] == 1.0
    assert m["torsion.is_in_W.self_s"] == 1.0
    assert m["trace.spans_per_item"] == 1.0


def test_tracer_sees_calls_through_imported_names():
    import aqh

    classify_mod = sys.modules["aqh.classify"]
    original = classify_mod.is_in_W
    s = aqh.standard_structure(2)
    a = aqh.random_W_element(s, 7)
    tr = tracing.Tracer()
    assert tr.install() == []
    try:
        assert classify_mod.is_in_W is not original
        tr.item(aqh.classification_report, a, s)
    finally:
        tr.uninstall()
    assert classify_mod.is_in_W is original
    m = tracing.layer_metrics(tr, 0, tr.mark(), 1)
    # classify and table2_residual each test membership through the name
    # they imported from torsion
    assert m["torsion.is_in_W.calls"] == 2.0
    assert m["classify.classification_report.calls"] == 1.0
    assert m["structure.cache_builds"] > 0
    assert 0.0 < m["structure.cache_hit_ratio"] < 1.0
    names, parent, start, end = tr.arrays()
    total = end[0] - start[0]
    self_s = tracing.exclusive_times(parent, start, end)
    assert abs(self_s.sum() - total) < 1e-9


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    out = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        d = str(tmp_path_factory.mktemp(tag))
        workloads.CliN2().generate(seed, d)
        out[tag] = d
    return out


def _first_pass(workdir, tamper=None):
    wl = workloads.CliN2()
    wl.load(workdir)
    wl.start()
    if tamper:
        tamper(wl)
    return worker.run_items(wl, count=wl.pass_size)


def test_wrong_class_counts_as_failure(cli_inputs):
    assert _first_pass(cli_inputs["a"])["failed"] == 0

    def wrong(wl):
        path, key = wl.items[3]
        wl.items[3] = [path, "QK" if key != "QK" else "KH"]

    res = _first_pass(cli_inputs["a"], wrong)
    assert res["failed"] == 1
    assert res["attempted"] == workloads.CliN2.pass_size


def test_digest_stable_for_fixed_seed(cli_inputs):
    a = _first_pass(cli_inputs["a"])["digest"]
    assert _first_pass(cli_inputs["a"])["digest"] == a
    assert _first_pass(cli_inputs["b"])["digest"] == a
    assert _first_pass(cli_inputs["c"])["digest"] != a


def test_norms_record_rounds_relative_to_total():
    prof = {"norms": {"KH": 3.0, "EH": 4.0 + 1e-15}, "total": 5.0}
    assert workloads.norms_record(prof) == [0.8, 0.6]
    assert workloads.norms_record({"norms": {"KH": 0.0}, "total": 0.0}) \
        == [0.0]
    assert np.isclose(sum(v * v for v in workloads.norms_record(prof)), 1.0)
