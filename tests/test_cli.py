"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from aqh.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "liealg",
                       "class_KH_EH.json")


def test_dims(capsys):
    assert main(["dims", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "120" in out and "64" in out


def test_dims_forms_no_gram_matrix(capsys, monkeypatch):
    # dims reads the traces of the identity split; the Gram matrix of d* on
    # the visible rows (N3 x N3), which the components section of verify
    # reads, is not formed: no product through d* on W coordinates yields
    # an N3 x N3 matrix
    from aqh import verify as V

    N3, grams = 220, []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kw):
            if "out" in kw:
                kw["out"] = tuple(np.asarray(o) for o in kw["out"])
            out = getattr(ufunc, method)(*map(np.asarray, inputs), **kw)
            if ufunc is np.matmul and out.shape[-2:] == (N3, N3):
                grams.append(out.shape)
            return out.view(Spy) if isinstance(out, np.ndarray) else out

    real = V.dstar_on_W
    monkeypatch.setattr(V, "dstar_on_W", lambda s: real(s).view(Spy))
    assert main(["dims", "--n", "3", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["total"] == pytest.approx(504, abs=1e-6)
    assert not grams


def test_dims_and_inject_from_n2_to_n4(tmp_path, capsys):
    assert main(["dims", "--n", "4", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    traces = [r["trace"] for r in rep["components"]]
    assert traces == pytest.approx([96, 320, 16, 192, 640, 32], abs=1e-6)
    assert rep["total"] == pytest.approx(1296, abs=1e-6)
    for args in (["dims"], ["inject", "--component", "KH", "--out",
                            str(tmp_path / "x.json")]):
        assert main(args + ["--n", "1"]) == 2
        assert "needs n > 1" in capsys.readouterr().err
        # above the largest n whose tables fit: refused before any build
        assert main(args + ["--n", "5"]) == 2
        assert "above 4" in capsys.readouterr().err


def test_classify_and_liealg_refuse_large_n(tmp_path, capsys, monkeypatch):
    # the bound is checked on the file before any structure is built
    import aqh.cli
    import aqh.liealg

    def refuse(*args):
        raise RuntimeError("a structure was built")

    for mod, name in ((aqh.cli, "standard_structure"),
                      (aqh.liealg, "standard_structure"),
                      (aqh.liealg, "structure_from_json")):
        monkeypatch.setattr(mod, name, refuse)
    files = {"tensor": {"n": 5, "coeffs": {"0,0,1,2,3": 1.0}},
             "algebra": {"n": 5, "brackets": []},
             "structure": {"n": 2, "brackets": [], "structure": {"n": 5}}}
    for cmd, kind in (("classify", "tensor"), ("classify", "algebra"),
                      ("liealg", "algebra"), ("liealg", "structure")):
        p = tmp_path / f"{kind}.json"
        p.write_text(json.dumps(files[kind]))
        assert main([cmd, "--input", str(p)]) == 2
        assert "n = 5 is above 4" in capsys.readouterr().err


def test_verify_sections_run(capsys):
    # full run is exercised in the acceptance suite; here check the plumbing
    assert main(["verify", "--n", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[FAIL]" not in out
    assert main(["verify", "--n", "2", "--seed", "3", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["failures"] == 0
    assert all(c["passed"] is True for c in rep["checks"])


def test_verify_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cmd", ["classify", "liealg"])
@pytest.mark.parametrize("tol", ["inf", "1e300", "nan", "0", "-1", "1"])
def test_classify_and_liealg_refuse_bad_tol(cmd, tol, capsys):
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "liealg", "class_KH.json")
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--input", fixture, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_residuals_do_not_depend_on_hash_seed():
    # the str hash seed orders frozensets; the suite must not sum in that
    # order, so that verify JSON can be compared byte for byte
    import aqh

    code = ("from aqh.verify import run_suite\n"
            "for r in run_suite(2, 0, sections=('three-forms', "
            "'classifier')):\n"
            "    print(r.check, repr(r.residual))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(aqh.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] and outs[0] == outs[1]


def test_run_suite_refuses_unknown_sections():
    # a misspelt section must not read as an empty, passing suite
    from aqh.verify import run_suite

    with pytest.raises(ValueError, match="exterio, torsion") as exc:
        run_suite(2, 0, sections=("torsion", "exterio", "three-forms"))
    assert "three-forms" not in str(exc.value)


@pytest.mark.parametrize("sections", [[1], [("exterior", None)],
                                      [["exterior"]], ["exterior", 2.5]])
def test_run_suite_names_bad_sections(sections):
    # an entry that is not a section name, of any type, is named in a
    # ValueError before any check runs
    from aqh.verify import run_suite

    bad = [x for x in sections if x != "exterior"]
    with pytest.raises(ValueError, match="unknown verify sections: ") as exc:
        run_suite(2, 0, sections=sections)
    assert str(exc.value).endswith(", ".join(map(str, bad)))


def test_import_leaves_verify_unloaded():
    # the identity suite is imported when it runs: by aqh.run_suite or by
    # `aqh verify`, not by importing the package or the CLI
    import aqh

    code = ("import sys, aqh, aqh.cli\n"
            "print('aqh.verify' in sys.modules)\n"
            "from aqh import run_suite\n"
            "print(run_suite.__module__, 'aqh.verify' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(aqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "aqh.verify", "True"]
    with pytest.raises(AttributeError, match="no attribute 'run_suites'"):
        aqh.run_suites


def test_parser_is_built_once(capsys):
    from aqh.cli import build_parser

    assert build_parser() is build_parser()
    outs = []
    for _ in range(2):
        assert main(["dims", "--n", "2", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_inject_classify_round_trip(tmp_path, capsys):
    out = tmp_path / "eh.json"
    assert main(["inject", "--component", "EH", "--n", "2", "--seed", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["classify", "--input", str(out), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["key"] == "EH"
    assert "l.c.q.K." in rep["aliases"]


def test_a_tensor_is_read_in_the_standard_frame_only(tmp_path, capsys):
    # the tensor reader ignored "structure" and "degree": a tensor under a
    # conjugated frame, a nonsense structure or a nonsense degree was
    # classified in the standard frame with exit 0
    from aqh import standard_structure

    p = tmp_path / "t.json"
    assert main(["inject", "--component", "KH", "--n", "2", "--out",
                 str(p)]) == 0
    base = json.loads(p.read_text())
    s = standard_structure(2)
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))[0]
    frame = {"n": 2, "I": (q @ s.I @ q.T).tolist(),
             "J": (q @ s.J @ q.T).tolist()}
    for extra, key in (({"structure": frame}, "'structure'"),
                       ({"structure": "nonsense"}, "'structure'"),
                       ({"degree": "x"}, "'degree'"),
                       ({"degree": 3}, "'degree'")):
        p.write_text(json.dumps({**base, **extra}))
        assert main(["classify", "--input", str(p)]) == 2
        assert f"key {key}" in capsys.readouterr().err
    p.write_text(json.dumps({**base, "structure": "standard", "degree": 4}))
    assert main(["classify", "--input", str(p), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["key"] == "KH"


def test_inject_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["inject", "--component", "KS3H", "--n", "2", "--seed", "4",
          "--out", str(a)])
    main(["inject", "--component", "KS3H", "--n", "2", "--seed", "4",
          "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_inject_zero_component_errors(tmp_path, capsys):
    rc = main(["inject", "--component", "L3EH", "--n", "2", "--seed", "0",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "identically zero" in capsys.readouterr().err


def test_inject_unknown_component(tmp_path, capsys):
    rc = main(["inject", "--component", "XYZ", "--n", "2", "--seed", "0",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_classify_missing_file(capsys):
    assert main(["classify", "--input", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("cmd", [
    ["classify", "--input"], ["liealg", "--input"],
    ["inject", "--component", "EH", "--n", "2", "--out"]])
def test_directory_paths_are_input_errors(tmp_path, capsys, cmd):
    # a directory where a file belongs is refused by name, not with a
    # traceback and the verification-failure code
    assert main(cmd + [str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_classify_json_has_json_types(tmp_path, capsys):
    # the reports serialise without a fallback: wedge criteria are JSON
    # booleans and table values numbers, for a tensor and an algebra
    out = tmp_path / "es3h.json"
    assert main(["inject", "--component", "ES3H", "--n", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "liealg", "class_KH_EH.json")
    capsys.readouterr()
    for path in (str(out), fixture):
        assert main(["classify", "--input", path, "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        flags = rep["wedge_criteria"]
        assert len(flags) == 3
        assert all(type(v) is bool for v in flags.values())
        tables = [rep[k] for k in ("table2", "table2_dOmega", "table3")
                  if rep.get(k)]
        assert tables
        for table in tables:
            assert type(table["value"]) is float
            assert all(type(r) is float for r in table.get("residuals", []))


def test_classify_malformed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "something": 1}))
    assert main(["classify", "--input", str(p)]) == 2


def test_liealg_fixture(capsys):
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "liealg", "class_KH_EH.json")
    assert main(["liealg", "--input", fixture, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["key"] == "KH+EH"
    assert "QKT" in rep["aliases"]


def test_liealg_tol_below_round_off_is_not_an_input_error(capsys):
    # the membership residual of nabla Omega (round-off, about 5e-16 here)
    # is held to the pipeline's 1e-8, not to --tol
    assert main(["liealg", "--input", FIXTURE, "--tol", "1e-17"]) == 0
    assert "input error" not in capsys.readouterr().err


def test_classify_tol_below_round_off_is_not_an_input_error(tmp_path,
                                                            capsys):
    # a tensor file's membership in W is held to max(--tol, 1e-12): the
    # round-off residual of an injected KH (about 6e-16) passes at a --tol
    # of 1e-17, and a tensor 1e-6 off W is refused at that and the default
    from aqh.exterior import MixedTorsion, mixed_from_json, mixed_to_json

    path = tmp_path / "kh.json"
    assert main(["inject", "--component", "KH", "--n", "2", "--seed", "0",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", "--input", str(path), "--tol", "1e-17",
                 "--format", "json"]) == 0
    assert "KH" in json.loads(capsys.readouterr().out)["key"].split("+")
    a = mixed_from_json(json.loads(path.read_text()))
    bump = np.random.default_rng(0).standard_normal(a.rows.shape)
    off = MixedTorsion(a.dim, a.rows + 1e-6 * a.norm() * bump
                       / np.linalg.norm(bump))
    path.write_text(json.dumps(mixed_to_json(off)))
    for tol in (["--tol", "1e-17"], []):
        assert main(["classify", "--input", str(path), *tol]) == 2
        assert "not in the torsion space" in capsys.readouterr().err


def test_nabla_Omega_off_W_exits_1(monkeypatch, capsys):
    from test_liealg import _pushed_off_W

    _pushed_off_W(monkeypatch)
    for cmd in ("liealg", "classify"):
        assert main([cmd, "--input", FIXTURE]) == 1
        assert "nabla Omega is not in the torsion space" in \
            capsys.readouterr().err


def test_classify_calls_share_one_structure(tmp_path, monkeypatch, capsys):
    # a tensor file and a Lie-algebra fixture at n = 2, classified in one
    # process, build one structure between them
    from aqh import QuatStructure, standard_structure

    assert main(["inject", "--component", "KH", "--n", "2", "--out",
                 str(tmp_path / "t.json")]) == 0
    standard_structure.cache_clear()
    built = []
    real = QuatStructure.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(QuatStructure, "__init__", counted)
    for path in (str(tmp_path / "t.json"), FIXTURE, str(tmp_path / "t.json")):
        assert main(["classify", "--input", path, "--format", "json"]) == 0
    assert len(built) == 1
    capsys.readouterr()


def test_liealg_abelian(tmp_path, capsys):
    p = tmp_path / "abelian.json"
    p.write_text(json.dumps({"n": 2, "brackets": []}))
    assert main(["liealg", "--input", str(p)]) == 0
    assert "QK" in capsys.readouterr().out


def test_classify_zero_tensor_without_coefficients(tmp_path, capsys):
    from aqh import MixedTorsion
    from aqh.exterior import mixed_to_json

    data = mixed_to_json(MixedTorsion.zero(8))
    assert data["coeffs"] == {}
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(data))
    assert main(["classify", "--input", str(p), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["key"] == "QK"


@pytest.mark.parametrize("name, data, where", [
    ("bracket-99", {"n": 2, "brackets": [[0, 1, 99, 1.0]]}, "brackets[0]"),
    ("bracket-negative", {"n": 2, "brackets": [[0, 1, -1, 1.0]]},
     "brackets[0]"),
    ("row-99", {"n": 2, "coeffs": {"99,0,1,2,3": 1.0}}, "'99,0,1,2,3'"),
    ("nan", {"n": 2, "coeffs": {"0,0,1,2,3": float("nan")}},
     "'0,0,1,2,3'"),
    # finite entries whose norm overflows, refused without an overflow
    # warning (warnings are errors in this suite)
    ("overflow", {"n": 2, "coeffs": {"0,0,1,2,3": 1e308, "1,0,1,2,3": 1e308}},
     "'coeffs'"),
    # bracket sums and norms that overflow, refused the same way
    ("bracket-overflow", {"n": 2, "brackets": [[0, 1, 2, 1e308]] * 2},
     "'brackets'"),
    ("bracket-huge", {"n": 2, "brackets": [[0, 1, 2, 1e200]]}, "'brackets'"),
])
def test_classify_rejects_invalid_json(tmp_path, capsys, name, data, where):
    # out-of-range and non-finite input is an input error (exit 2) whose
    # message names the offending key
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(data))
    assert main(["classify", "--input", str(p)]) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "outside [0, 8)" in err or "not a finite number" in err


def test_a_diagonal_bracket_is_refused(tmp_path, capsys):
    # [e_i, e_i] = 0: a nonzero entry [i, i, k, v] cancelled in the
    # antisymmetric table and the algebra read as abelian (QK, exit 0)
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 2, "brackets": [[0, 0, 7, 1.0]]}))
    for cmd in ("liealg", "classify"):
        assert main([cmd, "--input", str(p)]) == 2
        assert "brackets[0]: [e_0, e_0] must be 0" in capsys.readouterr().err
    p.write_text(json.dumps({"n": 2, "brackets": [[0, 1, 7, 1.0],
                                                  [2, 2, 5, -3.0]]}))
    assert main(["liealg", "--input", str(p)]) == 2
    assert "brackets[1]" in capsys.readouterr().err
    # a zero on the diagonal says nothing false and is accepted
    p.write_text(json.dumps({"n": 2, "brackets": [[3, 3, 2, 0.0]]}))
    assert main(["liealg", "--input", str(p), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["abelian"] is True


def _odd_value_doc(case):
    """A document that loads as a valid input when "0" reads as 0, "-1" as
    -1 and true as 1, and that the CLI accepts once it does: a member of W,
    an algebra or a structure, with one value in JSON as a string or a
    boolean; the key that names it."""
    from aqh import random_W_element, standard_structure
    from aqh.exterior import mixed_to_json

    s = standard_structure(2)
    if case in ("coeff-str", "coeff-bool"):
        doc = mixed_to_json(random_W_element(s, 3))
        key = next(k for k in ("0,0,1,2,3", "0,0,1,2,4")
                   if k not in doc["coeffs"])
        doc["coeffs"][key] = "0" if case == "coeff-str" else False
        return doc, repr(key)
    if case in ("bracket-str", "bracket-bool"):
        return {"n": 2, "brackets": [[0, 1, 7, 1.0], [
            0, 2, 7, "0" if case == "bracket-str" else False]]}, "brackets[1]"
    M = {"I": s.I.tolist(), "J": s.J.tolist()}
    if case == "structure-str":
        name, (i, j) = "I", np.argwhere(s.I)[0]
        M["I"][i][j] = str(int(s.I[i, j]))     # "-1"
    else:
        name, (i, j) = "J", np.argwhere(s.J > 0)[0]
        M["J"][i][j] = True
    return ({"n": 2, "brackets": [], "structure": dict(n=2, **M)},
            f"'structure.{name}'")


@pytest.mark.parametrize("case", ["coeff-str", "coeff-bool", "bracket-str",
                                  "bracket-bool", "structure-str",
                                  "structure-bool"])
def test_json_strings_and_booleans_are_not_numbers(tmp_path, capsys, case):
    # only JSON int and float are values: "0" and false are refused by name,
    # exit 2, in tensor coefficients, bracket values and structure matrices
    # alike (they loaded as numbers, and these documents then classified)
    data, key = _odd_value_doc(case)
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    cmd = "classify" if case.startswith("coeff") else "liealg"
    assert main([cmd, "--input", str(p)]) == 2
    assert key in capsys.readouterr().err


def test_two_keys_of_one_tensor_entry_are_refused(tmp_path, capsys):
    # "0,0,1,2,3" and "00,0,1,2,3" name one coefficient: a member of W with
    # one of its entries given twice, with the same value, is refused with
    # both keys named, on the one-pass parse and on the per-key one (" 0");
    # repeated bracket entries are summed
    from aqh import algebra_from_json, random_W_element, standard_structure
    from aqh.exterior import mixed_to_json

    doc = mixed_to_json(random_W_element(standard_structure(2), 3))
    key, value = next(iter(doc["coeffs"].items()))
    p = tmp_path / "in.json"
    for spelling in ("0" + key, " " + key):
        p.write_text(json.dumps(dict(doc, coeffs={**doc["coeffs"],
                                                  spelling: value})))
        assert main(["classify", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and repr(spelling) in err
        assert "name the same entry" in err
    g = algebra_from_json({"n": 2, "brackets": [[0, 1, 7, 1.0]] * 2})
    assert g.c[0, 1, 7] == 2.0 and g.c[1, 0, 7] == -2.0


@pytest.mark.parametrize("plain, odd", [
    ("0,0,2,1,3", " 0,0,2,1,3"), ("0,0,2,1,3", "+0,0,2,1,3"),
    ("0,0,1,2,99", "0,0,1,2,+99"), ("0,0,1,2,99", "0, 0,1,2,99"),
    ("00,0,1,2,3", "+0,0,1,2,3"), ("00,0,1,2,3", "-0,0,1,2, 3"),
])
def test_keys_with_blanks_or_signs_are_refused_as_plain_ones(
        tmp_path, capsys, plain, odd):
    # keys with a blank or a sign take the per-key parse, through int: a key
    # that is not increasing, one out of range and one naming the entry of
    # the plain key "0,0,1,2,3" are refused, exit 2, with the message of
    # their plain spellings
    p = tmp_path / "in.json"
    errs = []
    for key in (plain, odd):
        p.write_text(json.dumps({"n": 2, "coeffs": {"0,0,1,2,3": 1.0,
                                                    key: 1.0}}))
        assert main(["classify", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err
        errs.append(err.replace(repr(key), "KEY"))
    assert errs[0] == errs[1]


@pytest.mark.parametrize("cmd, text, key", [
    ("classify", '{"n": 2, "coeffs": {"0,0,1,2,3": 1.0, "0,0,1,2,3": 0.0}}',
     "'0,0,1,2,3'"),
    ("classify", '{"n": 2, "n": 3, "coeffs": {}}', "'n'"),
    ("liealg", '{"n": 2, "brackets": [[0, 1, 7, 1.0]], "brackets": []}',
     "'brackets'"),
    ("liealg", '{"n": 2, "brackets": [], "structure": {"n": 2, "n": 2}}',
     "'n'"),
])
def test_a_key_written_twice_is_refused(tmp_path, capsys, cmd, text, key):
    # json keeps the last value of a repeated key, so the first file would
    # classify as the zero tensor: the loader refuses it, naming the key
    p = tmp_path / "in.json"
    p.write_text(text)
    assert main([cmd, "--input", str(p)]) == 2
    assert f"key {key} is written twice" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, data, key", [
    ("classify", {"n": 2, "coeffs": [1]}, "'coeffs'"),
    ("classify", {"n": 2, "coeffs": None}, "'coeffs'"),
    ("classify", {"n": 2, "brackets": 5}, "'brackets'"),
    ("classify", {"n": 2, "brackets": [], "structure": 7}, "'structure'"),
    ("liealg", {"n": 2, "brackets": None}, "'brackets'"),
    ("classify", {"n": 2, "brackets": [], "structure": {"n": None}},
     "'structure.n'"),
    ("classify", {"n": 2, "brackets": [], "structure": {"n": 2.7}},
     "'structure.n'"),
    ("liealg", {"n": 2, "brackets": [], "structure": {"n": 2, "I": {},
                                                      "J": 1}},
     "'structure.I'"),
    # a structure of another n than the file's
    ("liealg", {"n": 2, "brackets": [], "structure": {"n": 3}},
     "'structure.n'"),
    # number arrays of the wrong shape
    ("liealg", {"n": 2, "brackets": [], "structure": {
        "n": 2, "I": [[0.0] * 8] * 8, "J": 1}}, "'structure.J'"),
    ("classify", {"n": 2, "brackets": [], "structure": {
        "n": 2, "I": [[1.0, 0.0]], "J": [[0.0] * 8] * 8}}, "'structure.I'"),
])
def test_wrongly_shaped_json_is_an_input_error(tmp_path, capsys, cmd, data,
                                               key):
    # a key holding the wrong JSON type is refused by the loader, by name,
    # before anything reads into it
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    assert main([cmd, "--input", str(p)]) == 2
    assert f"key {key}" in capsys.readouterr().err


def test_verification_failure_exits_1(monkeypatch, capsys):
    import aqh.cli
    from aqh import VerificationError

    def fail(*args, **kwargs):
        raise VerificationError("codifferential routes disagree")

    monkeypatch.setattr(aqh.cli, "classify_algebra", fail)
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "liealg", "class_KH_EH.json")
    assert main(["classify", "--input", fixture]) == 1
    assert "codifferential routes disagree" in capsys.readouterr().err


def test_verify_reports_an_aborted_section_as_a_failure(monkeypatch, capsys):
    # a section that raises has failed its checks: exit 1, naming the
    # section, not an input error; argument errors still exit 2.  The
    # operators section refuses rotated triples that are not quaternionic
    import aqh.verify
    from aqh import StructureError, VerificationError

    def fail(*args, **kwargs):
        raise StructureError("fundamental form changed under rotation")

    assert main(["verify", "--n", "2", "--seed", "-1"]) == 2
    assert "expected non-negative integer" in capsys.readouterr().err
    monkeypatch.setattr(aqh.verify, "quaternionic_K", fail)
    assert main(["verify", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert "verification failure" in err and "section operators" in err
    assert "fundamental form changed under rotation" in err
    with pytest.raises(VerificationError) as exc:
        aqh.verify.run_suite(2, 0, sections=("operators",))
    assert isinstance(exc.value.__cause__, StructureError)


def test_verify_accepts_n4_and_refuses_n5():
    # the n=4 suite is not run here: it takes about 14 s and 430 MB
    from aqh.cli import build_parser
    from aqh.verify import run_suite

    assert build_parser().parse_args(["verify", "--n", "4"]).n == 4
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "--n", "5"])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="n = 2, 3 or 4"):
        run_suite(5, 0)
