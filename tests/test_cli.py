"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os

import pytest

from aqh.cli import main


def test_dims(capsys):
    assert main(["dims", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "120" in out and "64" in out


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


def test_inject_classify_round_trip(tmp_path, capsys):
    out = tmp_path / "eh.json"
    assert main(["inject", "--component", "EH", "--n", "2", "--seed", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["classify", "--input", str(out), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["key"] == "EH"
    assert "l.c.q.K." in rep["aliases"]


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


@pytest.mark.parametrize("cmd, data, key", [
    ("classify", {"n": 2, "coeffs": [1]}, "'coeffs'"),
    ("classify", {"n": 2, "coeffs": None}, "'coeffs'"),
    ("classify", {"n": 2, "brackets": 5}, "'brackets'"),
    ("classify", {"n": 2, "brackets": [], "structure": 7}, "'structure'"),
    ("liealg", {"n": 2, "brackets": None}, "'brackets'"),
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
