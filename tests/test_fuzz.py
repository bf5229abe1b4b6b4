"""Fuzz of the JSON loaders and the CLI on mutated valid n=2 inputs: each
mutation replaces one value of a valid document (or the document itself) by
a null, a bool, a string, a float, a huge number, a wrongly shaped value or
a structure of another n.  A loader returns or raises a ValueError; the CLI
exits with 0, 1 or 2 and never lets an exception through.  Mutations that
keep a document valid (a positive rescaling of its coefficients or brackets,
shuffled keys, extra top-level keys) must not change its class."""

import copy
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aqh import (ComponentLabel, MixedTorsion, components, random_W_element,
                 standard_structure)
from aqh.cli import main
from aqh.exterior import load_json, mixed_from_json, mixed_to_json
from aqh.liealg import algebra_from_json
from aqh.structure import structure_from_json
from reference import form_from_json

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "liealg",
                       "class_KH_EH.json")

JUNK = st.one_of(
    st.none(), st.booleans(), st.text("0129,.-enaI", max_size=4),
    st.sampled_from(["1", "2", "nan", "inf", "0,1,2", "standard"]),
    st.floats(), st.integers(-10, 10),
    st.sampled_from([1e308, -1e308, 1e200, 10 ** 400, 2 ** 63]),
    st.lists(st.integers(-2, 9), max_size=5),
    st.sampled_from([{}, [[]], [[0, 1, 2]], {"0,1,2": 1.0}]),
    st.sampled_from([{"n": 3}, {"n": 2}, {"n": None}, {"n": 2, "I": [[1]]},
                     {"n": 2, "I": [[0.0] * 8] * 8, "J": [[0.0] * 8] * 8}]),
)


def _paths(x, path=()):
    """The positions of a JSON document, as the keys leading to them: the
    last three children of each container."""
    yield path
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, v in list(items)[-3:]:
        yield from _paths(v, path + (k,))


def _mutate(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    at = out
    for k in path[:-1]:
        at = at[k]
    at[path[-1]] = value
    return out


def mutations(doc, root=False):
    """One value of doc replaced by junk; the whole of it when root."""
    paths = list(_paths(doc))[0 if root else 1:]
    return st.builds(_mutate, st.just(doc), st.sampled_from(paths), JUNK)


_s2 = standard_structure(2)
FORM = {"n": 2, "degree": 3, "coeffs": {"0,1,2": 1.0, "1,4,7": -0.5}}
TENSOR = mixed_to_json(random_W_element(_s2, 5))
STRUCTURE = {"n": 2, "I": _s2.I.tolist(), "J": _s2.J.tolist()}
ALGEBRA = {k: v for k, v in load_json(FIXTURE).items()
           if k in ("n", "brackets", "structure")}
STRUCTURED = dict(ALGEBRA, structure=STRUCTURE)

FAST = settings(max_examples=100, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


def _load(loader, data):
    try:
        loader(data)
    except ValueError:
        pass


@FAST
@given(st.one_of(mutations(FORM), mutations(TENSOR)))
def test_fuzz_form_loaders(data):
    _load(form_from_json, data)
    _load(mixed_from_json, data)


@FAST
@given(st.one_of(mutations(ALGEBRA), mutations(STRUCTURED)))
def test_fuzz_algebra_from_json(data):
    _load(algebra_from_json, data)


@FAST
@given(mutations(STRUCTURE))
def test_fuzz_structure_from_json(data):
    # at the document's own n, so the mutations reach I and J, and at n = 2
    own = data.get("n") if isinstance(data, dict) else None
    _load(lambda d: structure_from_json(d, own), data)
    _load(lambda d: structure_from_json(d, 2), data)


@settings(FAST, max_examples=60)
@given(st.one_of(mutations(TENSOR, root=True), mutations(ALGEBRA, root=True),
                 mutations(STRUCTURED)),
       st.sampled_from(["classify", "liealg"]))
def test_fuzz_cli(tmp_path, capsys, data, cmd):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    assert main([cmd, "--input", str(p), "--format", "json"]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def _class_doc(s, seed, labels):
    pool = components(random_W_element(s, seed), s, check=False)
    return mixed_to_json(sum((pool[ComponentLabel(x)] for x in labels),
                             MixedTorsion.zero(s.dim)))


# valid documents of several classes, n=3 among them
VALID = [TENSOR, ALGEBRA, STRUCTURED,
         _class_doc(_s2, 6, ("EH",)), _class_doc(_s2, 7, ("KH", "ES3H")),
         _class_doc(_s2, 8, ("KS3H",)),
         _class_doc(standard_structure(3), 9, ("L3EH", "KH", "L3ES3H"))]


def _classify(tmp_path, capsys, data) -> str:
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    assert main(["classify", "--input", str(p), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["key"]


@st.composite
def valid_mutations(draw, doc):
    """doc rescaled by a positive factor, its coefficients or brackets and
    its top-level keys shuffled, extra keys added."""
    doc, scale = dict(doc), draw(st.floats(1e-3, 1e3))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    if "coeffs" in doc:
        items = [(k, v * scale) for k, v in doc["coeffs"].items()]
        rnd.shuffle(items)
        doc["coeffs"] = dict(items)
    else:
        doc["brackets"] = [b[:3] + [b[3] * scale] for b in doc["brackets"]]
        rnd.shuffle(doc["brackets"])
    doc.update(draw(st.dictionaries(
        st.text("abxyz_", min_size=1, max_size=5).map(lambda k: "x_" + k),
        JUNK, max_size=2)))
    keys = list(doc)
    rnd.shuffle(keys)
    return {k: doc[k] for k in keys}


@pytest.mark.parametrize("doc", VALID)
def test_fuzz_valid_mutations_keep_the_class(tmp_path, capsys, doc):
    key = _classify(tmp_path, capsys, doc)

    @settings(FAST, max_examples=6)
    @given(valid_mutations(doc))
    def check(data):
        assert _classify(tmp_path, capsys, data) == key

    check()
