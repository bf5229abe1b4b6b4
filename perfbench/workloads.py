"""The four benchmark workloads.

Each workload has three stages, run in separate processes so that timed
processes start with cold caches:

* ``generate(seed, workdir)`` writes the inputs (the only stage that uses the
  seed);
* ``load(workdir)`` imports ``aqh`` and reads the inputs, computing nothing;
* ``start()`` does the shared set-up work (for example the one structure that
  every item uses), ``first()`` produces and checks the first result.

Items are then ``run(i)`` in a fixed cycle over the inputs; ``pass_size``
consecutive items form one complete pass over the workload's input set
(every class once, every algebra kind once, or one identity suite).
``check(i, out)`` returns whether the output is right and the record that
goes into the output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

# Component order of the class keys printed by ``aqh``.
ORDER = ("L3EH", "KH", "EH", "L3ES3H", "KS3H", "ES3H")
ZERO_AT_N2 = ("L3EH", "L3ES3H")
# The CLI's pass rule for pipeline residuals (``aqh liealg`` exits 1 above it).
PIPELINE_CHECKS = ("product_rule", "alternation_vs_differential",
                   "gray_identity", "nijenhuis_trace",
                   "codifferential_pairwise")
PIPELINE_TOL = 1e-8


def class_key(names) -> str:
    names = set(names)
    return "+".join(x for x in ORDER if x in names) or "QK"


def norms_record(profile: dict) -> list:
    """Component norms relative to the total, rounded to 1e-12."""
    total = profile["total"]
    return [round(profile["norms"][x] / total, 12) if total else 0.0
            for x in sorted(profile["norms"])]


def pipeline_ok(report: dict) -> bool:
    return max(report["checks"][k] for k in PIPELINE_CHECKS) <= PIPELINE_TOL


def _mixture(rng, comps, names):
    """Sum of the chosen unit-norm components, weights spread over three
    decades with random signs."""
    rows = np.zeros_like(next(iter(comps.values())).rows)
    for x in names:
        c = comps[x]
        w = 10.0 ** rng.uniform(0, 3) * rng.choice((-1.0, 1.0))
        rows += w * c.rows / c.norm()
    return rows


def _subsets(names):
    return [tuple(x for k, x in enumerate(names) if m >> k & 1)
            for m in range(2 ** len(names))]


class Workload:
    name = ""
    pass_size = 1

    def __init__(self):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def start(self):
        pass

    def first(self) -> bool:
        out = self.run(0)
        return self.check(0, out)[0]


class ClassifyN3(Workload):
    """``classification_report`` on n=3 tensors sharing one structure."""

    name = "classify-n3"
    pass_size = 64
    passes = 4
    bases = 8

    def generate(self, seed, workdir):
        from aqh import components, random_W_element, standard_structure

        s = standard_structure(3)
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.bases):
            a = random_W_element(s, int(rng.integers(2 ** 31)))
            comps = components(a, s, check=False)
            pool.append({X.value: c for X, c in comps.items()})
        subsets = _subsets(ORDER)
        rows, keys = [], []
        for _ in range(self.passes):
            for m in rng.permutation(len(subsets)):
                comps = pool[int(rng.integers(self.bases))]
                rows.append(_mixture(rng, comps, subsets[m]))
                keys.append(class_key(subsets[m]))
        np.savez(os.path.join(workdir, "inputs.npz"), rows=np.stack(rows),
                 keys=np.asarray(keys))

    def load(self, workdir):
        import aqh

        self.aqh = aqh
        data = np.load(os.path.join(workdir, "inputs.npz"))
        self.rows, self.keys = data["rows"], [str(k) for k in data["keys"]]

    def start(self):
        aqh = self.aqh
        self.s = aqh.standard_structure(3)
        self.tensors = [aqh.MixedTorsion(self.s.dim, r) for r in self.rows]

    def run(self, i):
        i %= len(self.tensors)
        return self.aqh.classification_report(self.tensors[i], self.s)

    def check(self, i, out):
        i %= len(self.tensors)
        return out["key"] == self.keys[i], [out["key"],
                                            norms_record(out["profile"])]


class LiealgN3(Workload):
    """``classify_algebra`` on n=3 metric Lie algebras sharing one
    structure; one pass holds one algebra of each kind."""

    name = "liealg-n3"
    kinds = ("nilpotent-2", "nilpotent-4", "nilpotent-8",
             "almost-abelian-diag", "almost-abelian-full", "abelian",
             "identity")
    pass_size = len(kinds)
    passes = 4
    expected = {"abelian": "QK", "identity": "EH"}

    def generate(self, seed, workdir):
        from aqh import two_step_nilpotent

        dim = 12
        rng = np.random.default_rng(seed)
        brackets, kinds = [], []
        for _ in range(self.passes):
            for k in rng.permutation(len(self.kinds)):
                kind = self.kinds[k]
                c = np.zeros((dim,) * 3)
                if kind.startswith("nilpotent"):
                    centre = int(kind.split("-")[1])
                    c = two_step_nilpotent(3, int(rng.integers(2 ** 31)),
                                           center=centre).c
                elif kind != "abelian":
                    if kind == "identity":
                        ad = np.eye(dim - 1)
                    elif kind == "almost-abelian-diag":
                        ad = np.diag(rng.standard_normal(dim - 1))
                    else:
                        ad = rng.standard_normal((dim - 1, dim - 1))
                    # [e_0, e_j] = sum_k ad[k, j] e_k on the abelian ideal
                    c[0, 1:, 1:] = ad.T
                    c[1:, 0, 1:] = -ad.T
                brackets.append(c)
                kinds.append(kind)
        np.savez(os.path.join(workdir, "inputs.npz"),
                 brackets=np.stack(brackets), kinds=np.asarray(kinds))

    def load(self, workdir):
        import aqh

        self.aqh = aqh
        data = np.load(os.path.join(workdir, "inputs.npz"))
        self.brackets = data["brackets"]
        self.kinds_of = [str(k) for k in data["kinds"]]

    def start(self):
        aqh = self.aqh
        self.s = aqh.standard_structure(3)
        self.algebras = [aqh.MetricLieAlgebra(self.s, c)
                         for c in self.brackets]

    def run(self, i):
        i %= len(self.algebras)
        return self.aqh.classify_algebra(self.algebras[i])

    def check(self, i, out):
        kind = self.kinds_of[i % len(self.algebras)]
        ok = pipeline_ok(out) and out["key"] == self.expected.get(kind,
                                                                  out["key"])
        return ok, [kind, out["key"], norms_record(out["profile"])]


class CliN2(Workload):
    """In-process ``aqh classify --format json`` on files written before
    timing: tensors of all 16 n=2 classes, twice per pass, and the ten
    shipped Lie-algebra fixtures, so fixtures are 10 of every 42 items."""

    name = "cli-n2"
    copies = 2
    passes = 3
    classes = 16
    fixtures = 10
    pass_size = copies * classes + fixtures

    def generate(self, seed, workdir):
        from aqh import MixedTorsion, components, random_W_element, \
            standard_structure
        from aqh.exterior import mixed_to_json

        s = standard_structure(2)
        rng = np.random.default_rng(seed)
        names = tuple(x for x in ORDER if x not in ZERO_AT_N2)
        fixdir = os.path.join(self.root, "fixtures", "liealg")
        with open(os.path.join(fixdir, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        fixture_items = [(os.path.join(fixdir, v["file"]), k)
                         for k, v in sorted(manifest.items())]
        if len(fixture_items) != self.fixtures:
            raise SystemExit(f"expected {self.fixtures} fixtures, found "
                             f"{len(fixture_items)}")
        items = []
        for p in range(self.passes):
            batch = list(fixture_items)
            for c in range(self.copies):
                a = random_W_element(s, int(rng.integers(2 ** 31)))
                comps = {X.value: v for X, v in
                         components(a, s, check=False).items()}
                for k, sub in enumerate(_subsets(names)):
                    rows = _mixture(rng, comps, sub)
                    data = mixed_to_json(MixedTorsion(s.dim, rows))
                    if not data["coeffs"]:
                        # the zero tensor: the CLI reads the tensor shape
                        # from the first key, so give it one explicit zero
                        data["coeffs"] = {"0,0,1,2,3": 0.0}
                    path = os.path.join(workdir, f"t{p}-{c}-{k}.json")
                    with open(path, "w") as fh:
                        json.dump(data, fh)
                    batch.append((path, class_key(sub)))
            items += [batch[j] for j in rng.permutation(len(batch))]
        with open(os.path.join(workdir, "inputs.json"), "w") as fh:
            json.dump(items, fh)

    def load(self, workdir):
        import aqh.cli

        self.cli = aqh.cli
        with open(os.path.join(workdir, "inputs.json")) as fh:
            self.items = json.load(fh)

    def run(self, i):
        path = self.items[i % len(self.items)][0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["classify", "--input", path,
                                  "--format", "json"])
        return code, buf.getvalue()

    def check(self, i, out):
        path, key = self.items[i % len(self.items)]
        code, text = out
        if code != 0:
            return False, [os.path.basename(path), code]
        report = json.loads(text)
        ok = report["key"] == key
        if "checks" in report:
            ok = ok and pipeline_ok(report)
        return ok, [report["key"], norms_record(report["profile"])]


class VerifyN3(Workload):
    """One full ``run_suite(3, seed)`` per item."""

    name = "verify-n3"
    pass_size = 1

    def generate(self, seed, workdir):
        with open(os.path.join(workdir, "inputs.json"), "w") as fh:
            json.dump({"seed": int(seed)}, fh)

    def load(self, workdir):
        import aqh.verify

        self.verify = aqh.verify
        with open(os.path.join(workdir, "inputs.json")) as fh:
            self.seed = json.load(fh)["seed"]

    def first(self):
        """The first section of the suite is the first result."""
        rows = self.verify.run_suite(3, self.seed, sections=("exterior",))
        return bool(rows) and all(r.passed for r in rows)

    def run(self, i):
        return self.verify.run_suite(3, self.seed)

    def check(self, i, out):
        return (bool(out) and all(r.passed for r in out),
                [[r.check, bool(r.passed)] for r in out])


WORKLOADS = {w.name: w for w in (ClassifyN3, LiealgN3, CliN2, VerifyN3)}
