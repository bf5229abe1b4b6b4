"""Command line entry point.

Subcommands:
  verify    run the identity suite at a given n
  dims      dimension census of the six torsion components
  classify  classify a torsion tensor or a Lie-algebra description
  inject    write a pure-component torsion tensor to a file
  liealg    full pipeline report for a Lie-algebra description

Exit codes: 0 success, 1 identity/verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .classify import classification_report
from .exterior import load_json, mixed_from_json, mixed_to_json
from .liealg import (PIPELINE_CHECKS, PIPELINE_TOL, VerificationError,
                     algebra_from_json, classify_algebra)
from .projectors import COMPONENT_DIMS, ComponentLabel, components
from .structure import MAX_N, StructureError, standard_structure
from .torsion import check_tol, random_W_element, w_dim


def _check_n(n) -> None:
    """Refuse an n above MAX_N before any structure is built; an n that is
    not a number is left to the loaders, which name it."""
    try:
        too_big = int(n) > MAX_N
    except (TypeError, ValueError, OverflowError):
        return
    if too_big:
        raise StructureError(f"n = {n} is above {MAX_N}, the largest n whose "
                             "exterior tables fit in memory")


def _structure(n: int):
    _check_n(n)
    return standard_structure(n)


class InputError(Exception):
    pass


def tolerance(text: str) -> float:
    """A relative tolerance that passes torsion.check_tol."""
    tol = float(text)
    try:
        return check_tol(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(data, fmt: str, text_fn):
    if fmt == "json":
        print(json.dumps(data, indent=1))
    else:
        text_fn(data)


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.n, seed=args.seed)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({"n": args.n, "seed": args.seed,
                          "checks": [r.to_json() for r in results],
                          "failures": len(failures)}, indent=1))
    else:
        for r in results:
            print(r.line())
        print(f"\n{len(results) - len(failures)}/{len(results)} checks "
              f"passed at n={args.n} (seed {args.seed})")
    return 1 if failures else 0


def cmd_dims(args) -> int:
    s = _structure(args.n)
    from .verify import component_traces, dstar_on_W

    traces, _ = component_traces(s, dstar_on_W(s))
    rows = [{"component": X.value, "display": X.display, "trace": traces[X],
             "expected": COMPONENT_DIMS[X](args.n)} for X in ComponentLabel]
    total = sum(r["trace"] for r in rows)
    data = {"n": args.n, "components": rows, "total": total,
            "expected_total": w_dim(args.n)}

    def text(d):
        print(f"torsion-space dimension census, n={d['n']} "
              f"(dim W = {d['expected_total']})")
        for r in d["components"]:
            print(f"  {r['display']:12s} {r['trace']:8.3f}  "
                  f"(expected {r['expected']})")
        print(f"  {'total':12s} {d['total']:8.3f}")

    _emit(data, args.format, text)
    bad = any(abs(r["trace"] - r["expected"]) > 1e-6 for r in rows)
    return 1 if bad else 0


def _load_input(path: str):
    data = load_json(path)
    if not isinstance(data, dict) or not {"brackets", "coeffs"} & data.keys():
        raise InputError(f"{path}: neither a bracket table nor a tensor")
    _check_n(data.get("n"))
    if isinstance(data.get("structure"), dict):
        _check_n(data["structure"].get("n"))
    if "brackets" in data:
        return "algebra", algebra_from_json(data)
    return "tensor", data


def cmd_classify(args) -> int:
    kind, payload = _load_input(args.input)
    if kind == "algebra":
        report = classify_algebra(payload, tol=args.tol)
    else:
        a = mixed_from_json(payload)
        s = _structure(int(payload["n"]))
        report = classification_report(a, s, tol=args.tol)

    def text(rep):
        print(f"class: {rep['class']}   key: {rep['key']}")
        if rep.get("aliases"):
            print("aliases:", ", ".join(rep["aliases"]))
        print("component norms:")
        for k, v in rep["profile"]["norms"].items():
            print(f"  {k:8s} {v:.6e}")
        print(f"table residual ({rep['table2']['row']}): "
              f"{rep['table2']['value']:.2e}")
        for k, v in rep["wedge_criteria"].items():
            print(f"  wedge criterion {k}: {v}")

    _emit(report, args.format, text)
    return 0


def cmd_inject(args) -> int:
    try:
        X = ComponentLabel(args.component)
    except ValueError:
        raise InputError(
            f"unknown component {args.component!r}; choose from "
            + ", ".join(c.value for c in ComponentLabel))
    s = _structure(args.n)
    if COMPONENT_DIMS[X](args.n) == 0:
        raise InputError(f"component {X.value} is identically zero in "
                         f"dimension {s.dim}")
    a = components(random_W_element(s, args.seed), s, check=False)[X]
    data = mixed_to_json(a)
    data["component"] = X.value
    data["seed"] = args.seed
    with open(args.out, "w") as fh:
        json.dump(data, fh)
    print(f"wrote {X.value} tensor (n={args.n}, seed {args.seed}) "
          f"to {args.out}")
    return 0


def cmd_liealg(args) -> int:
    kind, payload = _load_input(args.input)
    if kind != "algebra":
        raise InputError("liealg expects a Lie-algebra JSON file")
    report = classify_algebra(payload, tol=args.tol)

    def text(rep):
        print(f"class: {rep['class']}   key: {rep['key']}")
        if rep.get("aliases"):
            print("aliases:", ", ".join(rep["aliases"]))
        print("abelian:", rep["abelian"])
        print("component norms:")
        for k, v in rep["profile"]["norms"].items():
            print(f"  {k:8s} {v:.6e}")
        print("pipeline checks (residuals):")
        for k, v in rep["checks"].items():
            print(f"  {k:32s} {v:.2e}")

    _emit(report, args.format, text)
    worst = max(report["checks"][k] for k in PIPELINE_CHECKS)
    return 0 if worst <= PIPELINE_TOL else 1


@lru_cache(maxsize=None)  # once per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aqh",
        description="Torsion calculus and classification of almost "
                    "quaternion-Hermitian structures on R^(4n)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--n", type=int, required=True, choices=range(2, MAX_N + 1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dims", help="dimension census of the components")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("classify", help="classify a tensor or algebra file")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("inject", help="write a pure-component tensor")
    p.add_argument("--component", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("liealg", help="full Lie-algebra pipeline report")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_liealg)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
