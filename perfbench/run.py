"""Benchmark of the ``aqh`` package.

    python3 perfbench/run.py --workload classify-n3 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  Workloads (see ``workloads.py``):

  classify-n3  classification_report on n=3 tensors of all 64 classes
  liealg-n3    classify_algebra on n=3 metric Lie algebras
  cli-n2       in-process ``aqh classify --format json`` at n=2
  verify-n3    run_suite(3, seed)

Every stage runs in its own interpreter: the inputs are generated from the
seed first, then set-up is timed five times in fresh interpreters (from
``import aqh`` to the first correct result, with every cache cold), then
one process runs the workload.  With ``--trace 0`` it measures the
end-to-end metrics untraced; with ``--trace 1`` it reports per-layer
metrics from a traced run and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it give the machine
facts, sample counts, error rate and output digest.  Each run's full
result is also written to ``.perfbench/`` in the checkout, and the spans of
a traced run to ``.perfbench/spans-<workload>-<seed>.npz``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("classify-n3", "liealg-n3", "cli-n2", "verify-n3")
PROCESSES = 5
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("suite_s", "s"), ("peak_rss_mb", "MB"))
# A run gives up (exit code 1) once this many seconds have passed, so that
# it ends within three minutes even if a stage hangs.
DEADLINE_S = 170


class StageError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: a second OpenBLAS thread spins on the other core and
    # doubles the process's CPU time, the clock items are timed on.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def stage(args, workdir, deadline) -> dict:
    out = os.path.join(workdir, f"{args[0]}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args[0],
           args[1], workdir, out] + [str(a) for a in args[2:]]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise StageError(f"stage {args[0]} failed with exit code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out) as fh:
        return json.load(fh)


def measure(workload, seconds, workdir, deadline) -> dict:
    """PROCESSES fresh interpreters, each timing its set-up and then, while
    measuring time is left, its share of the items.  Spreading the items
    over several processes averages out the few per cent by which one
    process runs faster than the next."""
    runs, wall, next_item, last_pass = [], 0.0, 0, 0.0
    for j in range(PROCESSES):
        left = seconds - wall
        share = seconds / PROCESSES if j == 0 or left > last_pass / 2 \
            else 0.0
        r = stage(["measure", workload, share, next_item], workdir, deadline)
        runs.append(r)
        wall += sum(r["wall"])
        next_item += r["attempted"]
        if r["passes"]:
            last_pass = sum(r["wall"]) / len(r["passes"])
    lat = [x for r in runs for x in r["latencies"]]
    passes = [x for r in runs for x in r["passes"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "suite_s": statistics.median(passes),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "digest": runs[0]["digest"],
        "facts": runs[0]["facts"],
        "samples": {"items": len(lat), "passes": len(passes),
                    "processes": PROCESSES,
                    "measuring_processes": sum(bool(r["passes"])
                                               for r in runs)},
        "setup_s_all": [r["setup_s"] for r in runs],
        "reference_s": [x for r in runs for x in r["reference"]],
        "unscaled": {
            "setup_s": statistics.median(r["raw"]["setup_s"] for r in runs),
            "latency_p50_ms": percentile(
                [x for r in runs for x in r["raw"]["latencies"]], 50) * 1e3,
            "wall_latency_p50_ms": percentile(
                [x for r in runs for x in r["wall"]], 50) * 1e3,
            "wall_items_s": wall},
    }


def percentile(values, q) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run(workload, seed, seconds, trace, deadline) -> tuple[dict, dict]:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        stage(["generate", workload, seed], workdir, deadline)
        if trace:
            spans = os.path.join(OUT, f"spans-{workload}-{seed}.npz")
            res = stage(["trace", workload, seconds, spans], workdir, deadline)
        else:
            res = measure(workload, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(res["metrics"].items())}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "error_rate": failed / attempted}
    for key in ("facts", "digest", "samples", "setup_s_all", "unscaled",
                "reference_s", "cache", "missing"):
        if key in res:
            summary[key] = res[key]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump({"summary": summary, "result": result}, fh, indent=1)
    return summary, result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aqh", "__init__.py")):
        print(f"no aqh source tree under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        summary, result = run(args.workload, args.seed, args.seconds,
                              args.trace, deadline)
    except (StageError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed {args.seed}: error_rate "
          f"{summary['error_rate']} ({result['failed']} of "
          f"{result['attempted']} items failed)")
    if not args.trace:
        print(f"# samples {json.dumps(summary['samples'])}")
        ref = summary["reference_s"]
        print(f"# reference kernel {min(ref) * 1e3:.2f}..{max(ref) * 1e3:.2f} "
              f"ms (nominal {REFERENCE_S * 1e3:g} ms); unscaled "
              f"{json.dumps(summary['unscaled'])}")
    print(f"# facts {json.dumps(summary['facts'])}")
    print(f"# digest {summary['digest']}")
    if args.trace:
        cache = summary["cache"]
        print(f"# cache: {cache['structures']} structures, largest "
              f"{cache['largest_structure_mb']:.2f} MB")
        for row in cache["keys"]:
            print(f"#   {row['key']:36s} builds {row['builds']:3d} "
                  f"{row['build_s']:8.4f} s {row['MB']:8.3f} MB "
                  f"shape {row['shape']}")
        if summary["missing"]:
            print(f"# not found, reported as 0: {summary['missing']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
