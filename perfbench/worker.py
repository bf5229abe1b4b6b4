"""Child process of the benchmark: one stage of one workload per process.

    python3 perfbench/worker.py <stage> <workload> <workdir> <out.json> [...]

Stages: ``generate <seed>``, ``measure <seconds> <first item>`` and
``trace <seconds> <spans.npz>``.  Each writes one JSON object to
``out.json``.  The importable source tree is ``src/`` next to this
directory; nothing is imported from anywhere else.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Items and set-up are timed in CPU seconds of this process.  The process
# runs one BLAS thread (see run.py), so on an idle machine this equals wall
# time; unlike wall time it leaves out the time a shared host takes the CPU
# away.
CLOCK = time.process_time
# CPU seconds of one reference_kernel() call at the nominal speed.  The
# speed of a shared host drifts by up to half within minutes, for fixed
# work; so the kernel is timed before and after every pass, and times are
# reported scaled to this nominal speed (see scale_to_reference).
REFERENCE_S = 0.006
_KERNEL_INPUT = []


def _import_path():
    """Put ``src/`` first on the path and make sure ``aqh`` resolves there,
    without importing it."""
    import importlib.util

    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("aqh")
    if spec is None or not os.path.realpath(spec.origin).startswith(
            os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"aqh is not importable from {SRC}")


def machine_facts() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def reference_kernel():
    """Fixed work with the mix aqh spends its time on: interpreted loops,
    numpy scalar reads indexed by tuples, tuple-keyed dicts, ``np.nonzero``
    on short rows, array allocation and small BLAS products."""
    import numpy as np

    if not _KERNEL_INPUT:
        rng = np.random.default_rng(0)
        row = rng.standard_normal(12)
        row[::3] = 0.0
        _KERNEL_INPUT.extend([rng.standard_normal((120, 120)), row,
                              rng.standard_normal(100)])
    A, row, vec = _KERNEL_INPUT
    acc = 0.0
    for i in range(15000):
        acc += i * 0.5
    for i in range(2000):
        t = (i % 7, i % 11)
        acc += vec[t[0] * 10 + t[1]] * (-1.0) ** (i % 2)
    table = {}
    for i in range(2500):
        table[(i, i + 1)] = i
    for _ in range(1000):
        np.nonzero(row)
    for _ in range(75):
        np.zeros((300, 300))
    for _ in range(15):
        A @ A
    return acc


def host_speed(window=0.2) -> float:
    """Mean CPU seconds of reference_kernel() over calls repeated for
    ``window`` seconds: the host's speed changes within seconds, so a single
    call would catch one moment instead of the state around a pass."""
    if not _KERNEL_INPUT:
        reference_kernel()          # untimed: builds the inputs, warms up
    times = []
    while sum(times) < window:
        t0 = CLOCK()
        reference_kernel()
        times.append(CLOCK() - t0)
    return sum(times) / len(times)


def scale_to_reference(res, pass_size):
    """Scale each pass's item times by REFERENCE_S over the mean kernel time
    measured just before and just after that pass."""
    ref = res["reference"]
    for p in range(len(res["passes"])):
        f = REFERENCE_S / ((ref[p] + ref[p + 1]) / 2)
        res["passes"][p] *= f
        items = slice(p * pass_size, (p + 1) * pass_size)
        res["latencies"][items] = [x * f for x in res["latencies"][items]]


def digest(records) -> str:
    import hashlib

    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_items(wl, seconds=None, count=None, wrap=None, first=0,
              calibrate=False):
    """Closed loop with one caller, from item ``first`` on.  Runs whole
    passes, at least one, until the pass boundary nearest to ``seconds`` of
    wall time, or exactly ``count`` items.  Only ``wl.run`` is timed,
    on ``CLOCK``; checking happens between items.  The digest covers the
    first pass run.  With ``calibrate``, the host speed is taken before the
    first pass and after each pass."""
    lat, wall, passes, failed, records = [], [], [], 0, []
    reference = [host_speed()] if calibrate else []
    begin = time.perf_counter()
    pass_s = 0.0
    n = 0
    while True:
        i = first + n
        w0, t0 = time.perf_counter(), CLOCK()
        try:
            out = wrap(wl.run, i) if wrap else wl.run(i)
            err = None
        except Exception as exc:       # a raised exception is a failed item
            err = exc
        dt = CLOCK() - t0
        wall.append(time.perf_counter() - w0)
        if err is None:
            try:
                ok, rec = wl.check(i, out)
            except Exception as exc:   # malformed output is a failed item
                ok, rec = False, [f"check raised {type(exc).__name__}"]
        else:
            ok, rec = False, [f"raised {type(err).__name__}: {err}"]
        failed += not ok
        lat.append(dt)
        pass_s += dt
        if n < wl.pass_size:
            records.append(rec)
        n += 1
        if count is not None:
            if n >= count:
                break
            continue
        if n % wl.pass_size == 0:
            passes.append(pass_s)
            pass_s = 0.0
            if calibrate:
                reference.append(host_speed())
            # stop at the pass boundary nearest to the budget
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) / 2 > seconds:
                break
    return {"latencies": lat, "wall": wall, "passes": passes, "attempted": n,
            "failed": failed, "digest": digest(records),
            "reference": reference}


def stage_generate(wl, workdir, seed):
    wl.generate(int(seed), workdir)
    return {"ok": True}


def stage_measure(wl, workdir, seconds, first, t0):
    """Set-up, then items.  ``setup_s`` is the CPU time from the first
    import of numpy and aqh (``t0``, taken before any import) to the first
    correct result in this fresh interpreter.  Then, if ``seconds`` > 0,
    whole passes from item ``first`` on for about ``seconds``.  Times are
    returned scaled to the reference speed, and raw under ``raw``."""
    import resource

    wl.load(workdir)
    wl.start()
    first_ok = wl.first()
    setup_s = CLOCK() - t0
    res = {"latencies": [], "wall": [], "passes": [], "attempted": 0,
           "failed": 0, "digest": None, "reference": [host_speed()]}
    if float(seconds) > 0:
        res = run_items(wl, seconds=float(seconds), first=int(first),
                        calibrate=True)
    res["raw"] = {"setup_s": setup_s, "latencies": list(res["latencies"])}
    scale_to_reference(res, wl.pass_size)
    res["attempted"] += 1
    res["failed"] += not first_ok
    res.update({
        "setup_s": setup_s * REFERENCE_S / res["reference"][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": machine_facts(),
    })
    return res


def stage_trace(wl, workdir, seconds, spans_path):
    """Traced cold set-up step, then pairs of passes over the same items,
    one untraced and one traced, until ``seconds`` have passed.  Pairing
    whole passes cancels the drift of a shared machine out of the tracing
    overhead."""
    import tracing

    wl.load(workdir)
    tracer = tracing.Tracer()
    missing = tracer.install()
    lo = tracer.mark()
    first_ok = tracer.item(lambda: (wl.start(), wl.first())[1])
    hi = tracer.mark()
    tracer.uninstall()
    setup = tracing.layer_metrics(tracer, lo, hi, 1)

    begin = time.perf_counter()
    lo = tracer.mark()
    plain, traced, attempted, failed, same = [], [], 0, 0, True
    while not plain or time.perf_counter() - begin < float(seconds):
        start = len(plain)
        a = run_items(wl, count=wl.pass_size, first=start)
        tracer.install()
        b = run_items(wl, count=wl.pass_size, first=start, wrap=tracer.item)
        tracer.uninstall()
        plain += a["latencies"]
        traced += b["latencies"]
        attempted += a["attempted"] + b["attempted"]
        failed += a["failed"] + b["failed"]
        same = same and a["digest"] == b["digest"]
        if start == 0:
            first_digest = a["digest"]
    hi = tracer.mark()
    k = len(traced)
    metrics = tracing.layer_metrics(tracer, lo, hi, k)

    for name in tracing.SETUP_METRICS:
        metrics["setup." + name] = setup[name]
    for name in tracing.FAILURES:
        metrics["failures." + name] = float(tracer.failures.get(name, 0))
    inventory = tracing.cache_inventory(tracer)
    metrics["structure.cache_mb"] = inventory["largest_structure_mb"]
    metrics["trace.items"] = float(k)
    overhead = (sum(traced) - sum(plain)) / k
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead * k / sum(plain)
    tracer.save(spans_path)
    return {
        "metrics": metrics,
        "attempted": attempted + 1,
        # tracing must not change any output
        "failed": failed + (not first_ok) + (not same),
        "digest": first_digest,
        "missing": missing,
        "cache": inventory,
        "facts": machine_facts(),
    }


def main(argv):
    stage, name, workdir, out_path, *rest = argv
    _import_path()
    t0 = CLOCK()
    import workloads

    wl = workloads.WORKLOADS[name]()
    if stage == "measure":
        rest.append(t0)
    fn = {"generate": stage_generate, "measure": stage_measure,
          "trace": stage_trace}[stage]
    result = fn(wl, workdir, *rest)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
