"""In-memory span tracer that wraps the public functions of the ``aqh``
modules from outside the package.

Each wrapped call records a span (name, parent, start, end).  Spans stay in
memory as flat arrays and are written out once, at the end of a run.  The
wrappers are installed by rebinding every ``aqh`` module attribute that holds
the original function (the modules import each other's functions by name, so
patching only the defining module would miss most calls) and by patching
``QuatStructure`` and ``FormTables`` methods at class level.  ``uninstall``
puts every original back, so untraced phases run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# spans are timed on the same clock as the benchmark's items
CLOCK = time.process_time

# (defining module, attribute, span name).  Span names are the layer metric
# prefixes; the loaders and the emitter are counted under ``cli``, the layer
# that calls them.
FUNCTIONS = (
    ("exterior", "wedge", "exterior.wedge"),
    ("exterior", "wedge_power", "exterior.wedge_power"),
    ("exterior", "wedge1", "exterior.wedge1"),
    ("exterior", "hodge", "exterior.hodge"),
    ("exterior", "wedge22_rows", "exterior.wedge22_rows"),
    ("exterior", "contract12", "exterior.contract12"),
    ("exterior", "alternate5", "exterior.alternate5"),
    ("torsion", "is_in_W", "torsion.is_in_W"),
    ("torsion", "F_map", "torsion.F_map"),
    ("torsion", "fiber_basis_matrix", "torsion.fiber_basis_matrix"),
    ("threeform", "xi_triple", "threeform.xi_triple"),
    ("projectors", "components", "projectors.components"),
    ("projectors", "profile", "projectors.profile"),
    ("classify", "classify", "classify.classify"),
    ("classify", "ctx_from_torsion", "classify.ctx_from_torsion"),
    ("classify", "ctx_from_derived", "classify.ctx_from_derived"),
    ("classify", "table2_residual", "classify.table2_residual"),
    ("classify", "table2_residual_dOmega", "classify.table2_residual_dOmega"),
    ("classify", "table3_residual", "classify.table3_residual"),
    ("classify", "wedge_criteria", "classify.wedge_criteria"),
    ("classify", "classification_report", "classify.classification_report"),
    ("liealg", "koszul", "liealg.koszul"),
    ("liealg", "nabla_dense", "liealg.nabla_dense"),
    ("liealg", "nabla_form", "liealg.nabla_form"),
    ("liealg", "nabla_omega", "liealg.nabla_omega"),
    ("liealg", "nabla_Omega", "liealg.nabla_Omega"),
    ("liealg", "ce_d", "liealg.ce_d"),
    ("liealg", "nijenhuis", "liealg.nijenhuis"),
    ("liealg", "gray_residual", "liealg.gray_residual"),
    ("liealg", "codiff_Omega", "liealg.codiff_Omega"),
    ("liealg", "classify_algebra", "liealg.classify_algebra"),
    ("verify", "component_matrices_on_W", "verify.component_matrices_on_W"),
    ("exterior", "load_json", "cli.load_json"),
    ("exterior", "mixed_from_json", "cli.mixed_from_json"),
    ("liealg", "algebra_from_json", "cli.algebra_from_json"),
    ("cli", "_emit", "cli._emit"),
)

# (defining module, class, method, span name); patched on the class.
METHODS = (
    ("structure", "QuatStructure", "__init__", "structure.QuatStructure.__init__"),
    ("structure", "QuatStructure", "lcal_raw", "structure.QuatStructure.lcal_raw"),
    ("classify", "DerivedFromDOmega", "from_dOmega",
     "classify.DerivedFromDOmega.from_dOmega"),
)

# cache keys whose builds count as threeform matrix builds
THREEFORM_KEYS = ("se_matrix", "r_matrix", "hat_matrix", "proj3", "dstar_matrix")
FAILURES = ("MembershipError", "AlgebraError", "StructureError")
# layer metrics also reported for the cold set-up step, as ``setup.<name>``
SETUP_METRICS = ("exterior.table_builds", "exterior.table_build_s",
                 "structure.QuatStructure.__init__.self_s",
                 "structure.cache_builds", "structure.cache_build_s",
                 "threeform.matrix_build_s")

CACHE_BUILD = "structure.cache_build"
TABLE_PREFIX = "exterior.FormTables."
SECTION_PREFIX = "verify.section."
ITEM = "item"


def key_family(key) -> str:
    """``("deriv", "I", 4)`` -> ``"deriv"``; plain string keys are their own
    family."""
    return str(key[0] if isinstance(key, tuple) else key)


def nbytes(value) -> int:
    """Bytes held by the arrays inside a cached value."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(nbytes(v) for v in value)
    return 0


def _table_state(obj) -> int:
    """Number of entries in a lazily filled table object; it grows exactly
    when a call builds something."""
    n = 0
    for v in vars(obj).values():
        if isinstance(v, dict):
            n += len(v)
        elif v is not None and not isinstance(v, (int, float, str)):
            n += 1
    return n


def exclusive_times(parent, start, end, mask=None) -> np.ndarray:
    """Duration of each span minus the durations of its nearest descendants
    among ``mask`` (all spans when ``mask`` is None: plain self time).

    Spans are in creation order, so a parent always precedes its children and
    one forward sweep finds every span's nearest masked ancestor.  Spans of
    one thread nest, so subtracting the nearest masked descendants removes
    exactly the part of the interval they cover."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    n = len(dur)
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, bool)
    nearest = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            nearest[i] = p if mask[p] else nearest[p]
    out = dur.copy()
    sel = mask & (nearest >= 0)
    np.subtract.at(out, nearest[sel], dur[sel])
    return out


class Tracer:
    """Spans as flat arrays plus cache and failure counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # (span index, structure serial, key repr, key family, bytes, shape)
        self.cache_builds: list[tuple] = []
        # id of each live QuatStructure -> serial number of its construction
        self.structures: dict[int, int] = {}
        self.structures_built = 0
        self.cache_hits: list[int] = []      # span index of the caller
        self.failures: dict[str, int] = {}
        self._seen_exc: set[int] = set()
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = CLOCK()
        self._stack.pop()

    def discard_from(self, idx: int) -> None:
        """Drop span ``idx`` and everything recorded after it."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[idx:]

    def mark(self) -> int:
        return len(self.start)

    def record_failure(self, exc: BaseException) -> None:
        if id(exc) in self._seen_exc:
            return
        self._seen_exc.add(id(exc))
        name = type(exc).__name__
        self.failures[name] = self.failures.get(name, 0) + 1

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.record_failure(exc)
                raise
            finally:
                tracer.close(idx)

        return traced

    def item(self, fn, *args):
        """Run one benchmark item under a root span."""
        return self.wrap(ITEM, fn)(*args)

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped):
        """Point every aqh module attribute holding ``original`` at
        ``wrapped``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "aqh" or modname.startswith("aqh.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> list[str]:
        """Wrap everything; return the names that could not be found."""
        missing = []
        mods = {m: importlib.import_module(f"aqh.{m}") for m in
                ("exterior", "structure", "torsion", "threeform",
                 "projectors", "classify", "liealg", "verify", "cli")}
        for modname, attr, name in FUNCTIONS:
            original = getattr(mods[modname], attr, None)
            if original is None:
                missing.append(name)
                continue
            self._rebind(original, self.wrap(name, original))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(mods[modname], clsname, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                missing.append(name)
            elif isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            elif meth == "__init__":
                self._set(cls, meth, self._numbering(self.wrap(name, raw)))
            else:
                self._set(cls, meth, self.wrap(name, raw))
        self._install_cache(mods["structure"], missing)
        self._install_tables(mods["exterior"], missing)
        self._install_sections(mods["verify"], missing)
        return missing

    def _numbering(self, init):
        """Give every structure a serial number: ids of dead objects are
        reused, so ids alone would merge the caches of two structures."""
        tracer = self

        @functools.wraps(init)
        def numbered(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.structures_built += 1
            tracer.structures[id(obj)] = tracer.structures_built

        return numbered

    def _install_cache(self, structure, missing):
        cls = getattr(structure, "QuatStructure", None)
        original = None if cls is None else cls.__dict__.get("cache")
        if original is None:
            missing.append("structure.QuatStructure.cache")
            return
        tracer = self
        nid = self.intern(CACHE_BUILD)

        @functools.wraps(original)
        def cache(s, key, builder):
            built = []

            def timed_builder():
                idx = tracer.open(nid)
                try:
                    value = builder()
                finally:
                    tracer.close(idx)
                built.append((idx, value))
                return value

            out = original(s, key, timed_builder)
            caller = tracer._stack[-1] if tracer._stack else -1
            if built:
                idx, value = built[0]
                shape = getattr(value, "shape", None)
                tracer.cache_builds.append(
                    (idx, tracer.structures.get(id(s), 0), repr(key),
                     key_family(key), nbytes(value),
                     list(shape) if shape is not None else None))
            else:
                tracer.cache_hits.append(caller)
            return out

        self._set(cls, "cache", cache)

    def _install_tables(self, exterior, missing):
        cls = getattr(exterior, "FormTables", None)
        if cls is None:
            missing.append("exterior.FormTables")
            return
        for meth, raw in list(vars(cls).items()):
            if meth.startswith("_") or not callable(raw):
                continue
            self._set(cls, meth, self._table_wrapper(TABLE_PREFIX + meth, raw))

    def _table_wrapper(self, name, original):
        """Record a span only for calls that fill the table cache; a call
        that finds its table already built leaves no span."""
        nid = self.intern(name)
        tracer = self

        @functools.wraps(original)
        def traced(tab, *args):
            before = _table_state(tab)
            idx = tracer.open(nid)
            try:
                return original(tab, *args)
            finally:
                tracer.close(idx)
                if _table_state(tab) == before:
                    tracer.discard_from(idx)

        return traced

    def _install_sections(self, verify, missing):
        sections = getattr(verify, "SECTIONS", None)
        if sections is None:
            missing.append("verify.SECTIONS")
            return
        wrapped = tuple((name, self.wrap(SECTION_PREFIX + name, fn))
                        for name, fn in sections)
        self._set(verify, "SECTIONS", wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.start, dtype=float).copy(),
                np.frombuffer(self.end, dtype=float).copy())

    def span_names(self, name_id) -> np.ndarray:
        return np.asarray(self.names, dtype=str)[name_id].astype(str)

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, names=np.asarray(self.names, dtype=str),
                 name_id=name_id, parent=parent, start=start - t0,
                 end=end - t0)


def layer_metrics(tracer: Tracer, lo: int, hi: int, items: int) -> dict:
    """Per-item layer metrics over the spans with index in [lo, hi).

    The window must hold whole trees (it starts and ends between root
    spans), so every parent of a span in it is in it too."""
    name_id, parent, start, end = tracer.arrays()
    name_id, start, end = name_id[lo:hi], start[lo:hi], end[lo:hi]
    parent = np.where(parent[lo:hi] >= 0, parent[lo:hi] - lo, -1)
    names = tracer.span_names(name_id)
    self_s = exclusive_times(parent, start, end)
    dur = end - start
    per = 1.0 / max(items, 1)
    out = {}
    for _, _, name in FUNCTIONS:
        sel = names == name
        out[f"{name}.calls"] = float(sel.sum()) * per
        out[f"{name}.self_s"] = float(self_s[sel].sum()) * per
    for _, _, _, name in METHODS:
        sel = names == name
        out[f"{name}.calls"] = float(sel.sum()) * per
        out[f"{name}.self_s"] = float(self_s[sel].sum()) * per

    tables = np.char.startswith(names, TABLE_PREFIX)
    out["exterior.table_builds"] = float(tables.sum()) * per
    out["exterior.table_build_s"] = float(
        exclusive_times(parent, start, end, tables)[tables].sum()) * per

    builds = [b for b in tracer.cache_builds if lo <= b[0] < hi]
    hits = [h for h in tracer.cache_hits if lo <= h < hi]
    is_build = names == CACHE_BUILD
    build_excl = exclusive_times(parent, start, end, is_build)
    build_s = {b[0]: float(build_excl[b[0] - lo]) for b in builds}
    out["structure.cache_builds"] = len(builds) * per
    out["structure.cache_build_s"] = sum(build_s.values()) * per
    total = len(builds) + len(hits)
    out["structure.cache_hit_ratio"] = len(hits) / total if total else 0.0
    out["threeform.matrix_build_s"] = sum(
        build_s[b[0]] for b in builds if b[3] in THREEFORM_KEYS) * per

    for section in ("exterior", "operators", "torsion-space", "three-forms",
                    "components", "classifier", "lie-pipeline"):
        sel = names == SECTION_PREFIX + section
        out[f"verify.{section}_s"] = float(dur[sel].sum()) * per
    out["trace.spans_per_item"] = float(len(names) - items) * per
    return out


def cache_inventory(tracer: Tracer) -> dict:
    """Per-key cache builds over the whole traced run, and the largest cache
    held by any one structure."""
    name_id, parent, start, end = tracer.arrays()
    is_build = tracer.span_names(name_id) == CACHE_BUILD
    excl = exclusive_times(parent, start, end, is_build)
    by_key: dict[str, dict] = {}
    per_structure: dict[int, int] = {}
    for idx, sid, key, family, size, shape in tracer.cache_builds:
        row = by_key.setdefault(key, {"key": key, "builds": 0, "build_s": 0.0,
                                      "MB": size / 2 ** 20, "shape": shape})
        row["builds"] += 1
        row["build_s"] += float(excl[idx])
        per_structure[sid] = per_structure.get(sid, 0) + size
    rows = sorted(by_key.values(), key=lambda r: -r["build_s"])
    largest = max(per_structure.values(), default=0) / 2 ** 20
    return {"keys": rows, "structures": len(per_structure),
            "largest_structure_mb": largest}
