"""Every public function and method of the package is reached from what a
user runs: the CLI (``cli.main``), the identity suite (``verify.run_suite``
and its sections) and the names the benchmark workloads import.  A helper
that only the tests call is dead code.

The walk reads the source with ``ast``; it imports nothing.  A name is
resolved through the module's own definitions and its imports (``import
... as`` aliases included); an attribute ``x.m`` reaches every method named
m of a reached class, and ``M.f`` on a module alias M reaches M's f.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "aqh"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Module:
    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs = {}      # top-level name -> its node
        self.methods = {}   # class name -> {method name: node}
        # local name -> ("module", mod) or ("name", mod, name)
        self.aliases = {}
        self.entry = []     # module-level statements that run on import
        for node in tree.body:
            if isinstance(node, FUNCS):
                self.defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.defs[node.name] = node
                self.methods[node.name] = {
                    m.name: m for m in node.body if isinstance(m, FUNCS)}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            self.defs[n.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                self.entry.append(node)
        for node in ast.walk(tree):  # lazy imports inside functions too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    local = a.asname or a.name
                    if node.module is None:
                        self.aliases[local] = ("module", a.name)
                    else:
                        self.aliases[local] = ("name", node.module, a.name)


def _load_package() -> dict:
    return {p.stem: _Module(p.stem, ast.parse(p.read_text()))
            for p in sorted(PKG.glob("*.py"))}


def _local_names(fn) -> set:
    """Names bound inside a function: its arguments, assignment and loop
    targets, comprehension variables and nested definitions."""
    out = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.arg):
            out.add(n.arg)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, (*FUNCS, ast.ClassDef)) and n is not fn:
            out.add(n.name)
    return out


def _resolve(mods: dict, mod: str, name: str):
    """("def", mod, name), ("module", mod) or None for an external name."""
    seen = set()
    while (mod, name) not in seen:
        seen.add((mod, name))
        m = mods[mod]
        if name in m.defs:
            return ("def", mod, name)
        alias = m.aliases.get(name)
        if alias is None:
            return None
        if alias[0] == "module":
            return alias if alias[1] in mods else None
        if alias[1] not in mods:
            return None
        mod, name = alias[1], alias[2]
    return None


def reachability(roots) -> tuple[set, set]:
    """(reached, public): the (module, qualname) pairs of the functions and
    methods reached from roots, and of every public one."""
    mods = _load_package()
    reached, attrs, todo = set(), set(), list(roots)

    def visit(mod: str, node):
        local = _local_names(node) if isinstance(node, FUNCS) else set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                if n.id not in local:
                    todo.append((mod, n.id))
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
                v = n.value
                if isinstance(v, ast.Name) and v.id not in local:
                    r = _resolve(mods, mod, v.id)
                    if r and r[0] == "module":
                        todo.append((r[1], n.attr))

    for m in mods.values():
        for node in m.entry:
            visit(m.name, node)
    while todo:
        while todo:
            r = _resolve(mods, *todo.pop())
            if r is None or r[0] != "def" or r[1:] in reached:
                continue
            _, mod, name = r
            reached.add((mod, name))
            node = mods[mod].defs[name]
            if not isinstance(node, ast.ClassDef):
                visit(mod, node)
                continue
            # the class body outside its methods: bases, decorators and
            # fields; the methods are reached by attribute name below
            for part in node.bases + node.decorator_list + [
                    b for b in node.body if not isinstance(b, FUNCS)]:
                visit(mod, part)
        for m in mods.values():
            for cls, methods in m.methods.items():
                if (m.name, cls) not in reached:
                    continue
                for meth, fn in methods.items():
                    key = (m.name, f"{cls}.{meth}")
                    dunder = meth.startswith("__") and meth.endswith("__")
                    if key not in reached and (dunder or meth in attrs):
                        reached.add(key)
                        visit(m.name, fn)

    public = set()
    for m in mods.values():
        public |= {(m.name, name) for name, node in m.defs.items()
                   if isinstance(node, FUNCS) and not name.startswith("_")}
        for cls, methods in m.methods.items():
            public |= {(m.name, f"{cls}.{meth}") for meth in methods
                       if not meth.startswith("_")}
    return reached, public


def workload_roots() -> list:
    """(module, name) of what the benchmark workloads take from the
    package: ``from aqh[.mod] import name``, ``aqh.name`` and
    ``self.aqh.name``."""
    roots = []
    for n in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(n, ast.ImportFrom) and n.module and (
                n.module == "aqh" or n.module.startswith("aqh.")):
            mod = n.module.partition(".")[2] or "__init__"
            roots += [(mod, a.name) for a in n.names]
        elif isinstance(n, ast.Attribute) and "aqh" in (
                getattr(n.value, "id", None), getattr(n.value, "attr", None)):
            roots.append(("__init__", n.attr))  # aqh.f and self.aqh.f
    return roots


ROOTS = [("cli", "main"), ("verify", "run_suite")]


def test_every_public_function_is_reached():
    roots = workload_roots()
    assert {("__init__", "classification_report"),
            ("__init__", "classify_algebra"),
            ("exterior", "mixed_to_json")} <= set(roots)
    reached, public = reachability(ROOTS + roots)
    assert ("verify", "check_lie") in reached
    dead = sorted(f"{m}.{name}" for m, name in public - reached)
    assert not dead, "reached only from the tests: " + ", ".join(dead)
