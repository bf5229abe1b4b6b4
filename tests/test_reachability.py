"""Every public function and method of the package is reached from what a
user runs: the CLI (``cli.main``), the identity suite (``verify.run_suite``
and its sections) and the names the benchmark workloads import.  A helper
that only the tests call is dead code, and so is an option, a defaulted
parameter, that no call in the package or the workloads passes; an option
that every such call passes serves one value, and its default is dead.

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
        self.tree = tree
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


def _public_functions(m: _Module):
    """(qualname, node, is a method) of the public functions and methods of
    a module: those whose own name has no leading underscore."""
    for name, fn in m.defs.items():
        if isinstance(fn, FUNCS) and not name.startswith("_"):
            yield name, fn, False
    for cls, methods in m.methods.items():
        for meth, fn in methods.items():
            if not meth.startswith("_"):
                yield f"{cls}.{meth}", fn, True


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

    public = {(m.name, qual) for m in mods.values()
              for qual, _, _ in _public_functions(m)}
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


def options(mods: dict) -> dict:
    """{(module, qualname, parameter): (position, node)} for every
    defaulted parameter of a public function or method: position counts the
    arguments a call passes (self and cls left out) and is None for a
    keyword-only parameter; node is the function's."""
    out = {}
    for m in mods.values():
        for qual, fn, method in _public_functions(m):
            a = fn.args
            pos = (a.posonlyargs + a.args)[method:]     # self or cls left out
            out.update({(m.name, qual, arg.arg): (i, fn) for i, arg in
                        enumerate(pos) if i >= len(pos) - len(a.defaults)})
            out.update({(m.name, qual, arg.arg): (None, fn) for arg, d in
                        zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return out


def _calls(node, fn=None):
    """(call, innermost enclosing function or None) of every call under
    node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, fn
        yield from _calls(child, child if isinstance(child, FUNCS) else fn)


def _passed(call: ast.Call, param: str, pos):
    """The expression a call passes for a parameter, True when it passes
    one through *args or **kwargs, or None."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
        if kw.arg is None:
            return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True
        if i == pos:
            return arg
    return None


def option_calls() -> tuple[set, set, set]:
    """(options, set, defaulted): the options, those that some call in the
    package or the workloads passes, by keyword or by position, and those
    that some call leaves at their default, matching calls by name.  A call
    that passes an option of its enclosing function on unchanged sets the
    option only if some call sets that one, and leaves it at its default
    only if some call leaves that one at its default."""
    mods = _load_package()
    opts = options(mods)
    by_name, of_node = {}, {}
    for key, (pos, fn) in opts.items():
        by_name.setdefault(key[1].rpartition(".")[2], []).append((key, pos))
        of_node[fn, key[2]] = key
    trees = [m.tree for m in mods.values()]
    trees.append(ast.parse(WORKLOADS.read_text()))
    is_set, defaulted = set(), set()
    forwards = []    # (from option, to option)
    for tree in trees:
        for call, fn in _calls(tree):
            f = call.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            for key, pos in by_name.get(name, ()):
                value = _passed(call, key[2], pos)
                source = of_node.get((fn, getattr(value, "id", None)))
                if source is not None:
                    forwards.append((source, key))
                elif value is not None:
                    is_set.add(key)
                else:
                    defaulted.add(key)
    for reached in (is_set, defaulted):
        while new := {key for source, key in forwards
                      if source in reached} - reached:
            reached |= new
    return set(opts), is_set, defaulted


def _names(keys) -> list:
    return sorted(f"{m}.{qual}({param})" for m, qual, param in keys)


def unset_options() -> list:
    """The options that no call in the package or the workloads passes."""
    opts, is_set, _ = option_calls()
    return _names(opts - is_set)


def unused_defaults() -> list:
    """The options whose default no call in the package or the workloads
    relies on: every call passes a value."""
    opts, _, defaulted = option_calls()
    return _names(opts - defaulted)


# An option every caller sets, kept: every call in the package passes
# components(..., check=False), as do the benchmark workloads
# (perfbench/workloads.py), which keep that signature; the checked default
# is the route for a tensor from outside the package.
UNUSED_DEFAULTS_KEPT = {"projectors.components(check)"}


def test_every_option_is_set_by_a_caller():
    opts = options(_load_package())
    assert ("projectors", "components", "check") in opts
    assert ("liealg", "two_step_nilpotent", "center") in opts
    unset = unset_options()
    assert not unset, "options no caller sets: " + ", ".join(unset)


def test_every_option_default_is_relied_on_by_a_caller():
    # an option that every call sets serves one value: it should be a
    # constant or a required argument
    unused = unused_defaults()
    assert UNUSED_DEFAULTS_KEPT <= set(unused), "kept but now relied on"
    left = [o for o in unused if o not in UNUSED_DEFAULTS_KEPT]
    assert not left, "options every caller sets: " + ", ".join(left)


# the FormTables tables whose row layouts only aqh.exterior reads
SPLIT_TABLES = {"exp_table", "der_table", "wedge_table", "dense_table"}


def test_only_exterior_reads_the_split_tables():
    # every other module applies the operators exterior builds from them,
    # so a row layout is known to one module
    readers = []
    for m in _load_package().values():
        if m.name == "exterior":
            continue
        defs = [(q, f) for q, f in m.defs.items() if isinstance(f, FUNCS)]
        defs += [(f"{c}.{q}", f) for c, ms in m.methods.items()
                 for q, f in ms.items()]
        for qual, fn in defs:
            for node in ast.walk(fn):
                f = getattr(node, "func", None)
                name = getattr(f, "attr", getattr(f, "id", None))
                if name in SPLIT_TABLES:
                    readers.append(f"{m.name}.{qual} ({name})")
    assert not readers, "split tables read outside aqh.exterior: " + \
        ", ".join(readers)
