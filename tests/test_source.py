"""Source checks: library invariants raise explicit errors, so they still
hold under python -O, every cache is bounded, no module keeps mutable state
in a global, every name the benchmark's tracer patches exists, every library
name has a caller, and importing the CLI loads every cached module but none
of the heavy standard modules."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path as FsPath

import fbpaths

SOURCES = sorted(FsPath(fbpaths.__file__).parent.glob("*.py"))


def test_library_has_no_asserts():
    assert SOURCES
    found = []
    for src in SOURCES:
        for node in ast.walk(ast.parse(src.read_text(), filename=str(src))):
            if isinstance(node, ast.Assert) or \
                    (isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{src.name}:{node.lineno}")
    assert found == []


def test_library_caches_are_bounded():
    # lru_cache(maxsize=None), lru_cache(None) and functools.cache never evict
    found = []
    for src in SOURCES:
        for node in ast.walk(ast.parse(src.read_text(), filename=str(src))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lru_cache":
                sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                    found.append(f"{src.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools" and \
                    any(alias.name == "cache" for alias in node.names) or \
                    isinstance(node, ast.Attribute) and node.attr == "cache" and \
                    getattr(node.value, "id", None) == "functools":
                found.append(f"{src.name}:{node.lineno}")
    assert found == []


MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}


def _module_level(tree):
    """The nodes of a module outside its function and class bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_library_keeps_no_module_state():
    # a dict, list or set bound at module level is state that outlives a
    # call and that a pool worker carries from one task to the next; caches
    # live in bounded lru_cache objects instead
    found = []
    for src in SOURCES:
        for node in _module_level(ast.parse(src.read_text(), filename=str(src))):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            func = getattr(node.value, "func", None)  # None unless a call
            if isinstance(node.value, MUTABLE_LITERALS) or \
                    getattr(func, "id", getattr(func, "attr", None)) in MUTABLE_TYPES:
                found.append(f"{src.name}:{node.lineno}")
    assert found == []


def _modules_after_cli_import() -> set[str]:
    """The sys.modules names of a fresh interpreter after `import fbpaths.cli`."""
    src = str(FsPath(fbpaths.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", "import sys, fbpaths.cli; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_stays_light():
    # every cold `fbpaths` call pays for what the CLI imports: dataclasses
    # alone loads inspect, ast, dis and tokenize, and only --jobs > 1 needs
    # multiprocessing
    loaded = _modules_after_cli_import()
    assert "fbpaths.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "multiprocessing"} == set()


def test_every_cached_module_loads_with_the_cli():
    # the benchmark's transform-suite clears the caches of the fbpaths modules
    # that `import fbpaths.cli` has loaded; a module imported lazily would keep
    # its caches warm from one pass to the next
    cached = {f"fbpaths.{src.stem}" for src in SOURCES
              if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lru_cache"
                     for node in ast.walk(ast.parse(src.read_text(), filename=str(src))))}
    assert cached
    assert cached - _modules_after_cli_import() == set()


TRACING = FsPath(__file__).parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # the benchmark's tracer patches these names; read its tables without importing it
    tables = {}
    for node in ast.parse(TRACING.read_text(), filename=str(TRACING)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                getattr(node.targets[0], "id", None) in ("SPANS", "GENERATORS", "RESULT_LENGTHS"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert len(tables) == 3
    missing = []
    for module, attr, _ in (entry for table in tables.values() for entry in table):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


ROOT = FsPath(__file__).parents[1]


def _used_names(tree):
    """Counts of the identifiers a syntax tree uses: names, attributes,
    imported names and dotted-name strings (the tracer names its targets in
    strings); docstrings and other bare string statements do not count."""
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in bare and re.fullmatch(r"[\w.]+", node.value):
            used.update(node.value.split("."))
    return used


def test_every_library_name_is_referenced():
    used = Counter()
    for folder in ("src", "tests", "demos", "perfbench"):
        for src in sorted((ROOT / folder).rglob("*.py")):
            used += _used_names(ast.parse(src.read_text(), filename=str(src)))
    defs = []  # (qualified name, def node) for every library function, class and method
    for src in SOURCES:
        for node in ast.parse(src.read_text(), filename=str(src)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__")))
    # a reference inside the def itself (recursion) does not count
    unused = [qual for qual, node in defs
              if used[node.name] - _used_names(node)[node.name] <= 0]
    assert unused == [], f"no reference outside their own def: {unused}"
