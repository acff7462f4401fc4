"""Source checks: library invariants raise explicit errors, so they still
hold under python -O, and every name the benchmark's tracer patches exists."""

import ast
import importlib
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
