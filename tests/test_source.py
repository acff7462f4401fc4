"""Library invariants raise explicit errors, so they still hold under python -O."""

import ast
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
