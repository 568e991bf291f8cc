"""Properties of the package source itself."""

import ast
from pathlib import Path

import tamearc

PACKAGE = Path(tamearc.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so internal invariants raise typed errors
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_function_defined_in_two_modules():
    # a module-level function defined twice is a copy that can drift
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.setdefault(node.name, []).append(path.name)
    copies = {name: files for name, files in owners.items() if len(files) > 1}
    assert not copies, copies
