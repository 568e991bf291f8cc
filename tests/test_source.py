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


def test_no_unused_imports():
    # an import that nothing reads hides which modules really depend on which
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_no_function_local_imports():
    # an import inside a function hides a module's dependencies from its header
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                             if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert not found, found


def test_trusted_constructors_stay_in_poly():
    # _from_primitive and _reduced skip every check on the promise that their
    # input is already in normal form; only the kernel that proves it may call them
    trusted = {"_from_primitive", "_reduced"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {alias.name for alias in node.names}
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else set())
            found.extend(f"{path.name}:{node.lineno} {name}" for name in names & trusted)
    assert not found, found
