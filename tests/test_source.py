"""Properties of the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import tamearc
import tamearc.poly

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


def test_trusted_arcs_and_residues_stay_in_their_modules():
    # GGArc._of_component skips the checks that d_eps's coprime bodies make
    # true, and ResidueFunc._of_units the unit test that a product of units
    # passes; a caller elsewhere could not keep either promise in view
    owners = {"_of_component": "ksymbols.py", "_of_units": "geometry.py"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {alias.name for alias in node.names}
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else set())
            found.extend(f"{path.name}:{node.lineno} {name}" for name in names
                         if owners.get(name, path.name) != path.name)
    assert not found, found
    named = {name: [path.name for path in PACKAGE.glob("*.py")
                    if name in path.read_text()] for name in owners}
    assert named == {name: [owner] for name, owner in owners.items()}


def test_factor_reads_no_fraction_view():
    # the factorizer and the polynomial kernel run on the integer parts; the
    # Fraction view `terms` is built on each read for callers outside them,
    # and (vars, cont, ints) is a polynomial's only state
    found = []
    for name in ("factor.py", "poly.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        found.extend(f"{name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "terms")
    assert not found, found
    assert tamearc.poly.MultiPoly.__slots__ == ("vars", "cont", "ints", "_hash")


def test_no_uncalled_private_functions():
    # a private module-level function or class that no other code names is dead
    defined = {}
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and stmt.name.startswith("_"):
                defined[stmt.name] = f"{path.name}:{stmt.lineno}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                # a call from a function's own body does not keep it alive
                if not (is_def and name == stmt.name):
                    named.add(name)
    dead = sorted(where + " " + name for name, where in defined.items() if name not in named)
    assert not dead, dead


def test_one_remainder_sequence():
    # resultants, the gcd fallback and the fibre gcds all read the one
    # subresultant chain; a second loop over _prem would be a copy that can drift
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for stmt in tree.body
                   if isinstance(stmt, ast.FunctionDef) and stmt.name == "subresultants"
                   and path.name == "poly.py"
                   for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {alias.name for alias in node.names}
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else set())
            if "_prem" in names and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_one_hensel_tree_and_one_subset_search():
    # both factorizers lift through one halving recursion and recombine in
    # one loop over _subsets; a second copy of either would be a proof that
    # can drift from the first
    tree = ast.parse((PACKAGE / "factor.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def calls(fn, name):
        return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == name for node in ast.walk(fn))

    searches = [fn.name for fn in functions if calls(fn, "_subsets")]
    # besides the equal-degree split, the one recursion is the Hensel tree
    recursions = [fn.name for fn in functions if calls(fn, fn.name)]
    assert searches == ["_recombine"], searches
    assert recursions == ["_edf", "_hensel_tree"], recursions


def test_one_dense_kernel():
    # arithmetic on dense lists, over Z and mod q, lives in poly alone; a
    # second copy of a trim, a balanced residue or an F_q[t] routine can drift.
    # _zassenhaus is an algorithm named after Zassenhaus, not an F_q[t] routine
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and (
                    node.name.startswith("_z") and node.name != "_zassenhaus"
                    or "trim" in node.name
                    or node.name == "_center"):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, found


def _is_empty_container(value):
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set", "list")
            and not value.args and not value.keywords)


def test_no_caches_that_outlive_a_call():
    # a container created empty at module or class level, or a functools
    # cache, keeps state from one call to the next; a speed-up must come
    # from doing less work per call, not from remembering earlier calls
    caches = {"cache", "lru_cache", "cached_property"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        found.extend(f"{path.name}:{stmt.lineno} empty container"
                     for body in bodies for stmt in body
                     if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                     and _is_empty_container(stmt.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = {node.attr}
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} functools.{name}"
                         for name in names & caches)
    assert not found, found


def test_no_generated_code():
    # value classes derive from tamearc.value.Value; generating their methods
    # (dataclasses, exec, eval, compile) would cost every CLI job at import
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found.extend(f"{path.name}:{node.lineno} import {name}" for name in modules
                         if name.split(".")[0] == "dataclasses")
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name) and func.value.id == "builtins"
                        else None)
                if name in ("exec", "eval", "compile"):
                    found.append(f"{path.name}:{node.lineno} {name}()")
    assert not found, found


def test_cli_import_loads_no_code_generation_modules():
    # a fresh `python -m tamearc.cli` pays for every module it imports; these
    # three cost about 9 ms and come only with dataclasses or source tooling
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tamearc.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == ""


def test_factor_never_calls_its_public_factorizers():
    # each part is factored once on the private path; a call of
    # factor_univariate or factor_plane_curve from inside would split it again
    path = PACKAGE / "factor.py"
    public = {"factor_univariate", "factor_plane_curve"}
    found = [f"factor.py:{node.lineno} {node.func.id}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in public]
    assert not found, found
