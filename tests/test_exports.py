"""Package-wide checks: exported names resolve, no module calls a BLAS product, only
sat and compiler walk a clause's literals, no module checks time order by np.diff, and
imports point down, with ctypes and the run limit in _native alone."""
import ast
import importlib
import pkgutil
import sys
from pathlib import Path
from typing import Iterator

import pytest

import cascor

MODULES = ["cascor", *(f"cascor.{m.name}" for m in pkgutil.iter_modules(cascor.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# Products numpy hands to BLAS, whose worker threads CASCOR_THREADS does not bound.
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}


def blas_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name in BLAS_NAMES or "linalg" in (node.module or "")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


@pytest.mark.parametrize("path", sorted(Path(cascor.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_a_blas_product(path):
    assert blas_uses(path.read_text()) == []


def test_blas_scan_catches_each_form():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import inner\n"
              "a @ b\na @= b\nnp.dot(a, b)\na.dot(b)\nnp.matmul(a, b)\nnp.tensordot(a, b)\n"
              "np.linalg.norm(a)\nnp.einsum('ij,jk', a, b, optimize=True)\n"
              "np.einsum('ij,jk', a, b)\nnp.outer(a, b)\n")
    assert len(blas_uses(source)) == 10


# Clauses are walked literal by literal in sat, which builds Cnf.masks, the form every
# other module evaluates them in, and in compiler, which builds a penalty per literal.
CLAUSE_WALKERS = {"sat.py", "compiler.py"}


def literal_reads(source: str) -> list[str]:
    return [f"line {node.lineno}: .literals" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "literals"]


@pytest.mark.parametrize("path", [p for p in sorted(Path(cascor.__file__).parent.glob("*.py"))
                                  if p.name not in CLAUSE_WALKERS], ids=lambda p: p.name)
def test_only_sat_and_compiler_read_clause_literals(path):
    assert literal_reads(path.read_text()) == []


def test_literal_scan_catches_each_read():
    source = "for lit in clause.literals:\n    pass\nn = len(cnf.clauses[0].literals)\n"
    assert literal_reads(source) == ["line 1: .literals", "line 3: .literals"]


# A time-order check by np.diff(times, prepend=0) < 0 wraps past int64 and passes
# times that decrease; SampleBatch and events_from_jsonl compare neighbours instead.
def diff_prepends(source: str) -> list[str]:
    return [f"line {node.lineno}: diff(prepend=...)" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "diff"
            and any(k.arg == "prepend" for k in node.keywords)]


@pytest.mark.parametrize("path", sorted(Path(cascor.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_takes_np_diff_with_prepend(path):
    assert diff_prepends(path.read_text()) == []


def test_diff_scan_catches_a_prepend():
    source = ("np.diff(t, prepend=0)\nnumpy.diff(t, n=1, prepend=[0])\nnp.diff(t)\n"
              "np.diff(np.concatenate([[0], t]))\n")
    assert diff_prepends(source) == ["line 1: diff(prepend=...)", "line 2: diff(prepend=...)"]


# Imports point down.  _native imports only the standard library and numpy, and alone
# loads the C library through ctypes and owns the run limit; other modules reach those
# through _native, never through samplers or sat, which held them once.  Every cascor
# import is at module top but one: generate_mixed_sat screens its draws with allsat's
# count, which sits above sat because past 26 variables it runs the enumerator.
INNER_IMPORTS = {("sat.py", "generate_mixed_sat", "allsat")}
NATIVE_NAMES = {"_RUN_BYTES", "_check_run_size", "_kernel", "_build_kernel", "_seed_words",
                "_CC", "_CFLAGS", "_SOURCE"}


def cascor_imports(node: ast.AST) -> list[tuple[str, str, str | None]]:
    """(bound name, module, imported attribute or None) for each cascor module an import
    statement takes from; module is the name within the package."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name, a.name.partition(".")[2], None) for a in node.names
                if a.name.partition(".")[0] == "cascor"]
    if not isinstance(node, ast.ImportFrom):
        return []
    package, _, module = (node.module or "").partition(".")
    if node.level:
        module = node.module or ""
    elif package != "cascor":
        return []
    return [(a.asname or a.name, module, a.name) if module else (a.asname or a.name, a.name, None)
            for a in node.names]


def inner_imports(node: ast.AST, function: str | None = None) -> Iterator[tuple[str, ast.AST]]:
    """(innermost function, statement) for each import statement inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from inner_imports(child, child.name)
            continue
        if function and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield function, child
        yield from inner_imports(child, function)


def native_reaches(tree: ast.AST) -> list[str]:
    """Each NATIVE_NAMES name taken through samplers or sat: imported, read or set."""
    found, holders = [], set()
    for node in ast.walk(tree):
        for bound, module, attr in cascor_imports(node):
            if module in ("samplers", "sat") and attr in NATIVE_NAMES:
                found.append(f"line {node.lineno}: imports {module}.{attr}")
            elif module in ("samplers", "sat") and attr is None:
                holders.add(bound)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            holder, name = node.value, node.attr
        elif (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            holder, name = node.args[0], node.args[1].value
        else:
            continue
        if name in NATIVE_NAMES and ast.unparse(holder) in holders:
            found.append(f"line {node.lineno}: {ast.unparse(holder)}.{name}")
    return found


def layering_faults(source: str, filename: str) -> list[str]:
    """Cascor imports inside functions (but INNER_IMPORTS), ctypes outside _native,
    _native importing past the standard library and numpy, and native_reaches."""
    tree = ast.parse(source)
    found = [f"line {node.lineno}: {function} imports {module}"
             for function, node in inner_imports(tree)
             for _, module, _ in cascor_imports(node)
             if (filename, function, module) not in INNER_IMPORTS]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [
                "." * node.level + (node.module or "")]
            roots = {name.partition(".")[0] for name in names}
            if ("ctypes" in roots and filename != "_native.py" or filename == "_native.py"
                    and not roots <= {"numpy", *sys.stdlib_module_names}):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found + native_reaches(tree)


@pytest.mark.parametrize("path", sorted(Path(cascor.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_point_down(path):
    assert layering_faults(path.read_text(), path.name) == []


def embedded_scripts(source: str) -> list[str]:
    """source and each string in it that imports cascor, a script a test runs."""
    return [source, *(node.value for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and "from cascor" in node.value)]


@pytest.mark.parametrize("path", [p for p in sorted(Path(__file__).parent.glob("*.py"))
                                  if p.name != Path(__file__).name], ids=lambda p: p.name)
def test_tests_reach_the_native_names_through_native(path):
    assert [fault for script in embedded_scripts(path.read_text())
            for fault in native_reaches(ast.parse(script))] == []


def test_layering_scan_catches_each_fault():
    source = ("import ctypes\nfrom . import samplers\nimport cascor.sat as sat_mod\n"
              "from .samplers import _kernel\n"
              "def f():\n    from . import allsat\n    from .allsat import enumerate_all\n"
              "    def g():\n        import cascor.cli\n"
              "def generate_mixed_sat():\n    from . import allsat\n"
              "samplers._RUN_BYTES\nsat_mod._check_run_size(1, 2, 'x')\n"
              "monkeypatch.setattr(samplers, '_build_kernel', None)\n"
              "setattr(sat_mod, '_seed_words', None)\n_native._kernel()\n")
    assert sorted(layering_faults(source, "sat.py")) == [
        "line 12: samplers._RUN_BYTES", "line 13: sat_mod._check_run_size",
        "line 14: samplers._build_kernel", "line 15: sat_mod._seed_words",
        "line 1: import ctypes", "line 4: imports samplers._kernel",
        "line 6: f imports allsat", "line 7: f imports allsat", "line 9: g imports cli"]
    source = "import ctypes\nimport numpy.ctypeslib\nfrom . import sat\nimport pytest\n"
    assert layering_faults(source, "_native.py") == ["line 3: from . import sat",
                                                     "line 4: import pytest"]
