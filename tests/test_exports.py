"""Package-wide checks: exported names resolve, no module calls a BLAS product, only
sat and compiler walk a clause's literals, and no module checks time order by np.diff."""
import ast
import importlib
import pkgutil
from pathlib import Path

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
