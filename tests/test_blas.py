"""shiftmean calls no BLAS, so importing it pins OpenBLAS to one thread."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftmean

PACKAGE = Path(shiftmean.__file__).resolve().parent

# numpy names that can dispatch to BLAS; `@` is caught as an operator
BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "inner", "vdot", "tensordot"}
# the one place allowed a dot: int64 limbs or object arrays, never BLAS
DOT_ALLOWED_IN = ("harness.py", "_exact_dot")


def _import_in_fresh_interpreter(threads):
    """OPENBLAS_NUM_THREADS and the thread count after `import shiftmean`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = ("import os, shiftmean; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, count = proc.stdout.split()
    return value, int(count)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_pins_openblas_to_one_thread():
    # numpy is imported after the pin, so OpenBLAS starts no worker threads
    assert _import_in_fresh_interpreter(None) == ("1", 1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_keeps_a_user_thread_count():
    assert _import_in_fresh_interpreter("3")[0] == "3"


def _blas_uses(source: str, filename: str) -> list:
    """(line, name) for each use in a module of a name that can reach BLAS."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [*node.module.split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        for name in names:
            if name in BLAS_NAMES and (name != "dot" or (filename, func) != DOT_ALLOWED_IN):
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_no_src_call_can_reach_blas():
    # the one-thread pin costs nothing only while no call uses BLAS
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if (uses := _blas_uses(path.read_text(encoding="utf-8"), path.name))}
    assert found == {}


def test_blas_guard_sees_each_form():
    source = ("import numpy as np\n"
              "from numpy.linalg import norm\n"
              "def f(a, b):\n"
              "    return a @ b, np.dot(a, b), a.dot(b), np.linalg.solve(a, b)\n"
              "def _exact_dot(a, b):\n"
              "    return np.dot(a, b), np.einsum('i,i', a, b), np.inner(a, b)\n")
    assert sorted(_blas_uses(source, "harness.py")) == [
        (2, "linalg"), (4, "@"), (4, "dot"), (4, "dot"), (4, "linalg"),
        (6, "einsum"), (6, "inner")]
    assert (6, "dot") in _blas_uses(source, "arith.py")
