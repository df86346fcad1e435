"""No function in the library calls itself unless its depth is bounded.

Python's recursion limit turns a deep enough input into a RecursionError, so
a search whose depth grows with the input must keep its own stack.  The scan
finds every function that calls itself by name (or through self/cls, for a
method); each allowed one is listed with the bound on its depth.  A nested
function that calls itself holds itself through its closure, a reference
cycle that keeps everything it reaches alive until the garbage collector
runs, so the closures of reps and cases drop their own names when done.
"""

import ast
import gc
from pathlib import Path

from charlattice import reps
from charlattice.reps import SemisimpleAlgebra
from charlattice.verifycli import cases

SRC = Path(__file__).resolve().parent.parent / "src" / "charlattice"

ALLOWED = {
    "abmultiset.factorizations.recurse",  # one level per size in the profile
    "goursat._compatible_partitions.grow",  # one level per factor, at most MAX_FACTORS
    "reps._enumerate_simple.extend",  # one level per fundamental weight, at most the rank
    "reps.enumerate_irreps_up_to_dim.build",  # one level per simple factor
    "cases._partitions.rec",  # one level per part of a partition of m // 2, m <= 16 (so-selfdual)
    "cases._faithful_sums.rec",  # one level per distinct summand, at most m <= 16 (so-selfdual)
    "cases.fmt",  # one level per nesting of a reported value
}


def _calls_itself(func: ast.FunctionDef, in_class: bool) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == func.name:
            return True
        if (in_class and isinstance(callee, ast.Attribute) and callee.attr == func.name
                and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
            return True
    return False


def _self_calling(tree: ast.AST, prefix: str, in_class: bool = False):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            if _calls_itself(node, in_class):
                yield name
            yield from _self_calling(node, name)
        elif isinstance(node, ast.ClassDef):
            yield from _self_calling(node, f"{prefix}.{node.name}", in_class=True)
        else:
            yield from _self_calling(node, prefix, in_class)


def self_calling_functions() -> set[str]:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_self_calling(tree, path.stem))
    return found


def test_scan_finds_a_self_call():
    tree = ast.parse("def walk(n):\n    return walk(n - 1) if n else 0\n"
                     "class C:\n    def m(self):\n        return self.m()\n")
    assert set(_self_calling(tree, "mod")) == {"mod.walk", "mod.C.m"}


def test_only_bounded_functions_call_themselves():
    found = self_calling_functions()
    assert found - ALLOWED == set(), "unbounded self-recursion; keep an explicit stack"
    assert ALLOWED - found == set(), "allowlist entry no longer calls itself"


def test_recursive_closures_leave_no_cyclic_garbage():
    """One call each of reps._enumerate_simple.extend,
    reps.enumerate_irreps_up_to_dim.build, cases._partitions.rec and
    cases._faithful_sums.rec, with the caches cleared so that each runs, and
    the collector off: it then finds nothing to collect."""
    alg = SemisimpleAlgebra.parse("A1+A2")
    reps._enumerate_simple.cache_clear()
    gc.collect()
    gc.disable()
    try:
        irreps = reps.enumerate_irreps_up_to_dim(alg, 9)
        assert len(cases._faithful_sums(alg, irreps, 9)) > 0
        assert len(list(cases._partitions(6))) == 11
        assert gc.collect() == 0
    finally:
        gc.enable()
