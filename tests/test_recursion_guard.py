"""No function in the library calls itself unless its depth is bounded.

Python's recursion limit turns a deep enough input into a RecursionError, so
a search whose depth grows with the input must keep its own stack.  The scan
finds every function that calls itself by name (or through self/cls, for a
method); each allowed one is listed with the bound on its depth.  A nested
function that calls itself holds itself through its closure, a reference
cycle that keeps everything it reaches alive until the garbage collector
runs.  The enumerations of reps, goursat and abmultiset therefore run level
by level, cases._partitions is a module-level generator, and the one such
closure left, cases._faithful_sums.rec, drops its own name when done.
"""

import ast
import gc
from pathlib import Path

from charlattice import goursat, reps
from charlattice.abmultiset import AbGroup, GroupMultiset, factorizations, multiset_product
from charlattice.reps import SemisimpleAlgebra
from charlattice.rootsys import SimpleType
from charlattice.verifycli import cases

SRC = Path(__file__).resolve().parent.parent / "src" / "charlattice"

ALLOWED = {
    "cases._partitions",  # one level per part of a partition of m // 2, m <= 16 (so-selfdual)
    "cases._faithful_sums.rec",  # one level per distinct summand, at most m <= 16 (so-selfdual)
    "cases.fmt",  # one level per nesting of a reported value
}

# the only nested function allowed to call itself, and so to hold itself
NESTED_ALLOWED = {"cases._faithful_sums.rec"}


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


def _self_calling(tree: ast.AST, prefix: str, in_class: bool = False,
                  nested: bool = False):
    """(name, nested) for each function under tree that calls itself, nested
    being whether it is defined inside another function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            if _calls_itself(node, in_class):
                yield name, nested
            yield from _self_calling(node, name, nested=True)
        elif isinstance(node, ast.ClassDef):
            yield from _self_calling(node, f"{prefix}.{node.name}", in_class=True,
                                     nested=nested)
        else:
            yield from _self_calling(node, prefix, in_class, nested)


def self_calling_functions() -> dict[str, bool]:
    """Each self-calling function of the library, mapped to whether it is
    nested in another function."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_self_calling(tree, path.stem))
    return found


def test_scan_finds_a_self_call():
    tree = ast.parse("def walk(n):\n    return walk(n - 1) if n else 0\n"
                     "class C:\n    def m(self):\n        return self.m()\n"
                     "def outer():\n    def inner(n):\n        return inner(n)\n")
    assert dict(_self_calling(tree, "mod")) == {
        "mod.walk": False, "mod.C.m": False, "mod.outer.inner": True}


def test_only_bounded_functions_call_themselves():
    found = set(self_calling_functions())
    assert found - ALLOWED == set(), "unbounded self-recursion; keep an explicit stack"
    assert ALLOWED - found == set(), "allowlist entry no longer calls itself"


def test_only_one_nested_function_calls_itself():
    nested = {name for name, inner in self_calling_functions().items() if inner}
    assert nested == NESTED_ALLOWED, "a closure that calls itself holds itself"


def test_recursive_closures_leave_no_cyclic_garbage():
    """One call each of the enumerations that were once self-naming closures,
    reps._enumerate_simple, reps.enumerate_irreps_up_to_dim,
    goursat._compatible_partitions and abmultiset.factorizations, and of
    cases._partitions and cases._faithful_sums, with the caches cleared so
    that each runs, and the collector off: it then finds nothing to
    collect."""
    alg = SemisimpleAlgebra.parse("A1+A2")
    a2 = SimpleType("A", 2)
    z2 = AbGroup(torsion=1, free_rank=2)

    def plane(*points):
        return GroupMultiset.from_iterable(z2, [z2.element(0, p) for p in points])

    two, three = plane((0, 0), (1, 0)), plane((0, 0), (0, 1), (0, 3))
    pair = multiset_product(two, three)
    triple = multiset_product(pair, plane((0, 0), (5, 7)))
    reps._enumerate_simple.cache_clear()
    gc.collect()
    gc.disable()
    try:
        irreps = reps.enumerate_irreps_up_to_dim(alg, 9)
        assert len(cases._faithful_sums(alg, irreps, 9)) > 0
        assert len(list(cases._partitions(6))) == 11
        assert len(list(goursat._compatible_partitions((a2, a2, a2)))) == 5
        assert len(factorizations(pair, (2, 3))) >= 1
        assert len(factorizations(triple, (2, 3, 2))) >= 1
        assert gc.collect() == 0
    finally:
        gc.enable()
