"""Every public name in the library has a use.

A public module-level function or class, or a public method, must be used
under src/ (called, or read, for properties and functions passed on as
values), be traced by a span in benchmarks/spans.py LAYERS, or be listed in
ALLOWED with the reason it stays.  A use inside the name's own definition
does not count.  The scan matches names, not types, so a method counts as
used when any attribute of that name is read.
"""

import ast
from pathlib import Path

from test_bench_contract import load_spans

SRC = Path(__file__).resolve().parent.parent / "src" / "charlattice"

ALLOWED: dict[str, str] = {}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_names(tree: ast.Module, prefix: str):
    """(qualified name, bare name, is a method) of each public module-level
    function and class and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, DEFS):
            if not node.name.startswith("_"):
                yield f"{prefix}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not item.name.startswith("_"):
                        yield f"{prefix}.{node.name}.{item.name}", item.name, True


def _reads(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names read as variables and the names read as attributes, each
    outside the definitions of that name that enclose it."""
    names, attrs = set(), set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, DEFS):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
        stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return names, attrs


def unused_public_names(trees: dict[str, ast.Module]) -> set[str]:
    """Public names without a read; a method is only read as an attribute,
    so a local variable of the same name does not count for it."""
    names, attrs = set(), set()
    for tree in trees.values():
        n, a = _reads(tree)
        names |= n
        attrs |= a
    return {qual for prefix, tree in trees.items()
            for qual, name, method in _public_names(tree, prefix)
            if name not in attrs and (method or name not in names)}


def traced_names() -> set[str]:
    """LAYERS entries as module stem and attribute, e.g. 'linalg.invert'."""
    return {".".join(f"{modname}.{attr}".split(".")[-2:])
            for modname, attrs in load_spans().LAYERS.values() for attr in attrs}


def test_scan_finds_an_unused_name():
    tree = ast.parse("def used():\n    return 1\n"
                     "def lonely(n):\n    return lonely(n - 1) + used()\n"
                     "class C:\n    def m(self):\n        return self.p\n"
                     "    @property\n    def p(self):\n        return 0\n"
                     "    def _private(self):\n        return C()\n")
    assert unused_public_names({"mod": tree}) == {"mod.lonely", "mod.C", "mod.C.m"}


def test_every_public_name_has_a_use():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    unused = unused_public_names(trees)
    traced = traced_names()
    assert unused - traced - set(ALLOWED) == set(), \
        "public name without a use; delete it, or say in ALLOWED why it stays"
    assert set(ALLOWED) - unused == set(), "ALLOWED entry is used under src/ now"
