"""Every functools cache in the library is used.

Each module-level cache under src/ is cleared and the default suite is run in
process; a cache must then report at least one hit, or be listed in ALLOWED
with the traffic it serves instead.  A cache that no run reads again only
holds memory.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import charlattice
from charlattice.verifycli.cases import default_suite, run_case

SRC = Path(__file__).resolve().parent.parent / "src" / "charlattice"

# Qualified name -> why the cache stays without a hit on the default suite.
ALLOWED: dict[str, str] = {}

CACHE_NAMES = {"cache", "lru_cache"}


def module_caches() -> dict[str, object]:
    """Each functools cache bound at module level in the module that makes it,
    by module and bound name."""
    found = {}
    for info in pkgutil.walk_packages(charlattice.__path__, "charlattice."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def cache_sites(tree: ast.Module) -> int:
    """The lru_cache or cache calls and bare decorators in a module's source."""
    def named(node):
        return (isinstance(node, ast.Name) and node.id in CACHE_NAMES
                or isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES)

    calls = sum(isinstance(node, ast.Call) and named(node.func) for node in ast.walk(tree))
    bare = sum(named(dec) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               for dec in node.decorator_list)
    return calls + bare


def test_scan_finds_every_cache_in_the_source():
    caches = module_caches()
    for path in SRC.rglob("*.py"):
        modname = ".".join(("charlattice",) + path.relative_to(SRC).with_suffix("").parts)
        modname = modname.removesuffix(".__init__")
        own = [name for name in caches if name.rpartition(".")[0] == modname]
        assert cache_sites(ast.parse(path.read_text(encoding="utf-8"))) == len(own), modname


def test_every_cache_is_hit_on_the_default_suite():
    caches = module_caches()
    assert set(ALLOWED) <= set(caches)
    for cache in caches.values():
        cache.cache_clear()
    for case_id, params in default_suite(0):
        assert run_case(case_id, params).verdict
    unused = {name for name, cache in caches.items() if cache.cache_info().hits == 0}
    assert unused <= set(ALLOWED), sorted(unused - set(ALLOWED))
