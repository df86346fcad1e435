"""Every record class behaves as the frozen dataclass it replaced.

The library's value classes are built by `charlattice._record.record`, not by
`dataclasses`, so that a CLI query need not import `dataclasses` and
`inspect`.  Each class found under src/ by its decorator is compared with a
frozen dataclass of the same name, fields, defaults and `__post_init__`,
made here as the oracle: equality across and within classes, hashing, repr,
ordering, construction, immutability, pickling and weak references.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
import weakref
from pathlib import Path

import pytest

from charlattice.abmultiset import AbGroup, Decomposition, GroupMultiset
from charlattice.charmatch import CharIsomorphism, alt_power_stats, max_norm_weights
from charlattice.goursat import verify_goursat_lemma
from charlattice.reps import (AlgebraMismatchError, FormalCharacter, HighestWeight,
                              SemisimpleAlgebra, irreducible_character,
                              multiplicity_free_catalog)
from charlattice.rootsys import (CartanTypeError, SimpleType, build_root_system,
                                 equal_rank_subsystems)
from charlattice.verifycli.cases import CaseReport, Step, allowed_pairs

SRC = Path(__file__).resolve().parent.parent / "src"


def record_classes() -> list[tuple[str, str, bool]]:
    """(module, class name, order) for every class decorated with `record`."""
    found = []
    for path in sorted((SRC / "charlattice").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                name = call.func if call else deco
                if isinstance(name, ast.Name) and name.id == "record":
                    order = any(k.arg == "order" and k.value.value is True
                                for k in (call.keywords if call else ()))
                    found.append((module, node.name, order))
    return found


RECORDS = record_classes()


def field_names(cls) -> tuple[str, ...]:
    return tuple(cls.__dict__.get("__annotations__", {}))


def fields_of(obj) -> tuple:
    return tuple(getattr(obj, n) for n in field_names(type(obj)))


def samples() -> dict[str, list[tuple]]:
    """At least two distinct field tuples per record class, read off values
    the library builds."""
    a2, b2 = SimpleType("A", 2), SimpleType("B", 2)
    alg = SemisimpleAlgebra((a2,))
    std = irreducible_character(alg, (1, 0))
    dual = irreducible_character(alg, (0, 1))
    z2 = AbGroup(1, 2)
    m1 = GroupMultiset.from_iterable(z2, [(0, (0, 0)), (0, (1, 0))])
    m2 = GroupMultiset.from_iterable(z2, [(0, (0, 0)), (0, (0, 1)), (0, (0, 1))])
    step = Step("claim", "1", "1", True, "closed form")
    built = {
        "SimpleType": [a2, b2, SimpleType("E", 8), SimpleType("A", 10)],
        "RootSystem": [build_root_system(a2), build_root_system(b2)],
        "Subsystem": list(equal_rank_subsystems(b2)),
        "SemisimpleAlgebra": [alg, SemisimpleAlgebra((a2, b2))],
        "HighestWeight": [HighestWeight(((1, 0),)), HighestWeight(((0, 1), (2, 0)))],
        "FormalCharacter": [std, dual],
        "CatalogEntry": list(multiplicity_free_catalog(b2))[:3],
        "AbGroup": [z2, AbGroup(3, 1)],
        "GroupMultiset": [m1, m2],
        "Decomposition": [Decomposition((m1, m2)), Decomposition((m2, m1))],
        "GoursatReport": [verify_goursat_lemma([a2, a2]), verify_goursat_lemma([a2, b2])],
        "CharIsomorphism": [CharIsomorphism(std, std, ((1, 0), (0, 1)), 1),
                            CharIsomorphism(std, dual, ((0, 2), (2, 0)), 2)],
        "AltPowerStats": [alt_power_stats(2, 1), alt_power_stats(3, 2)],
        "MaxNormRecord": [max_norm_weights(std), max_norm_weights(irreducible_character(alg, (1, 1)))],
        "Step": [step, Step("claim", "2", "1", False, "closed form")],
        "CaseReport": [CaseReport("c", (("k", "5"),), (step,)),
                       CaseReport("c", (("k", "5"),), (step,), (("n", "1"),))],
        "AllowedPair": list(allowed_pairs(10).pairs)[:2],
        "AllowedPairsReport": [allowed_pairs(10), allowed_pairs(28)],
    }
    return {name: [fields_of(x) for x in objs] for name, objs in built.items()}


SAMPLES = samples()

# __post_init__ rejections: (class name, field tuple, exception).
A1 = SimpleType("A", 1)
REJECTED = [
    ("SimpleType", ("E", 9), CartanTypeError),
    ("SimpleType", ("Q", 2), CartanTypeError),
    ("SemisimpleAlgebra", ((),), ValueError),
    ("HighestWeight", (((-1,),),), ValueError),
    ("FormalCharacter", (SemisimpleAlgebra((A1,)), (((1, 0), 1),)), AlgebraMismatchError),
    ("FormalCharacter", (SemisimpleAlgebra((A1,)), (((1,), 0),)), ValueError),
    ("AbGroup", (0, 1), ValueError),
]


def load(module: str, name: str):
    return getattr(importlib.import_module(module), name)


def oracle_for(cls, order: bool):
    """The frozen dataclass with cls's name, fields, defaults and __post_init__."""
    spec = []
    for n in field_names(cls):
        if n in cls.__dict__:
            spec.append((n, object, dataclasses.field(default=cls.__dict__[n])))
        else:
            spec.append((n, object))
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace,
                                      frozen=True, order=order)


def outcome(fn):
    """The result of fn(), or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # the oracle decides which exceptions are right
        return type(exc)


def test_scan_finds_every_record_class():
    names = {name for _, name, _ in RECORDS}
    assert len(names) == len(RECORDS) >= 18
    assert names == set(SAMPLES)
    assert [name for _, name, order in RECORDS if order] == ["SimpleType"]


def test_samples_are_distinct():
    for name, rows in SAMPLES.items():
        assert len(rows) >= 2 and len(set(map(repr, rows))) == len(rows), name


@pytest.mark.parametrize("module,name,order", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_matches_frozen_dataclass(module, name, order):
    cls = load(module, name)
    oracle = oracle_for(cls, order)
    rows = SAMPLES[name]
    mine = [cls(*row) for row in rows]
    theirs = [oracle(*row) for row in rows]
    for x, y in zip(mine, theirs):
        assert repr(x) == repr(y)
        assert hash(x) == hash(y)
        assert x != y and not x == y and y != x  # across classes
        assert x.__eq__(object()) is y.__eq__(object()) is NotImplemented
    for i, (x, y) in enumerate(zip(mine, theirs)):
        for k in range(len(rows)):
            assert (x == mine[k]) == (y == theirs[k]) == (i == k)
            assert (x != mine[k]) == (y != theirs[k]) == (i != k)
    stranger = AbGroup(1, 1) if name != "AbGroup" else A1
    assert (mine[0] == stranger) is False and (mine[0] != stranger) is True


@pytest.mark.parametrize("module,name,order", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_construction_matches(module, name, order):
    cls = load(module, name)
    oracle = oracle_for(cls, order)
    names = field_names(cls)
    row = SAMPLES[name][0]
    keywords = dict(zip(names, row))
    assert cls(**keywords) == cls(*row)
    assert repr(cls(**keywords)) == repr(oracle(**keywords))
    required = [n for n in names if n not in cls.__dict__]
    short = {n: keywords[n] for n in required}
    assert repr(cls(**short)) == repr(oracle(**short))
    for args, kwargs in [((), {}), (row + (None,), {}), (row, {"extra": 1}),
                         (row[:1], {names[0]: row[0]})]:
        if not args and not required:
            continue
        assert outcome(lambda: cls(*args, **kwargs)) is TypeError
        assert outcome(lambda: oracle(*args, **kwargs)) is TypeError


@pytest.mark.parametrize("module,name,order", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_is_frozen_and_copies(module, name, order):
    cls = load(module, name)
    oracle = oracle_for(cls, order)
    for row in SAMPLES[name]:
        x, y = cls(*row), oracle(*row)
        for attr in field_names(cls) + ("not_a_field",):
            for obj in (x, y):
                with pytest.raises(AttributeError):
                    setattr(obj, attr, 0)
                with pytest.raises(AttributeError):
                    delattr(obj, attr)
        assert fields_of(x) == row
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(twin) is cls and twin == x and hash(twin) == hash(x)
        ref = weakref.ref(x)
        assert ref() is x


def test_simple_type_orders_like_the_dataclass():
    oracle = oracle_for(SimpleType, order=True)
    rows = SAMPLES["SimpleType"] + [("A", 3), ("B", 2), ("G", 2)]
    mine = [SimpleType(*r) for r in rows]
    theirs = [oracle(*r) for r in rows]
    for x, y in zip(mine, theirs):
        for u, v in zip(mine, theirs):
            assert (x < u, x <= u, x > u, x >= u) == (y < v, y <= v, y > v, y >= v)
    assert [fields_of(x) for x in sorted(mine)] == [fields_of(y) for y in sorted(theirs)]
    assert outcome(lambda: mine[0] < AbGroup(1, 1)) is outcome(lambda: theirs[0] < 1) is TypeError


@pytest.mark.parametrize("name,row,error", REJECTED, ids=[r[0] for r in REJECTED])
def test_post_init_rejections_match(name, row, error):
    module = next(m for m, n, _ in RECORDS if n == name)
    cls = load(module, name)
    oracle = oracle_for(cls, order=False)
    assert outcome(lambda: cls(*row)) is outcome(lambda: oracle(*row)) is error


def test_generated_init_has_a_signature():
    import inspect

    assert str(inspect.signature(CaseReport)) == "(case_id, inputs, steps, notes=())"
    assert CaseReport.__init__.__qualname__ == "CaseReport.__init__"


def test_formal_character_is_weakly_referenceable():
    fc = FormalCharacter(SemisimpleAlgebra((A1,)), (((-1,), 1), ((1,), 1)))
    memo = weakref.WeakKeyDictionary({fc: 1})
    assert memo[FormalCharacter(fc.algebra, fc.weights)] == 1
