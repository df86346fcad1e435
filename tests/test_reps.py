"""Weight multisets and dimensions against independent oracles.

Type A dimensions are cross-checked with the hook content formula, which
shares no code with the Weyl dimension product, and type A multiplicities
with Kostka numbers; small multisets are frozen by hand, and the multisets of
a fixed grid over every family are pinned by hash and, below E7, checked
against the Weyl character formula (tests/weyl_character_oracle.py).
"""

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import pytest

from charlattice import reps
from charlattice.reps import (DimensionBoundError, FormalCharacter,
                              HighestWeight, SemisimpleAlgebra, direct_sum,
                              dual_highest_weight, enumerate_irreps_up_to_dim,
                              irreducible_character, multiplicity_free_catalog,
                              restrict_to_subsystem, trivial_character,
                              weight_multiset, weyl_dimension, _simple_weight_multiset)
from charlattice.rootsys import (SimpleType, build_root_system, pairing, reflect_coords,
                                 root_weight, type_a_equal_rank)

from kostka_oracle import content_of, hook_content_dimension, kostka, partition_of
from weyl_character_oracle import check_weight_multiset, weyl_group_order, weyl_shifts

GOLDEN = Path(__file__).parent / "golden"


def algebra(name: str) -> SemisimpleAlgebra:
    return SemisimpleAlgebra.parse(name)


def char(name: str, hw) -> FormalCharacter:
    return irreducible_character(algebra(name), tuple(hw))


def negate_character(fc: FormalCharacter) -> FormalCharacter:
    """fc with every weight negated: the character of the dual."""
    return FormalCharacter.from_counts(
        fc.algebra, {tuple(-c for c in w): m for w, m in fc.weights})


# ---------------------------------------------------------------------------
# Dimensions.

def hook_content_dim(n_plus_1: int, partition: tuple[int, ...]) -> int:
    """Independent sl_{n+1} dimension via the hook content formula."""
    rows = [p for p in partition if p]
    num, den = 1, 1
    for i, row in enumerate(rows):
        for j in range(row):
            num *= n_plus_1 + j - i
            arm = row - j - 1
            leg = sum(1 for r in rows[i + 1:] if r > j)
            den *= arm + leg + 1
    return num // den


def partition_to_coords(n: int, partition: tuple[int, ...]) -> tuple[int, ...]:
    padded = list(partition) + [0] * (n + 1 - len(partition))
    return tuple(padded[i] - padded[i + 1] for i in range(n))


@pytest.mark.parametrize("n,partition", [
    (2, (1,)), (2, (2,)), (2, (1, 1)), (2, (2, 1)), (2, (3, 1)),
    (3, (1,)), (3, (2, 1)), (3, (2, 2)), (3, (1, 1, 1)), (3, (3, 2, 1)),
    (4, (2,)), (4, (1, 1)), (4, (2, 2, 1)), (4, (3, 1)),
    (5, (1, 1, 1)), (5, (2, 1, 1)),
])
def test_type_a_dimensions_match_hook_content(n, partition):
    alg = algebra(f"A{n}")
    coords = partition_to_coords(n, partition)
    dim = weyl_dimension(alg, HighestWeight.from_flat(alg, coords))
    assert dim == hook_content_dim(n + 1, partition)


def test_alternating_and_symmetric_power_dimensions():
    for n in range(1, 8):
        alg = algebra(f"A{n}")
        for a in range(1, n + 1):
            hw = tuple(1 if i == a - 1 else 0 for i in range(n))
            assert weyl_dimension(alg, HighestWeight.from_flat(alg, hw)) == \
                math.comb(n + 1, a)
        for a in range(1, 5):
            hw = tuple(a if i == 0 else 0 for i in range(n))
            assert weyl_dimension(alg, HighestWeight.from_flat(alg, hw)) == \
                math.comb(n + a, a)


def test_product_algebra_dimension_multiplies():
    alg = algebra("A2+B2")
    hw = HighestWeight.from_flat(alg, (1, 0, 0, 1))
    assert weyl_dimension(alg, hw) == 3 * 4


# ---------------------------------------------------------------------------
# Frozen small multisets.

def test_sl2_symmetric_powers():
    for a in range(6):
        fc = char("A1", (a,))
        assert fc.weights == tuple(((a - 2 * i,), 1) for i in range(a, -1, -1))


def test_sl3_adjoint_multiset():
    fc = char("A2", (1, 1))
    assert fc.size == 8
    assert fc.multiplicity((0, 0)) == 2
    roots = {(1, 1), (-1, 2), (2, -1), (-2, 1), (1, -2), (-1, -1)}
    assert {w for w, m in fc.weights if m == 1} == roots


def test_sl4_adjoint_zero_weight():
    fc = char("A3", (1, 0, 1))
    assert fc.size == 15
    assert fc.multiplicity((0, 0, 0)) == 3


def test_g2_adjoint_and_short_fundamental():
    adj = char("G2", (0, 1))
    assert adj.size == 14
    assert adj.multiplicity((0, 0)) == 2
    v7 = char("G2", (1, 0))
    assert v7.size == 7
    assert v7.multiplicity((0, 0)) == 1
    assert all(m == 1 for _, m in v7.weights)
    assert not all(m == 1 for _, m in adj.weights)


def test_b3_spin_multiset():
    fc = char("B3", (0, 0, 1))
    assert fc.size == 8
    assert all(m == 1 for _, m in fc.weights)
    assert fc == negate_character(fc)


def test_c3_primitive_fundamental():
    fc = char("C3", (0, 0, 1))
    assert fc.size == 14
    assert all(m == 1 for _, m in fc.weights)
    assert fc.multiplicity((0, 0, 0)) == 0


@pytest.mark.parametrize("name,hw", [
    ("A3", (1, 0, 1)), ("B2", (1, 1)), ("C3", (0, 1, 0)),
    ("D4", (0, 1, 0, 0)), ("G2", (0, 1)), ("A2+A1", (1, 1, 2)),
])
def test_multiset_invariants(name, hw):
    alg = algebra(name)
    fc = irreducible_character(alg, hw)
    assert fc.size == weyl_dimension(alg, HighestWeight.from_flat(alg, hw))
    # weights sum to zero with multiplicity
    total = [0] * alg.rank
    for w, m in fc.weights:
        for i, c in enumerate(w):
            total[i] += m * c
    assert all(t == 0 for t in total)
    # stability under every simple reflection of every factor
    offset = 0
    for rs in alg.root_systems():
        for i in range(rs.rank):
            reflected = {}
            for w, m in fc.weights:
                part = w[offset:offset + rs.rank]
                image = w[:offset] + reflect_coords(rs, part, i) + \
                    w[offset + rs.rank:]
                reflected[image] = reflected.get(image, 0) + m
            assert reflected == fc.counts()
        offset += rs.rank


def small_weights(stype: SimpleType, top: int, max_dim: int):
    """Dominant weights of stype with coordinate sum at most top and
    dimension at most max_dim, in lexicographic order."""
    alg = SemisimpleAlgebra((stype,))
    for hw in itertools.product(range(top + 1), repeat=stype.rank):
        if sum(hw) <= top and weyl_dimension(alg, HighestWeight((hw,))) <= max_dim:
            yield hw


GRID_TYPES = ("A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C3 C4 C5 D4 D5 D6 "
              "E6 E7 E8 F4 G2").split()


def weight_multiset_grid():
    """(type, weight) pairs of the pinned grid: coordinate sum at most 4 in
    rank 1 and 2, at most 2 above, dimension at most 30000."""
    for name in GRID_TYPES:
        st = SimpleType.parse(name)
        for hw in small_weights(st, 4 if st.rank <= 2 else 2, 30000):
            yield st, hw


def multiset_digest(stype: SimpleType, hw) -> str:
    return hashlib.sha256(repr(_simple_weight_multiset(stype, hw)).encode()).hexdigest()


def test_weight_multisets_match_golden_hashes():
    """The golden file was written by the earlier saturated root-string
    implementation; every (type, weight) of the grid must still hash the same."""
    golden = json.loads((GOLDEN / "weight_multisets.json").read_text(encoding="utf-8"))
    pairs = list(weight_multiset_grid())
    assert [(row["type"], tuple(row["weight"])) for row in golden] == \
        [(str(st), hw) for st, hw in pairs]
    for row, (st, hw) in zip(golden, pairs):
        assert multiset_digest(st, hw) == row["sha256"], (str(st), hw)


def test_weight_multisets_satisfy_the_weyl_character_formula():
    """Every grid multiset of a type whose Weyl group has at most 51,840
    elements, against the character formula; E7 and E8, with 2,903,040 and
    696,729,600 elements, keep the hashes."""
    checked = set()
    for st, hw in weight_multiset_grid():
        order = weyl_group_order(st.family, st.rank)
        if order > 51840:
            continue
        cartan = build_root_system(st).cartan_matrix
        if st not in checked:
            assert len(weyl_shifts(cartan)) == order, st
            checked.add(st)
        check_weight_multiset(cartan, hw, _simple_weight_multiset(st, hw))
    assert {str(st) for st in checked} == set(GRID_TYPES) - {"E7", "E8"}


@pytest.mark.parametrize("n", range(1, 7))
def test_type_a_multiplicities_match_kostka_numbers(n):
    st = SimpleType("A", n)
    for hw in small_weights(st, 3, 2000):
        lam = partition_of(hw)
        weights = _simple_weight_multiset(st, hw)
        for w, m in weights:
            content = content_of(w, sum(lam))
            assert content is not None and kostka(lam, content) == m, (hw, w)
        # every Kostka number is nonnegative, so a missed weight would leave
        # the total below the number of tableaux
        assert sum(m for _, m in weights) == hook_content_dimension(n + 1, lam), hw


@pytest.mark.parametrize("name", GRID_TYPES)
def test_root_datum_carries_root_weights_and_weyl_denominator(name):
    """Freudenthal reads each root's fundamental coordinates from the datum
    and the dimension formula its cached denominator; both against the
    pairings computed here from the Cartan matrix."""
    st = SimpleType.parse(name)
    rs = build_root_system(st)
    assert rs.root_weights == tuple(root_weight(rs, beta) for beta in rs.positive_roots)
    rho = (1,) * rs.rank
    assert reps._weyl_denominator(st) == math.prod(
        pairing(rs, rho, beta) for beta in rs.positive_roots)
    for beta, u in zip(rs.positive_roots, reps._scaled_roots(st)):
        for i in range(rs.rank):
            assert u[i] == pairing(rs, tuple(int(j == i) for j in range(rs.rank)), beta)


def test_a1_string_sums_reach_the_dimension_bound():
    """A1 (99999), the largest weight the dimension bound admits, has the
    weights k, k - 2, ..., -k once each; memoized string sums make it linear
    in k (Freudenthal's strings walked afresh from each weight took about
    an hour)."""
    k = 99_999
    start = time.monotonic()
    weights = _simple_weight_multiset.__wrapped__(SimpleType("A", 1), (k,))
    assert time.monotonic() - start < 10
    assert weights == tuple(((w,), 1) for w in range(-k, k + 1, 2))


@pytest.mark.parametrize("name,hw", [
    ("A2", (12, 9)), ("A3", (3, 2, 3)), ("B2", (7, 4)), ("C3", (3, 1, 2)),
    ("D4", (2, 1, 0, 1)), ("F4", (1, 0, 0, 1)), ("G2", (6, 5)),
])
def test_multiplicities_past_the_grid_satisfy_the_weyl_character_formula(name, hw):
    """Weights whose strings cross many others, with multiplicities up to
    412 (G2 (6, 5)), beyond the pinned grid's coordinate sums."""
    st = SimpleType.parse(name)
    check_weight_multiset(build_root_system(st).cartan_matrix, hw,
                          _simple_weight_multiset(st, hw))


def test_dimension_bound_enforced():
    with pytest.raises(DimensionBoundError):
        irreducible_character(algebra("A7"), (3, 3, 3, 3, 3, 3, 3))
    # explicit larger bound admits a character the default would accept anyway
    fc = irreducible_character(algebra("A2"), (3, 3), dim_bound=100)
    assert fc.size == 64


def product_by_counts(alg: SemisimpleAlgebra, hw: HighestWeight) -> FormalCharacter:
    """The character of hw built by tallying the product of each factor's
    own one-factor weight_multiset, whatever order the pairs come in."""
    counts = {(): 1}
    for st, coords in zip(alg.factors, hw.by_factor):
        factor = weight_multiset(SemisimpleAlgebra((st,)), HighestWeight((coords,)))
        tally: dict = {}
        for w, m in counts.items():
            for v, n in factor.weights:
                tally[w + v] = tally.get(w + v, 0) + m * n
        counts = tally
    return FormalCharacter.from_counts(alg, counts)


@pytest.mark.parametrize("name,dmax", [
    ("A1+A2", 150), ("A2+G2", 300), ("B2+A1+A1", 150), ("A1+A2+A3", 150)])
def test_product_of_factors_is_sorted_and_distinct(name, dmax):
    """weight_multiset takes the product of its factors' sorted pairs in
    order, without tallying; it is the tallied product, pair for pair, on
    every irreducible up to dmax, weights of multiplicity above 1 (the G2
    and B2 adjoints among them) included."""
    alg = algebra(name)
    repeated = 0
    for hw, _ in enumerate_irreps_up_to_dim(alg, dmax):
        fc = weight_multiset(alg, hw)
        assert fc.weights == product_by_counts(alg, hw).weights, hw
        repeated += any(m > 1 for _, m in fc.weights)
    assert repeated > 0


def test_weight_multiset_checks_the_weyl_dimension(monkeypatch):
    true_dimension = reps._factor_dimension
    monkeypatch.setattr(reps, "_factor_dimension",
                        lambda stype, hw: true_dimension(stype, hw) + 1)
    with pytest.raises(AssertionError, match="!= dimension"):
        weight_multiset(algebra("A1+A2"), HighestWeight(((1,), (1, 0))))


# ---------------------------------------------------------------------------
# Duality and sums.

def test_dual_highest_weights():
    a3 = algebra("A3")
    std = HighestWeight.from_flat(a3, (1, 0, 0))
    assert dual_highest_weight(a3, std).flat() == (0, 0, 1)
    d5 = algebra("D5")
    hs = HighestWeight.from_flat(d5, (0, 0, 0, 1, 0))
    assert dual_highest_weight(d5, hs).flat() == (0, 0, 0, 0, 1)
    d4 = algebra("D4")
    hs4 = HighestWeight.from_flat(d4, (0, 0, 1, 0))
    assert dual_highest_weight(d4, hs4).flat() == (0, 0, 1, 0)


def test_dual_character_is_negation():
    fc = char("A2", (2, 1))
    alg = algebra("A2")
    dual_hw = dual_highest_weight(alg, HighestWeight.from_flat(alg, (2, 1)))
    assert irreducible_character(alg, dual_hw.flat()) == negate_character(fc)


def test_direct_sum_and_trivial():
    a2 = algebra("A2")
    s = direct_sum(char("A2", (1, 0)), char("A2", (0, 1)), trivial_character(a2))
    assert s.size == 7
    assert s.multiplicity((0, 0)) == 1
    assert s == negate_character(s)
    std = char("A2", (1, 0))
    assert std != negate_character(std)


# ---------------------------------------------------------------------------
# Catalog and enumeration.

def test_catalog_frozen_examples():
    c3 = {(e.hw, e.dim) for e in multiplicity_free_catalog(SimpleType.parse("C3"))}
    assert c3 == {((1, 0, 0), 6), ((0, 0, 1), 14)}

    d5 = {(e.hw, e.dim) for e in multiplicity_free_catalog(SimpleType.parse("D5"))}
    assert d5 == {((1, 0, 0, 0, 0), 10), ((0, 0, 0, 1, 0), 16),
                  ((0, 0, 0, 0, 1), 16)}

    e6 = {(e.hw, e.dim) for e in multiplicity_free_catalog(SimpleType.parse("E6"))}
    assert e6 == {((1, 0, 0, 0, 0, 0), 27), ((0, 0, 0, 0, 0, 1), 27)}

    assert multiplicity_free_catalog(SimpleType.parse("E8")) == ()
    assert multiplicity_free_catalog(SimpleType.parse("F4")) == ()

    b4 = {(e.hw, e.dim) for e in multiplicity_free_catalog(SimpleType.parse("B4"))}
    assert b4 == {((1, 0, 0, 0), 9), ((0, 0, 0, 1), 16)}


def test_catalog_type_a_needs_bound():
    with pytest.raises(ValueError):
        multiplicity_free_catalog(SimpleType.parse("A3"))
    entries = multiplicity_free_catalog(SimpleType.parse("A3"), max_dim=20)
    seen = {(e.hw, e.dim, e.label) for e in entries}
    assert ((1, 0, 0), 4, "std") in seen
    assert ((0, 1, 0), 6, "alt^2(std)") in seen
    assert ((0, 0, 1), 4, "std*") in seen
    assert ((2, 0, 0), 10, "sym^2(std)") in seen
    assert ((0, 0, 3), 20, "sym^3(std*)") in seen
    assert all(e.dim <= 20 for e in entries)


def test_catalog_entries_expand_multiplicity_free():
    for name in ("A4", "B3", "C3", "D4", "G2"):
        st = SimpleType.parse(name)
        alg = SemisimpleAlgebra((st,))
        for entry in multiplicity_free_catalog(st, max_dim=60):
            fc = irreducible_character(alg, entry.hw)
            assert all(m == 1 for _, m in fc.weights), (name, entry)


def test_enumerate_irreps_frozen_a2():
    alg = algebra("A2")
    got = [(hw.flat(), d) for hw, d in enumerate_irreps_up_to_dim(alg, 10)]
    assert got == [
        ((0, 0), 1), ((0, 1), 3), ((1, 0), 3), ((0, 2), 6), ((2, 0), 6),
        ((1, 1), 8), ((0, 3), 10), ((3, 0), 10),
    ]


def test_enumerate_irreps_product_budget():
    alg = algebra("A1+A1")
    got = {(hw.flat(), d) for hw, d in enumerate_irreps_up_to_dim(alg, 4)}
    assert got == {
        ((0, 0), 1), ((1, 0), 2), ((0, 1), 2), ((2, 0), 3), ((0, 2), 3),
        ((3, 0), 4), ((0, 3), 4), ((1, 1), 4),
    }


# ---------------------------------------------------------------------------
# Restriction.

def test_b3_standard_restricts_to_a3():
    sub = type_a_equal_rank(SimpleType.parse("B3"))
    assert tuple(str(t) for t in sub.component_types) == ("A3",)
    fc = char("B3", (1, 0, 0))
    restricted = restrict_to_subsystem(fc, sub)
    a3 = algebra("A3")
    expected = direct_sum(irreducible_character(a3, (0, 1, 0)),
                          trivial_character(a3))
    assert restricted == expected
