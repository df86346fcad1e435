"""Sumset factorization of multisets over f.g. abelian groups.

The factorization search is row-peeling with backtracking, so the oracle here
takes the opposite route: for each candidate right factor B it intersects the
translated difference sets {c - b : c in C} over b in B (each set built once
per element b of C) and scans the whole candidate pool for left factors.  Its
group arithmetic and its dedup keys come from tests/factor_reference.py, so
it shares no computation with the search.
"""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlattice import abmultiset
from charlattice.abmultiset import (AbGroup, Decomposition, GroupMultiset, _Packing,
                                    factorization_count_bound, factorizations,
                                    multiset_product)
from charlattice.reps import SemisimpleAlgebra, irreducible_character

from factor_reference import (_sub_multisets as reference_sub_multisets, add, neg,
                              reference_canonical_form, reference_factorizations,
                              reference_key, sub, translate)

Z2 = AbGroup(torsion=1, free_rank=2)
Z1 = AbGroup(torsion=1, free_rank=1)


def mset(group, pairs):
    return GroupMultiset.from_iterable(group, [group.element(t, f) for t, f in pairs])


def plane(points):
    return GroupMultiset.from_iterable(Z2, [Z2.element(0, p) for p in points])


def packed_canonical_form(a, radius=None):
    """The library's canonical form of a, computed on the codes of a packing
    of the given radius (by default the largest |coordinate| of a)."""
    if radius is None:
        radius = max((abs(x) for e, _ in a.elems for x in e[1]), default=0)
    pk = _Packing(a.group, radius)
    return pk.decode(abmultiset._canonical_codes(pk, [(pk.pack(e), m) for e, m in a.elems]))


# ---------------------------------------------------------------------------
# Oracle: intersection-of-difference-sets search for binary factorizations.

def brute_binary(c: GroupMultiset, a_size: int, b_size: int):
    """Every (A, B) with A + B == C, found by scanning candidate pools."""
    g = c.group
    c_counts = dict(c.elems)
    c_elems = list(c_counts)
    shifted = {b0: frozenset(sub(g.torsion, ce, b0) for ce in c_elems) for b0 in c_elems}
    out = []

    def sub_multisets(size):
        items = list(c_counts.items())

        def grow(idx, left, acc):
            if left == 0:
                yield dict(acc)
                return
            if idx == len(items):
                return
            e, m = items[idx]
            for take in range(min(m, left), -1, -1):
                if take:
                    acc[e] = take
                yield from grow(idx + 1, left - take, acc)
                acc.pop(e, None)

        yield from grow(0, size, {})

    for b_counts in sub_multisets(b_size):
        pool = frozenset.intersection(*(shifted[b0] for b0 in b_counts))
        for a_tuple in itertools.combinations_with_replacement(sorted(pool), a_size):
            prod = {}
            for a0 in a_tuple:
                for b0, m in b_counts.items():
                    s = add(g.torsion, a0, b0)
                    prod[s] = prod.get(s, 0) + m
            if prod == c_counts:
                out.append((GroupMultiset.from_iterable(g, a_tuple),
                            GroupMultiset.from_counts(g, b_counts)))
    return out


def dedup_keys(pairs):
    return {reference_key(Decomposition(factors=(a, b))) for a, b in pairs}


# ---------------------------------------------------------------------------
# Elementary operations.

def test_group_arithmetic_with_torsion():
    g = AbGroup(torsion=6, free_rank=1)
    x = g.element(5, (2,))
    y = g.element(3, (-1,))
    assert g.add(x, y) == (2, (1,))
    assert g.element(-1, (2,)) == x


def test_translate_and_equivalence():
    a = plane([(0, 0), (1, 0), (0, 1)])
    b = translate(a, Z2.element(0, (3, -2)))
    assert b == plane([(3, -2), (4, -2), (3, -1)])
    assert packed_canonical_form(a) == packed_canonical_form(b)
    assert packed_canonical_form(a) != packed_canonical_form(plane([(0, 0), (2, 0), (0, 1)]))


def test_canonical_form_translation_invariant():
    a = plane([(1, 1), (2, 1), (1, 2), (2, 2)])
    b = translate(a, Z2.element(0, (-7, 4)))
    assert packed_canonical_form(a) == packed_canonical_form(b)
    zero_based = dict(packed_canonical_form(a))
    assert (0, (0, 0)) in zero_based


def test_product_sizes_and_commutes():
    a = plane([(0, 0), (1, 0)])
    b = plane([(0, 0), (0, 1), (0, 2)])
    p = multiset_product(a, b)
    assert p.size == 6
    assert p == multiset_product(b, a)


# ---------------------------------------------------------------------------
# Factorizations against the oracle.

def test_grid_has_unique_factorization():
    grid = plane([(x, y) for x in range(2) for y in range(3)])
    decs = factorizations(grid, (2, 3))
    assert len(decs) == 1
    assert decs[0].product() == grid
    assert dedup_keys(brute_binary(grid, 2, 3)) == {reference_key(decs[0])}


def test_interval_splits_two_ways():
    # {0..3} = {0,1}+{0,2} = {0,2}+{0,1}; with collisions {0,1}+{0,1} fails
    line = mset(Z1, [(0, (i,)) for i in range(4)])
    decs = factorizations(line, (2, 2))
    assert len(decs) == 1  # the two orderings collapse to one class
    keys = dedup_keys(brute_binary(line, 2, 2))
    assert keys == {reference_key(d) for d in decs}


def test_square_with_multiplicity():
    # (1+x)^2 (1+y)^2 expanded: the 3x3 grid with binomial multiplicities
    pts = []
    for x in range(3):
        for y in range(3):
            mult = [1, 2, 1][x] * [1, 2, 1][y]
            pts.extend([(x, y)] * mult)
    sq = plane(pts)
    assert sq.size == 16
    decs = factorizations(sq, (4, 4))
    keys = dedup_keys(brute_binary(sq, 4, 4))
    assert {reference_key(d) for d in decs} == keys
    for d in decs:
        assert d.product() == sq


def test_profile_validation():
    grid = plane([(x, y) for x in range(2) for y in range(3)])
    with pytest.raises(ValueError):
        factorizations(grid, (2, 2))
    with pytest.raises(ValueError):
        factorizations(grid, (6, 1))
    whole = factorizations(grid, (6,))
    assert len(whole) == 1 and whole[0].factors[0] == grid
    for c in (grid, plane([(0, 0)])):
        with pytest.raises(ValueError, match="at least one factor size"):
            factorizations(c, ())


def test_from_counts_rejects_non_elements():
    """A torsion part outside [0, m) once gave silently wrong factorizations:
    with 7 for 2 below, profile (2, 2) found none instead of one."""
    group = AbGroup(5, 1)
    good = GroupMultiset.from_counts(group, {(2, (1,)): 2, (4, (2,)): 1, (0, (0,)): 1})
    assert len(factorizations(good, (2, 2))) == 1
    for bad in ({(7, (1,)): 2, (4, (2,)): 1, (0, (0,)): 1},
                {(-1, (1,)): 1}, {(0, (1, 2)): 1}, {(0, ()): 1}):
        elem = next(iter(bad))
        with pytest.raises(ValueError, match=re.escape(str(elem))):
            GroupMultiset.from_counts(group, bad)


def test_count_bound_trivia():
    assert factorization_count_bound(2, 2) == 6
    assert factorization_count_bound(2, 3) == 60
    grid = plane([(x, y) for x in range(2) for y in range(3)])
    assert len(factorizations(grid, (2, 3))) <= factorization_count_bound(2, 3)


def random_product(rng, g, sizes, low=-3, high=3):
    factors = []
    for s in sizes:
        pts = [g.element(0, (rng.randint(low, high), rng.randint(low, high)))
               for _ in range(s)]
        factors.append(GroupMultiset.from_iterable(g, pts))
    prod = factors[0]
    for f in factors[1:]:
        prod = multiset_product(prod, f)
    return factors, prod


@pytest.mark.parametrize("seed", range(12))
def test_random_products_match_oracle(seed):
    rng = random.Random(seed)
    a, b = rng.choice([(2, 2), (2, 3), (3, 3), (2, 4)])
    factors, prod = random_product(rng, Z2, (a, b))
    decs = factorizations(prod, (a, b))
    keys = dedup_keys(brute_binary(prod, a, b))
    assert {reference_key(d) for d in decs} == keys
    planted = reference_key(Decomposition(factors=tuple(factors)))
    assert planted in keys
    for d in decs:
        assert d.product() == prod
        assert d.sizes == (a, b)


def test_three_factor_recursion():
    factors, prod = random_product(random.Random(7), Z2, (2, 2, 2))
    decs = factorizations(prod, (2, 2, 2))
    assert decs
    planted = reference_key(Decomposition(factors=tuple(factors)))
    assert planted in {reference_key(d) for d in decs}
    for d in decs:
        assert d.product() == prod


# ---------------------------------------------------------------------------
# Hypothesis properties.

coord = st.integers(-4, 4)
point = st.tuples(coord, coord)


@settings(max_examples=60, deadline=None)
@given(pa=st.lists(point, min_size=1, max_size=4),
       pb=st.lists(point, min_size=1, max_size=4))
def test_product_size_multiplies(pa, pb):
    a, b = plane(pa), plane(pb)
    assert multiset_product(a, b).size == a.size * b.size


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(point, min_size=1, max_size=5), shift=point)
def test_equivalence_under_translation(pts, shift):
    a = plane(pts)
    b = translate(a, Z2.element(0, shift))
    assert packed_canonical_form(a) == packed_canonical_form(b)


@settings(max_examples=30, deadline=None)
@given(pa=st.lists(point, min_size=2, max_size=3),
       pb=st.lists(point, min_size=2, max_size=3))
def test_planted_factorization_is_found(pa, pb):
    a, b = plane(pa), plane(pb)
    prod = multiset_product(a, b)
    decs = factorizations(prod, (a.size, b.size))
    planted = reference_key(Decomposition(factors=(a, b)))
    assert planted in {reference_key(d) for d in decs}


def elems_of(decs):
    return [[f.elems for f in d.factors] for d in decs]


@st.composite
def products(draw):
    """A product in Z, Z^2 or Z/m x Z^{0,1} with its factor sizes, or, in the
    wide class, in Z/m x Z^3 with coordinates up to +-10^6 of either sign,
    often at or next to 0 and the extremes, so that the search meets values
    at the edge of the packing's radix.

    With torsion, the first factor may be a whole subgroup of Z/m, so that
    one second factor admits several first factors."""
    torsion = draw(st.sampled_from([1, 2, 3, 4, 6]))
    if draw(st.booleans()):
        free_rank, spread = 3, 10**6
    else:
        free_rank, spread = draw(st.sampled_from([1, 2] if torsion == 1 else [0, 1])), 2
    group = AbGroup(torsion=torsion, free_rank=free_rank)
    shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
                                  (2, 5), (5, 2), (2, 6), (6, 2), (3, 4), (4, 3),
                                  (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]))
    coord = st.integers(-spread, spread)
    if spread > 2:
        coord = st.one_of(st.sampled_from([-spread, 1 - spread, -1, 0, 1, spread - 1, spread]),
                          coord)
    elem = st.builds(lambda t, f: group.element(t, f),
                     st.integers(0, torsion - 1),
                     st.tuples(*[coord] * free_rank))
    factors = [GroupMultiset.from_iterable(group, draw(st.lists(elem, min_size=s, max_size=s)))
               for s in shape]
    periods = [d for d in range(2, torsion + 1) if torsion % d == 0 and d in shape]
    if periods and draw(st.booleans()):
        d = draw(st.sampled_from(periods))
        sub = GroupMultiset.from_iterable(
            group, [group.element(k * (torsion // d), (0,) * group.free_rank)
                    for k in range(d)])
        factors[shape.index(d)] = sub
    prod = factors[0]
    for f in factors[1:]:
        prod = multiset_product(prod, f)
    return prod, shape


@settings(max_examples=250, deadline=None)
@given(case=products())
def test_factorizations_match_reference_search(case):
    prod, shape = case
    assert elems_of(factorizations(prod, shape)) == \
        elems_of(reference_factorizations(prod, shape))


@pytest.mark.parametrize("torsion,shape", [(4, (2, 4)), (4, (4, 2)), (6, (3, 4)),
                                           (6, (2, 6)), (6, (6, 2))])
def test_periodic_products_match_reference_search(torsion, shape):
    # Z/m x {0,1,2..} has many first factors per second factor.
    g = AbGroup(torsion=torsion, free_rank=1)
    rows = [g.element(t, (k,)) for t in range(torsion) for k in range(len(shape))]
    prod = GroupMultiset.from_iterable(g, rows * (shape[0] * shape[1] // len(rows)))
    decs = factorizations(prod, shape)
    assert len(decs) > 1
    assert elems_of(decs) == elems_of(reference_factorizations(prod, shape))


def coordinate_pair(data, h, sign):
    """(x, y) with x, y and x + sign*y all within +-h, edges drawn often."""
    edge = st.sampled_from([-h, h])
    x = data.draw(st.one_of(edge, st.integers(-h, h)))
    if sign > 0:
        lo, hi = max(-h, -h - x), min(h, h - x)
    else:
        lo, hi = max(-h, x - h), min(h, x + h)
    return x, data.draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)))


@settings(max_examples=300, deadline=None)
@given(torsion=st.sampled_from([1, 2, 3, 4, 6]), free_rank=st.integers(0, 3),
       radius=st.one_of(st.integers(0, 3), st.integers(0, 10**6)), data=st.data())
def test_packing_round_trip_order_and_arithmetic(torsion, free_rank, radius, data):
    # A factorization of elements within +-radius forms values within
    # +-4*radius (the canonical forms of its first factors); on all of them
    # the codes must decode, sort and add like the elements.
    g = AbGroup(torsion=torsion, free_rank=free_rank)
    pk = _Packing(g, radius)
    h = 4 * radius
    torsions = st.integers(0, torsion - 1)
    for sign, op, packed in ((1, add, lambda x, y: (x + y - pk.half) % pk.modulus),
                             (-1, sub, lambda x, y: (x - y + pk.half) % pk.modulus)):
        pairs = [coordinate_pair(data, h, sign) for _ in range(free_rank)]
        x = (data.draw(torsions), tuple(p[0] for p in pairs))
        y = (data.draw(torsions), tuple(p[1] for p in pairs))
        for e in (x, y):
            assert pk.unpack(pk.pack(e)) == e
        assert (pk.pack(x) < pk.pack(y)) == (x < y)
        assert (pk.pack(x) == pk.pack(y)) == (x == y)
        assert pk.unpack(packed(pk.pack(x), pk.pack(y))) == op(torsion, x, y)


@settings(max_examples=200, deadline=None)
@given(torsion=st.integers(1, 7), free_rank=st.integers(0, 2),
       radius=st.integers(0, 3), data=st.data())
def test_packed_canonical_form_matches_every_translate(torsion, free_rank, radius, data):
    # The search keys first factors by their packed canonical forms; a row
    # of a first factor lies within +-2*radius of a product within +-radius.
    g = AbGroup(torsion=torsion, free_rank=free_rank)
    pool = data.draw(st.lists(st.tuples(st.integers(0, torsion - 1),
                                        st.tuples(*[st.integers(-2 * radius, 2 * radius)]
                                                  * free_rank)),
                              min_size=1, max_size=4))
    a = GroupMultiset.from_iterable(g, data.draw(st.lists(st.sampled_from(pool),
                                                          max_size=8)))
    assert packed_canonical_form(a, radius) == reference_canonical_form(a)


@st.composite
def repeated_products(draw):
    """(c, a, b): a product of factors of sizes a and b drawn from a few
    elements of Z/m x Z^{1,2}, m = 1..7, so elements repeat in the factors and
    the product; sometimes one element of c is replaced, so c is rarely a
    product."""
    torsion = draw(st.integers(1, 7))
    group = AbGroup(torsion=torsion, free_rank=draw(st.integers(1, 2)))
    pool = draw(st.lists(st.builds(lambda t, f: group.element(t, f),
                                   st.integers(0, torsion - 1),
                                   st.tuples(*[st.integers(-2, 2)] * group.free_rank)),
                         min_size=1, max_size=4, unique=True))
    a, b = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
                                 (3, 4), (4, 3), (4, 4), (2, 6), (6, 2)]))
    factors = [draw(st.lists(st.sampled_from(pool), min_size=s, max_size=s)) for s in (a, b)]
    rows = [group.add(x, y) for x in factors[0] for y in factors[1]]
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(pool))
    return GroupMultiset.from_iterable(group, rows), a, b


def unpruned_pinned_pairs(pk, counts, order, a_size, b_size):
    """(rows, B) of every B through c0 in the reference sub-multiset order,
    each completed by `_completions`: the search without the capacity bound."""
    out = []
    for b_items in reference_sub_multisets([(x, counts[x]) for x in order], b_size):
        if b_items[0][0] == order[0]:
            out += [(rows, b_items)
                    for rows in abmultiset._completions(pk, counts, order, b_items, a_size)]
    return out


@settings(max_examples=200, deadline=None)
@given(case=repeated_products())
def test_capacity_pruning_keeps_every_pinned_pair_in_order(case):
    # The direct branch enumerates B of size b <= a, the swap branch the
    # smaller factor against the larger one's rows: both orders are checked.
    c, a, b = case
    pk = _Packing(c.group, max((abs(x) for e, _ in c.elems for x in e[1]), default=0))
    order = [pk.pack(e) for e, _ in c.elems]
    counts = {x: m for x, (_, m) in zip(order, c.elems)}
    for rows, size in ((a, b), (b, a)):
        pruned = [(list(r), list(items))
                  for r, items in abmultiset._pinned_pairs(pk, counts, order, rows, size)]
        assert pruned == unpruned_pinned_pairs(pk, counts, order, rows, size)
        assert counts == {x: m for x, (_, m) in zip(order, c.elems)}


# A planted 4 x 4 product in Z/5 x Z with distinct sums, and the same product
# with (3, 27) replaced by (4, -31).
PLANTED_4X4 = ([(2, (28,)), (1, (12,)), (3, (-17,)), (4, (-2,))],
               [(4, (38,)), (1, (-1,)), (1, (23,)), (2, (13,))])


@pytest.mark.parametrize("perturbed,calls,found", [(False, 10, 1), (True, 7, 0)])
def test_pinned_search_completes_few_of_the_455_candidates(monkeypatch, perturbed,
                                                           calls, found):
    # Without the capacity bound all C(15, 3) = 455 candidates through c0
    # are completed; the counts are deterministic, so a weaker bound fails
    # here without any timing.
    g = AbGroup(torsion=5, free_rank=1)
    left, right = (GroupMultiset.from_iterable(g, f) for f in PLANTED_4X4)
    counts = dict(multiset_product(left, right).elems)
    if perturbed:
        del counts[(3, (27,))]
        counts[(4, (-31,))] = 1
    completions = abmultiset._completions
    made = []

    def counted(*args):
        made.append(args)
        return completions(*args)

    monkeypatch.setattr(abmultiset, "_completions", counted)
    decs = factorizations(GroupMultiset.from_counts(g, counts), (4, 4))
    assert (len(made), len(decs)) == (calls, found)
    assert len(made) < 455 // 20
    if not perturbed:
        assert reference_key(decs[0]) == reference_key(Decomposition(factors=(left, right)))


# Three 2-element factors in Z/3 x Z with distinct sums, and three in Z^2.
# Factored as (2, 2, 2) the six orders of the first are one class; factored
# as (2, 4) the second is the larger factor, so the search enumerates the
# first (the swap branch), and any of the three may be the first.
PLANTED_2X2X2 = (3, 1, [[(0, (0,)), (1, (5,))], [(0, (0,)), (2, (17,))],
                        [(0, (0,)), (0, (40,))]])
PLANTED_2X2_2 = (1, 2, [[(0, (0, 0)), (0, (3, 1))], [(0, (0, 0)), (0, (1, 5))],
                        [(0, (0, 0)), (0, (-4, 2))]])


@pytest.mark.parametrize("planted,profile,found,unpacks",
                         [(PLANTED_2X2X2, (2, 2, 2), 1, 6), (PLANTED_2X2_2, (2, 4), 3, 18)])
def test_factorizations_pack_once_and_decode_only_kept_factors(monkeypatch, planted, profile,
                                                               found, unpacks):
    # The search, the recursion and the dedup keys run on the codes of one
    # packing, and only the factors of the kept decompositions are decoded.
    # The counts are deterministic, so a regression fails without timing.
    torsion, free_rank, factors = planted
    g = AbGroup(torsion=torsion, free_rank=free_rank)
    msets = [GroupMultiset.from_iterable(g, f) for f in factors]
    prod = msets[0]
    for f in msets[1:]:
        prod = multiset_product(prod, f)
    made, decoded = [], []
    init, unpack = _Packing.__init__, _Packing.unpack

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    def counted_unpack(self, x):
        decoded.append(x)
        return unpack(self, x)

    monkeypatch.setattr(_Packing, "__init__", counted_init)
    monkeypatch.setattr(_Packing, "unpack", counted_unpack)
    decs = factorizations(prod, profile)
    assert (len(made), len(decs), len(decoded)) == (1, found, unpacks)
    assert len(decoded) == sum(len(f.elems) for d in decs for f in d.factors)
    monkeypatch.undo()
    planted = msets if len(profile) == 3 else [msets[0], multiset_product(*msets[1:])]
    assert reference_key(Decomposition(factors=tuple(planted))) in {reference_key(d) for d in decs}


@pytest.mark.parametrize("profile", [(1100, 2), (2, 1100)])
def test_long_factor_needs_no_recursion(profile):
    # The search is iterative, so a factor longer than the recursion limit
    # is still found.  In Z^2 translation keeps the order, so each factor is
    # compared with the planted one after both are moved to start at 0.
    rng = random.Random(11)
    spread = GroupMultiset.from_iterable(
        Z2, [Z2.element(0, (rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)))
             for _ in range(1100)])
    pair = plane([(0, 0), (1, 7)])
    planted = (spread, pair) if profile[0] == 1100 else (pair, spread)
    decs = factorizations(multiset_product(spread, pair), profile)
    assert len(decs) == 1
    at_zero = [[translate(f, neg(1, f.elems[0][0])) for f in factors]
               for factors in (decs[0].factors, planted)]
    assert at_zero[0] == at_zero[1]


# ---------------------------------------------------------------------------
# Character weight multisets as sumsets.

def character_mset(fc):
    """The weight multiset of a character, in Z^rank."""
    group = AbGroup(torsion=1, free_rank=fc.algebra.rank)
    return GroupMultiset.from_counts(group, {(0, w): m for w, m in fc.weights})


def test_character_split_of_product_standard():
    alg = SemisimpleAlgebra.parse("A1+A1")
    fc = irreducible_character(alg, (1, 1))
    decs = factorizations(character_mset(fc), (2, 2))
    # the two axis orderings of the square are one unordered class
    assert len(decs) == 1
    forms = sorted(reference_canonical_form(f) for f in decs[0].factors)
    horiz = reference_canonical_form(plane([(0, 0), (2, 0)]))
    vert = reference_canonical_form(plane([(0, 0), (0, 2)]))
    assert forms == sorted([horiz, vert])


def test_character_split_of_sym3():
    fc = irreducible_character(SemisimpleAlgebra.parse("A1"), (3,))
    decs = factorizations(character_mset(fc), (2, 2))
    assert len(decs) == 1  # {0..3} on a line: single class up to translation
