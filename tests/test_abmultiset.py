"""Sumset factorization of multisets over f.g. abelian groups.

The factorization search is row-peeling with backtracking, so the oracle here
takes the opposite route: for each candidate right factor B it intersects the
translated difference sets {c - b : c in C} over b in B (each set built once
per element b of C) and scans the whole candidate pool for left factors.  The
two only have per-element arithmetic in common.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlattice.abmultiset import (AbGroup, Decomposition, GroupMultiset,
                                    canonical_form, factorization_count_bound,
                                    factorizations, multiset_product)
from charlattice.reps import SemisimpleAlgebra, irreducible_character

from factor_reference import reference_canonical_form, reference_factorizations

Z2 = AbGroup(torsion=1, free_rank=2)
Z1 = AbGroup(torsion=1, free_rank=1)


def mset(group, pairs):
    return GroupMultiset.from_iterable(group, [group.element(t, f) for t, f in pairs])


def plane(points):
    return GroupMultiset.from_iterable(Z2, [Z2.element(0, p) for p in points])


# ---------------------------------------------------------------------------
# Oracle: intersection-of-difference-sets search for binary factorizations.

def brute_binary(c: GroupMultiset, a_size: int, b_size: int):
    """Every (A, B) with A + B == C, found by scanning candidate pools."""
    g = c.group
    c_counts = c.counts()
    c_elems = list(c_counts)
    shifted = {b0: frozenset(g.sub(ce, b0) for ce in c_elems) for b0 in c_elems}
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
                    s = g.add(a0, b0)
                    prod[s] = prod.get(s, 0) + m
            if prod == c_counts:
                out.append((GroupMultiset.from_iterable(g, a_tuple),
                            GroupMultiset.from_counts(g, b_counts)))
    return out


def dedup_keys(pairs):
    return {Decomposition(factors=(a, b)).key() for a, b in pairs}


# ---------------------------------------------------------------------------
# Elementary operations.

def test_group_arithmetic_with_torsion():
    g = AbGroup(torsion=6, free_rank=1)
    x = g.element(5, (2,))
    y = g.element(3, (-1,))
    assert g.add(x, y) == (2, (1,))
    assert g.neg(x) == (1, (-2,))
    assert g.sub(x, x) == g.zero()


def test_translate_and_equivalence():
    a = plane([(0, 0), (1, 0), (0, 1)])
    b = a.translate(Z2.element(0, (3, -2)))
    assert b.counts() == plane([(3, -2), (4, -2), (3, -1)]).counts()
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(plane([(0, 0), (2, 0), (0, 1)]))


def test_canonical_form_translation_invariant():
    a = plane([(1, 1), (2, 1), (1, 2), (2, 2)])
    b = a.translate(Z2.element(0, (-7, 4)))
    assert canonical_form(a) == canonical_form(b)
    zero_based = dict(canonical_form(a))
    assert Z2.zero() in zero_based


def test_product_sizes_and_commutes():
    a = plane([(0, 0), (1, 0)])
    b = plane([(0, 0), (0, 1), (0, 2)])
    p = multiset_product(a, b)
    assert p.size == 6
    assert p.counts() == multiset_product(b, a).counts()


# ---------------------------------------------------------------------------
# Factorizations against the oracle.

def test_grid_has_unique_factorization():
    grid = plane([(x, y) for x in range(2) for y in range(3)])
    decs = factorizations(grid, (2, 3))
    assert len(decs) == 1
    assert decs[0].product().counts() == grid.counts()
    assert dedup_keys(brute_binary(grid, 2, 3)) == {decs[0].key()}


def test_interval_splits_two_ways():
    # {0..3} = {0,1}+{0,2} = {0,2}+{0,1}; with collisions {0,1}+{0,1} fails
    line = mset(Z1, [(0, (i,)) for i in range(4)])
    decs = factorizations(line, (2, 2))
    assert len(decs) == 1  # the two orderings collapse to one class
    keys = dedup_keys(brute_binary(line, 2, 2))
    assert keys == {d.key() for d in decs}


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
    assert {d.key() for d in decs} == keys
    for d in decs:
        assert d.product().counts() == sq.counts()


def test_profile_validation():
    grid = plane([(x, y) for x in range(2) for y in range(3)])
    with pytest.raises(ValueError):
        factorizations(grid, (2, 2))
    with pytest.raises(ValueError):
        factorizations(grid, (6, 1))
    whole = factorizations(grid, (6,))
    assert len(whole) == 1 and whole[0].factors[0].counts() == grid.counts()


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
    assert {d.key() for d in decs} == keys
    planted = Decomposition(factors=tuple(factors)).key()
    assert planted in keys
    for d in decs:
        assert d.product().counts() == prod.counts()
        assert d.sizes == (a, b)


def test_three_factor_recursion():
    factors, prod = random_product(random.Random(7), Z2, (2, 2, 2))
    decs = factorizations(prod, (2, 2, 2))
    assert decs
    planted = Decomposition(factors=tuple(factors)).key()
    assert planted in {d.key() for d in decs}
    for d in decs:
        assert d.product().counts() == prod.counts()


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
    b = a.translate(Z2.element(0, shift))
    assert canonical_form(a) == canonical_form(b)


@settings(max_examples=30, deadline=None)
@given(pa=st.lists(point, min_size=2, max_size=3),
       pb=st.lists(point, min_size=2, max_size=3))
def test_planted_factorization_is_found(pa, pb):
    a, b = plane(pa), plane(pb)
    prod = multiset_product(a, b)
    decs = factorizations(prod, (a.size, b.size))
    planted = Decomposition(factors=(a, b)).key()
    assert planted in {d.key() for d in decs}


def elems_of(decs):
    return [[f.elems for f in d.factors] for d in decs]


@st.composite
def products(draw):
    """A product in Z, Z^2 or Z/m x Z^{0,1} with its factor sizes.

    With torsion, the first factor may be a whole subgroup of Z/m, so that
    one second factor admits several first factors."""
    torsion = draw(st.sampled_from([1, 2, 3, 4, 6]))
    group = AbGroup(torsion=torsion,
                    free_rank=draw(st.sampled_from([1, 2] if torsion == 1 else [0, 1])))
    shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
                                  (2, 5), (5, 2), (2, 6), (6, 2), (3, 4), (4, 3),
                                  (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]))
    elem = st.builds(lambda t, f: group.element(t, f),
                     st.integers(0, torsion - 1),
                     st.tuples(*[st.integers(-2, 2)] * group.free_rank))
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


@settings(max_examples=150, deadline=None)
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


@settings(max_examples=200, deadline=None)
@given(torsion=st.sampled_from([1, 2, 3, 4, 6]), free_rank=st.integers(0, 2),
       data=st.data())
def test_canonical_form_matches_every_translate(torsion, free_rank, data):
    g = AbGroup(torsion=torsion, free_rank=free_rank)
    rows = data.draw(st.lists(st.tuples(st.integers(0, torsion - 1),
                                        st.tuples(*[st.integers(-2, 2)] * free_rank)),
                              max_size=7))
    a = GroupMultiset.from_iterable(g, rows)
    assert canonical_form(a) == reference_canonical_form(a)


@pytest.mark.parametrize("profile", [(1100, 2), (2, 1100)])
def test_long_factor_needs_no_recursion(profile):
    # The search is iterative, so a factor longer than the recursion limit
    # is still found.
    rng = random.Random(11)
    spread = GroupMultiset.from_iterable(
        Z2, [Z2.element(0, (rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)))
             for _ in range(1100)])
    pair = plane([(0, 0), (1, 7)])
    planted = (spread, pair) if profile[0] == 1100 else (pair, spread)
    decs = factorizations(multiset_product(spread, pair), profile)
    assert [d.key() for d in decs] == [Decomposition(factors=planted).key()]


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
    forms = sorted(canonical_form(f) for f in decs[0].factors)
    horiz = canonical_form(plane([(0, 0), (2, 0)]))
    vert = canonical_form(plane([(0, 0), (0, 2)]))
    assert forms == sorted([horiz, vert])


def test_character_split_of_sym3():
    fc = irreducible_character(SemisimpleAlgebra.parse("A1"), (3,))
    decs = factorizations(character_mset(fc), (2, 2))
    assert len(decs) == 1  # {0..3} on a line: single class up to translation
