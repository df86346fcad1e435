"""Induced forms, the weight-multiset matching search and the closed forms.

The alternating-power statistics get an independent oracle that builds every
subset weight explicitly and pairs them with the literal ambient form, sharing
nothing with the closed-form path; the closed-form norm is also checked on
every weight of each alternating power, under the Gram matrix of the ambient
fundamental weights from tests/ambient_oracle.py.  Witness matrices of the
matching search are pinned in tests/golden/samechar_witnesses.json, and its
answer is checked against a brute force over every bijection of distinct
weights, with its own Fraction elimination.
"""

import itertools
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_oracle import ambient_root_system, gram
from charlattice import charmatch, linalg
from charlattice.charmatch import (AltPowerStats, DegenerateFormError,
                                   NonCompatibleInvolutionError,
                                   alt_power_stats, char_inner_product,
                                   conjugation_sums, fixed_point_exists,
                                   max_norm_weights,
                                   same_formal_character)
from charlattice.linalg import dot, matvec
from charlattice.reps import (FormalCharacter, SemisimpleAlgebra, direct_sum,
                              irreducible_character, trivial_character)
from charlattice.rootsys import SimpleType
from test_linalg import reference_rref
from test_reps import GRID_TYPES, negate_character, weight_multiset_grid

GOLDEN = Path(__file__).parent / "golden"


def char(name: str, hw) -> FormalCharacter:
    return irreducible_character(SemisimpleAlgebra.parse(name), tuple(hw))


# ---------------------------------------------------------------------------
# Induced form.

def test_sl2_std_raw_form():
    form = char_inner_product(char("A1", (1,)))
    assert form == ((Q(1, 2),),)


def test_a1a1_product_std_raw_form():
    fc = char("A1+A1", (1, 1))
    form = char_inner_product(fc)
    assert form == ((Q(1, 4), Q(0)), (Q(0), Q(1, 4)))


def test_b2_vector_raw_form():
    form = char_inner_product(char("B2", (1, 0)))
    assert form == ((Q(1, 2), Q(1, 4)), (Q(1, 4), Q(1, 4)))


def test_degenerate_form_names_trivial_factor():
    alg = SemisimpleAlgebra.parse("A1+A2")
    fc = irreducible_character(alg, (1, 0, 0))
    with pytest.raises(DegenerateFormError, match="A2"):
        char_inner_product(fc)


# ---------------------------------------------------------------------------
# Canonical form.

def test_canonical_form_alt_power_norms():
    # every weight of the a-th alternating power of A_n has the closed-form norm
    for n in range(2, 6):
        form = gram(ambient_root_system(SimpleType("A", n)).fundamental_weights)
        for a in range(1, n + 1):
            want = Q(a * (n + 1 - a), n + 1)
            assert alt_power_stats(n, a).norm2 == want
            hw = tuple(1 if i == a - 1 else 0 for i in range(n))
            assert all(dot(w, matvec(form, w)) == want for w, _ in char(f"A{n}", hw).weights)


# ---------------------------------------------------------------------------
# Matching search.

def test_match_self_identity():
    fc = char("A2", (1, 1))
    witness = same_formal_character(fc, fc)
    assert witness is not None
    assert witness.matrix == ((Q(1), Q(0)), (Q(0), Q(1)))
    assert witness.validate()


def test_match_dual_by_negation():
    fc = char("A4", (1, 0, 0, 0))
    dual = negate_character(fc)
    witness = same_formal_character(fc, dual)
    assert witness is not None
    assert witness.validate()
    assert witness.apply((1, 0, 0, 0)) in dual.distinct()


def test_match_b2_vector_against_rank_two_square():
    alg = SemisimpleAlgebra.parse("A1+A1")
    square = direct_sum(irreducible_character(alg, (1, 0)),
                        irreducible_character(alg, (0, 1)),
                        trivial_character(alg))
    witness = same_formal_character(char("B2", (1, 0)), square)
    assert witness is not None
    assert witness.validate()


def test_match_g2_against_sl3_triple():
    g2 = char("G2", (1, 0))
    a2 = SemisimpleAlgebra.parse("A2")
    triple = direct_sum(irreducible_character(a2, (1, 0)),
                        irreducible_character(a2, (0, 1)),
                        trivial_character(a2))
    witness = same_formal_character(g2, triple)
    assert witness is not None
    assert witness.validate()


def test_match_rescaled_lattice():
    sym2 = char("A1", (2,))
    split = direct_sum(char("A1", (1,)), trivial_character(SemisimpleAlgebra.parse("A1")))
    witness = same_formal_character(sym2, split)
    assert witness is not None
    assert witness.matrix == ((Q(1, 2),),)
    assert witness.validate()


def test_match_trivial_characters_rank_zero_span():
    triv = trivial_character(SemisimpleAlgebra.parse("A3"))
    witness = same_formal_character(triv, triv)
    assert witness is not None
    assert witness.matrix == tuple(
        tuple(Q(int(i == j)) for j in range(3)) for i in range(3))


def golden_witness_pairs():
    """The character pairs whose witnesses samechar_witnesses.json pins."""
    a1 = SemisimpleAlgebra.parse("A1")
    a2 = SemisimpleAlgebra.parse("A2")
    yield "G2 (1,0) vs A2 std+dual+trivial", char("G2", (1, 0)), direct_sum(
        char("A2", (1, 0)), char("A2", (0, 1)), trivial_character(a2))
    a4 = char("A4", (1, 0, 0, 0))
    yield "A4 std vs its negation", a4, negate_character(a4)
    e7 = char("E7", (0, 0, 0, 0, 0, 0, 1))
    yield "E7 w7 vs its negation", e7, negate_character(e7)
    e8 = char("E8", (1, 0, 0, 0, 0, 0, 0, 0))
    yield "E8 w1 vs its negation", e8, negate_character(e8)
    # the span has rank 1, so both sides are completed by unit vectors
    yield "A1+A1 (1,0) vs (0,1)", char("A1+A1", (1, 0)), char("A1+A1", (0, 1))
    sym2 = [w[0] for w, _ in char("A1", (2,)).weights]
    yield "A2 {(x,0)} vs {(x,x)} over A1 sym2 weights", \
        FormalCharacter.from_counts(a2, {(x, 0): 1 for x in sym2}), \
        FormalCharacter.from_counts(a2, {(x, x): 1 for x in sym2})
    yield "A1 sym2 vs std+trivial", char("A1", (2,)), direct_sum(
        char("A1", (1,)), trivial_character(a1))


def test_match_witnesses_golden():
    want = json.loads((GOLDEN / "samechar_witnesses.json").read_text(encoding="utf-8"))
    got = {}
    for name, fc1, fc2 in golden_witness_pairs():
        witness = same_formal_character(fc1, fc2)
        assert witness is not None and witness.validate()
        got[name] = [[str(c) for c in row] for row in witness.matrix]
    assert got == want


def test_search_and_norms_stay_in_integers(monkeypatch):
    e7 = char("E7", (0, 0, 0, 0, 0, 0, 1))
    det, adj, coords, norms = charmatch._form(e7)
    assert len(adj) == 7 and type(det) is int and det > 0
    assert all(type(x) is int for rows in (adj, coords) for row in rows for x in row)
    assert all(type(x) is int and x > 0 for x in norms)
    # every dot product and form entry of the search, the witness check and
    # the norms is an int
    plain_dot, plain_entry = linalg.dot, charmatch._form_entry

    def int_dot(x, y):
        value = plain_dot(x, y)
        assert type(value) is int
        return value

    def int_entry(adj, x, y):
        value = plain_entry(adj, x, y)
        assert type(value) is int
        return value

    def no_fraction(*args):
        raise AssertionError("Fraction built inside the search")

    monkeypatch.setattr(linalg, "dot", int_dot)
    monkeypatch.setattr(charmatch, "_form_entry", int_entry)
    assert len(max_norm_weights(char("A3", (2, 0, 0))).weights) == 4
    # the search, the witness and its check build no Fraction at all
    monkeypatch.setattr(charmatch, "Fraction", no_fraction)
    witness = same_formal_character(e7, negate_character(e7))
    assert witness is not None and witness.validate()
    assert type(witness.den) is int and witness.den > 0
    assert all(type(x) is int for row in witness.scaled for x in row)
    monkeypatch.undo()
    want = json.loads((GOLDEN / "samechar_witnesses.json").read_text(encoding="utf-8"))
    assert [[str(c) for c in row] for row in witness.matrix] == want["E7 w7 vs its negation"]


def dense_moment_matrix(weighted, dim):
    return [[sum(m * v[i] * v[j] for v, m in weighted) for j in range(dim)] for i in range(dim)]


def dense_entry(adj, x, y):
    """x adj y over every coordinate."""
    return sum(a * sum(e * b for e, b in zip(row, y)) for a, row in zip(x, adj))


def test_sparse_form_matches_dense_products():
    """The moment matrix, the norms and every Gram entry among the search's
    basis weights, summed over nonzero coordinates, equal the dense sums:
    on the weight-multiset grid characters of at most 1000 distinct weights
    (285 of 324, every grid type; the whole grid takes about 5 s) and on a
    character of A1+A3 whose weights span a plane of the A3 factor."""
    chars = [fc for fc in (irreducible_character(SemisimpleAlgebra.parse(str(st)), hw)
                           for st, hw in weight_multiset_grid()) if len(fc.weights) <= 1000]
    assert len(chars) == 285
    assert {str(fc.algebra) for fc in chars} == set(GRID_TYPES)
    plane = FormalCharacter.from_counts(SemisimpleAlgebra.parse("A1+A3"), {
        (0, 1, 1, 0): 2, (0, -1, -1, 0): 2, (0, 0, 1, 1): 1, (0, 0, -1, -1): 1, (0, 0, 0, 0): 3})
    for fc in chars + [plane]:
        rank = fc.algebra.rank
        assert charmatch._moment_matrix(fc.weights, rank) == dense_moment_matrix(fc.weights, rank)
        det, adj, coords, norms = charmatch._form(fc)
        assert norms == [dense_entry(adj, c, c) for c in coords]
        order = sorted(range(len(coords)), key=lambda i: (norms[i], fc.weights[i][0]))
        picked = charmatch._basis([fc.weights[i][0] for i in order], rank)[0]
        basis = [coords[order[p]] for p in picked]
        assert len(basis) == len(adj)
        assert all(charmatch._form_entry(adj, x, y) == dense_entry(adj, x, y)
                   for x in basis for y in basis)
    assert len(charmatch._form(plane)[1]) == 2
    with pytest.raises(DegenerateFormError):
        max_norm_weights(plane)


@pytest.mark.parametrize("name,hw,work", [
    ("E6", (1, 0, 0, 0, 0, 1), 6503),  # 343 distinct weights of rank 6
    ("A1", (1200,), 4802),  # 1201 distinct weights of rank 1
])
def test_match_work_is_linear_in_the_distinct_weights(monkeypatch, name, hw, work):
    """The dot products and form entries of a match against the negation,
    norms and witness check included: O(n r) for n distinct weights of
    rank r, no n x n matrix."""
    fc = char(name, hw)
    dual = negate_character(fc)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "dot", counted(linalg.dot))
    monkeypatch.setattr(charmatch, "_form_entry", counted(charmatch._form_entry))
    witness = same_formal_character(fc, dual)
    assert witness is not None and len(calls) == work


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_match_keeps_its_own_stack():
    # 301 distinct weights: a search that recursed once per weight would overflow
    fc = char("A1", (300,))
    dual = negate_character(fc)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        witness = same_formal_character(fc, dual)
        assert witness is not None and witness.validate()
    finally:
        sys.setrecursionlimit(limit)


def test_match_across_factor_order():
    fc1 = char("A1+A2", (1, 1, 0))
    fc2 = char("A2+A1", (1, 0, 1))
    witness = same_formal_character(fc1, fc2)
    assert witness is not None
    assert witness.validate()


def test_match_rejects_size_mismatch():
    assert same_formal_character(char("A1", (1,)), char("A1", (2,))) is None


def test_match_rejects_multiplicity_profile():
    alg = SemisimpleAlgebra.parse("A1")
    fc1 = FormalCharacter.from_counts(alg, {(0,): 3, (2,): 1})
    fc2 = FormalCharacter.from_counts(alg, {(0,): 2, (2,): 2})
    assert fc1.size == fc2.size and len(fc1.distinct()) == len(fc2.distinct())
    assert same_formal_character(fc1, fc2) is None


def test_match_rejects_norm_profile():
    alg = SemisimpleAlgebra.parse("A1")
    fc1 = FormalCharacter.from_counts(alg, {(-2,): 1, (-1,): 1, (1,): 1, (2,): 1})
    fc2 = FormalCharacter.from_counts(alg, {(-3,): 1, (-1,): 1, (1,): 1, (3,): 1})
    assert same_formal_character(fc1, fc2) is None


def test_match_rejects_non_isometric_multiset():
    std3 = char("A2", (1, 0))
    sum3 = direct_sum(char("A1", (1,)), trivial_character(SemisimpleAlgebra.parse("A1")))
    # pad the A1 sum into rank 2 so only geometry can separate them
    alg2 = SemisimpleAlgebra.parse("A1+A1")
    lifted = FormalCharacter.from_counts(
        alg2, {(w[0], 0): m for w, m in sum3.weights})
    assert std3.size == lifted.size == 3
    assert same_formal_character(std3, lifted) is None


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 3), b=st.integers(0, 3),
       flip=st.booleans(), swap=st.booleans())
def test_match_survives_negation_and_factor_swap(a, b, flip, swap):
    fc = char("A1+A1", (a, b))
    counts = {}
    for w, m in fc.weights:
        x, y = (-w[0], -w[1]) if flip else w
        if swap:
            x, y = y, x
        counts[(x, y)] = counts.get((x, y), 0) + m
    other = FormalCharacter.from_counts(fc.algebra, counts)
    witness = same_formal_character(fc, other)
    assert witness is not None
    assert witness.validate()


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 3), b=st.integers(0, 2))
def test_match_survives_unimodular_shear(a, b):
    fc = char("A2", (a, b))
    counts = {}
    for (x, y), m in fc.weights:
        counts[(x + y, y)] = counts.get((x + y, y), 0) + m
    sheared = FormalCharacter.from_counts(fc.algebra, counts)
    witness = same_formal_character(fc, sheared)
    assert witness is not None
    assert witness.validate()


def _oracle_rank(rows) -> int:
    return len(reference_rref(rows)[1])


def brute_force_match(fc1: FormalCharacter, fc2: FormalCharacter) -> bool:
    """Whether some multiplicity-preserving bijection of the distinct weights
    is the restriction of an invertible linear map, over every bijection."""
    if len(fc1.weights) != len(fc2.weights):
        return False
    sources = fc1.distinct()
    span = _oracle_rank(sources)
    for image in itertools.permutations(fc2.weights):
        if any(m != n for (_, m), (_, n) in zip(fc1.weights, image)):
            continue
        targets = [w for w, _ in image]
        # a linear map carries each source to its target exactly when the
        # targets add no rank to the sources, and it is injective on their
        # span exactly when the targets have the same rank
        if (_oracle_rank(targets) == span
                and _oracle_rank([s + t for s, t in zip(sources, targets)]) == span):
            return True
    return False


@st.composite
def character_pairs(draw):
    """Small weight multisets: the second is random, or the image of the
    first under a random unimodular map, possibly perturbed at one weight."""
    rank = draw(st.integers(1, 3))
    alg = SemisimpleAlgebra.parse(f"A{rank}")
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    size = draw(st.integers(1, min(6, 5 ** rank)))
    multisets = st.dictionaries(weight, st.integers(1, 2), min_size=size, max_size=size)
    first = draw(multisets)
    kind = draw(st.sampled_from(["random", "planted", "perturbed"]))
    if kind == "random":
        return FormalCharacter.from_counts(alg, first), \
            FormalCharacter.from_counts(alg, draw(multisets))
    shears = draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1),
                                      st.integers(-2, 2)), max_size=3))
    perm = draw(st.permutations(range(rank)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))

    def unimodular(w):
        w = list(w)
        for i, j, c in shears:
            if i != j:
                w[i] += c * w[j]
        return tuple(s * w[k] for s, k in zip(signs, perm))

    second = {unimodular(w): m for w, m in first.items()}
    if kind == "perturbed":
        w = draw(st.sampled_from(sorted(second)))
        m = second.pop(w)
        k = draw(st.integers(0, rank - 1))
        moved = w[:k] + (w[k] + draw(st.sampled_from([1, -1])),) + w[k + 1:]
        second[moved] = second.get(moved, 0) + m + draw(st.integers(0, 1))
    return FormalCharacter.from_counts(alg, first), FormalCharacter.from_counts(alg, second)


@settings(max_examples=150, deadline=None)
@given(character_pairs())
def test_match_agrees_with_brute_force_bijections(pair):
    fc1, fc2 = pair
    witness = same_formal_character(fc1, fc2)
    assert (witness is not None) == brute_force_match(fc1, fc2)
    if witness is not None:
        assert witness.validate()


# ---------------------------------------------------------------------------
# The invariants checked before any Gram data, and the match-data memo.

@st.composite
def characters_and_unimodular_maps(draw):
    """A small weight multiset, often with the zero weight and with some
    weights next to their negatives, and a random unimodular matrix: a
    product of shears, a permutation and signs."""
    rank = draw(st.integers(1, 4))
    weight = st.tuples(*[st.integers(-3, 3)] * rank)
    counts = draw(st.dictionaries(weight, st.integers(1, 3), min_size=1, max_size=8))
    for w in draw(st.lists(st.sampled_from(sorted(counts)), max_size=4)):
        counts[tuple(-c for c in w)] = draw(st.integers(1, 3))
    u = [list(row) for row in linalg.identity(rank)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1),
                                           st.integers(-3, 3)), max_size=6)):
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    perm = draw(st.permutations(range(rank)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))
    u = tuple(tuple(s * x for x in u[k]) for s, k in zip(signs, perm))
    assert abs(reference_det(u)) == 1
    return FormalCharacter.from_counts(SemisimpleAlgebra.parse(f"A{rank}"), counts), u


def reference_det(m) -> int:
    """Determinant by permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@settings(max_examples=200, deadline=None)
@given(characters_and_unimodular_maps())
def test_invariants_survive_unimodular_maps(pair):
    fc, u = pair
    image = FormalCharacter.from_counts(fc.algebra, {matvec(u, w): m for w, m in fc.weights})
    assert charmatch._invariants(image.weights) == charmatch._invariants(fc.weights)
    witness = same_formal_character(fc, image)
    assert witness is not None and witness.validate()


# ---------------------------------------------------------------------------
# Alternating-power statistics against a literal subset oracle.

def brute_alt_stats(n: int, a: int) -> AltPowerStats:
    gram = [[Q(n, n + 1) if i == j else Q(-1, n + 1) for j in range(n + 1)]
            for i in range(n + 1)]
    subsets = list(itertools.combinations(range(n + 1), a))

    def pair(s, t):
        return sum((gram[i][j] for i in s for j in t), Q(0))

    norms = {pair(s, s) for s in subsets}
    assert len(norms) == 1
    ips = [pair(s, t) for s, t in itertools.combinations(subsets, 2)]
    return AltPowerStats(n=n, a=a, norm2=norms.pop(),
                         max_ip=max(ips), min_ip=min(ips))


@pytest.mark.parametrize("n", range(2, 7))
def test_alt_power_stats_against_subset_oracle(n):
    for a in range(1, n + 1):
        assert alt_power_stats(n, a) == brute_alt_stats(n, a)


def test_alt_power_stats_rejects_bad_degree():
    with pytest.raises(ValueError):
        alt_power_stats(4, 0)
    with pytest.raises(ValueError):
        alt_power_stats(4, 5)


# ---------------------------------------------------------------------------
# Max-norm weights.

def test_max_norm_sym_power():
    rec = max_norm_weights(char("A3", (2, 0, 0)))
    assert len(rec.weights) == 4  # rank + 1, exactly the orbit of 2e_i
    assert rec.spans and rec.bound_ok
    assert (2, 0, 0) in rec.weights


def test_max_norm_adjoint_sl3():
    rec = max_norm_weights(char("A2", (1, 1)))
    assert len(rec.weights) == 6
    assert rec.spans and rec.bound_ok


def test_max_norm_nonspanning():
    alg = SemisimpleAlgebra.parse("A1+A1")
    fc = FormalCharacter.from_counts(
        alg, {(1, 0): 2, (-1, 0): 2, (0, 1): 1, (0, -1): 1})
    rec = max_norm_weights(fc)
    assert set(rec.weights) == {(0, 1), (0, -1)}
    assert not rec.spans
    assert rec.bound_ok  # vacuous when the top-norm weights do not span


# ---------------------------------------------------------------------------
# Conjugation sums and fixed points.

def test_conjugation_sums_identity_doubles():
    fc = char("A1", (2,))
    sums = conjugation_sums(fc, (0,))
    assert sums.counts() == {(-4,): 1, (0,): 1, (4,): 1}


def test_conjugation_sums_under_the_a2_flip():
    fc = char("A2", (1, 0))  # the flip carries Std onto its negation
    sums = conjugation_sums(fc, (1, 0))
    assert sums.counts() == {(1, 1): 1, (0, 0): 1, (-1, -1): 1}
    assert fixed_point_exists(fc, (1, 0))  # (-1, 1) = -flip(-1, 1)


def test_involution_must_respect_multiset():
    fc = char("A2", (1, 0))
    shift = (0, 1)
    with pytest.raises(NonCompatibleInvolutionError):
        fixed_point_exists(fc, shift)  # w -> -w is not a symmetry of Std
    with pytest.raises(NonCompatibleInvolutionError, match="rank"):
        conjugation_sums(char("A1", (1,)), (0, 1))


@pytest.mark.parametrize("perm", [(1, 2, 0), (0, 0, 1), (0, 1, 3)])
def test_involution_must_be_an_involutive_permutation(perm):
    fc = char("A3", (0, 1, 0))
    for fn in (conjugation_sums, fixed_point_exists):
        with pytest.raises(NonCompatibleInvolutionError, match="involutive"):
            fn(fc, perm)
