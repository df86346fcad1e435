"""Induced forms, the weight-multiset matching search and the closed forms.

The alternating-power statistics get an independent oracle that builds every
subset weight explicitly and pairs them with the literal ambient form, sharing
nothing with the closed-form path; the closed-form norm is also checked on
every weight of each alternating power, under the Gram matrix of the ambient
fundamental weights from tests/ambient_oracle.py.  Witness matrices of the
matching search are pinned in tests/golden/samechar_witnesses.json.
"""

import itertools
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_oracle import ambient_root_system, gram
from charlattice.charmatch import (AltPowerStats, DegenerateFormError,
                                   NonCompatibleInvolutionError,
                                   alt_power_stats, char_inner_product,
                                   conjugation_sums, fixed_point_exists,
                                   max_norm_weights, same_formal_character)
from charlattice.linalg import dot, matvec
from charlattice.reps import (FormalCharacter, SemisimpleAlgebra, direct_sum,
                              irreducible_character, negate_character,
                              trivial_character)
from charlattice.rootsys import LatticeInvolution, SimpleType

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
    inv = LatticeInvolution.identity(1)
    sums = conjugation_sums(fc, inv).sums
    assert sums.counts() == {(-4,): 1, (0,): 1, (4,): 1}


def test_conjugation_sums_negation_collapses():
    fc = char("A2", (1, 0))
    sums = conjugation_sums(fc, LatticeInvolution.negation(2)).sums
    assert sums.counts() == {(0, 0): 3}
    assert fixed_point_exists(fc, LatticeInvolution.negation(2))


def test_involution_must_respect_multiset():
    fc = char("A2", (1, 0))
    shift = LatticeInvolution.identity(2)
    with pytest.raises(NonCompatibleInvolutionError):
        fixed_point_exists(fc, shift)  # w -> -w is not a symmetry of Std
    with pytest.raises(NonCompatibleInvolutionError):
        conjugation_sums(char("A1", (1,)), LatticeInvolution.identity(2))
