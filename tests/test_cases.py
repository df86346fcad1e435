"""Helpers of the verification cases against their unpruned references, the
count of candidate sums against a generating function, and the matching
search's invariant check against the Gram search alone on every so-selfdual
candidate."""

import itertools
import math
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from charlattice import charmatch
from charlattice.charmatch import alt_power_stats, char_inner_product, same_formal_character
from charlattice.linalg import dot, matvec
from charlattice.reps import (SemisimpleAlgebra, direct_sum, enumerate_irreps_up_to_dim,
                              irreducible_character, weight_multiset)
from charlattice.rootsys import SimpleType, build_root_system, reflect_coords, weyl_orbit
from charlattice.verifycli.cases import _SO_STD, _faithful_sums, _partitions


def reference_faithful_sums(alg, total):
    """The case's recursion without its early exit: every irreducible, in
    dimension order, is offered remaining // d copies down to 0, however large
    d is.  It is tabulated bottom-up: suffixes[r] lists, in the recursion's
    depth-first order, the choices from irreducible i on that use up r
    (unmemoized, A1^6 at total 12 takes about 10 s)."""
    irreps = enumerate_irreps_up_to_dim(alg, total)
    k = len(alg.factors)
    suffixes = [((),)] + [()] * total  # past the last irreducible
    for hw, d in reversed(irreps):
        suffixes = [tuple(((hw, d),) * copies + tail
                          for copies in range(r // d, -1, -1)
                          for tail in suffixes[r - copies * d])
                    for r in range(total + 1)]
    return [s for s in suffixes[total]
            if len({j for hw, _ in s for j in range(k) if any(hw.by_factor[j])}) == k]


@pytest.mark.parametrize("m", range(3, 13))
def test_faithful_sums_match_unpruned_recursion(m):
    # _faithful_sums takes any total; the case's m <= 9 cap does not apply here
    for part in _partitions(m // 2):
        alg = SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
        irreps = enumerate_irreps_up_to_dim(alg, m)
        assert _faithful_sums(alg, irreps, m) == reference_faithful_sums(alg, m)


def so_selfdual_pairs():
    """(m, reference, candidate) for every candidate sum of so-selfdual, m = 3..9."""
    for m in range(3, 10):
        name, hw = _SO_STD[m]
        ref = irreducible_character(SemisimpleAlgebra.parse(name), hw)
        for part in _partitions(m // 2):
            alg = SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
            for combo in _faithful_sums(alg, enumerate_irreps_up_to_dim(alg, m), m):
                yield m, ref, direct_sum(*(weight_multiset(alg, hw) for hw, _ in combo))


def first_failed_check(fc1, fc2):
    """The first of the cheap checks that tells fc1 and fc2 apart, computed
    here from the weights; 'none' if all agree."""
    if len(fc1.weights) != len(fc2.weights):
        return "distinct count"

    def zero(fc):
        return fc.multiplicity((0,) * fc.algebra.rank)

    def pairs(fc):
        return sorted((m, fc.multiplicity(tuple(-c for c in w))) for w, m in fc.weights if any(w))

    if zero(fc1) != zero(fc2):
        return "zero multiplicity"
    if pairs(fc1) != pairs(fc2):
        return "pair list"
    return "none"


def test_invariant_filter_keeps_every_so_selfdual_verdict(monkeypatch):
    cases = list(so_selfdual_pairs())
    verdicts = [same_formal_character(ref, cand) is not None for _, ref, cand in cases]
    stages = Counter((first_failed_check(ref, cand), match)
                     for (_, ref, cand), match in zip(cases, verdicts))
    # the invariants reject every non-match that has the right number of
    # distinct weights, so only true matches reach the Gram search
    assert stages == {("distinct count", False): 58, ("zero multiplicity", False): 44,
                      ("pair list", False): 28, ("none", True): 63}
    # the same sweep with the invariant check bypassed: the Gram search alone
    monkeypatch.setattr(charmatch, "_invariants", lambda weights: None)
    monkeypatch.setattr(charmatch, "_MATCH_DATA", weakref.WeakKeyDictionary())
    assert [same_formal_character(ref, cand) is not None for _, ref, cand in cases] == verdicts
    per_m = Counter(m for (m, _, _), match in zip(cases, verdicts) if match)
    assert [per_m[m] for m in range(3, 10)] == [2, 2, 4, 5, 11, 11, 28]


def type_a_dimensions(p: int, bound: int) -> list[int]:
    """Dimensions at most bound of the irreducibles of A_p (sl_(p+1)), by the
    hook-content formula on the partition with column lengths read off the
    fundamental coordinates: prod over boxes (p + 1 + content) / hook.

    The dimension grows strictly with each fundamental coordinate (each Weyl
    factor (lam + rho, beta) / (rho, beta) does not shrink, and the one for
    the simple root grows), so each coordinate is raised only until the
    bound is passed with the later ones at zero."""
    n = p + 1

    def dim(coords) -> int:
        rows = [sum(coords[i:]) for i in range(p)]
        cols = [sum(1 for r in rows if r > j) for j in range(rows[0])] if rows[0] else []
        num = den = 1
        for i, r in enumerate(rows):
            for j in range(r):
                num *= n + j - i
                den *= (r - j - 1) + (cols[j] - i - 1) + 1
        assert num % den == 0
        return num // den

    out = []

    def grow(prefix):
        if len(prefix) == p:
            out.append(dim(prefix))
            return
        value = 0
        while dim(prefix + [value] + [0] * (p - len(prefix) - 1)) <= bound:
            grow(prefix + [value])
            value += 1

    grow([])
    return out


def count_covering_sums(ranks, total: int) -> int:
    """[x^total] of the generating function of multisets of irreducibles of
    A_ranks[0] + ... whose supports together cover every factor, by
    inclusion-exclusion over the factors S allowed to act nontrivially:
    sum over S of (-1)^(k - |S|) [x^total] prod over irreducibles of the
    product over S of 1 / (1 - x^dim)."""
    k = len(ranks)
    per_factor = [type_a_dimensions(p, total) for p in ranks]
    count = 0
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            dims = [1]
            for j in subset:
                dims = [a * b for a in dims for b in per_factor[j] if a * b <= total]
            coeffs = [1] + [0] * total  # prod of 1 / (1 - x^d), truncated
            for d in dims:
                for t in range(d, total + 1):
                    coeffs[t] += coeffs[t - d]
            count += (-1) ** (k - size) * coeffs[total]
    return count


def test_type_a_dimensions_hook_content():
    assert sorted(type_a_dimensions(1, 5)) == [1, 2, 3, 4, 5]
    assert sorted(type_a_dimensions(2, 10)) == [1, 3, 3, 6, 6, 8, 10, 10]
    assert sorted(type_a_dimensions(3, 10)) == [1, 4, 4, 6, 10, 10]


@pytest.mark.parametrize("m", range(3, 13))
def test_faithful_sums_counted_by_generating_function(m):
    for part in _partitions(m // 2):
        alg = SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
        irreps = enumerate_irreps_up_to_dim(alg, m)
        assert len(_faithful_sums(alg, irreps, m)) == count_covering_sums(part, m)


@pytest.mark.parametrize("k", range(3, 8))
def test_sl2k_selfdual_closed_forms_match_the_character(k):
    """sl2k-selfdual takes the norm and extreme inner products of the weights
    of alt^k of sl_2k from `alt_power_stats`; here they are read off the
    Freudenthal character of A_{2k-1} with highest weight omega_k under the
    form the character induces.  That form is Weyl-invariant and the weights
    make one Weyl orbit, so the inner products one weight meets are those
    every weight meets, and the highest weight's row gives the extremes."""
    n = 2 * k - 1
    alg = SemisimpleAlgebra.parse(f"A{n}")
    hw = tuple(int(i == k - 1) for i in range(n))
    fc = irreducible_character(alg, hw)
    weights = fc.distinct()
    rs = build_root_system(SimpleType("A", n))
    assert set(weights) == weyl_orbit(rs, hw)
    form = char_inner_product(fc)
    scale = math.lcm(*(x.denominator for row in form for x in row))
    gram = [[int(x * scale) for x in row] for row in form]
    for i in range(n):
        s = [reflect_coords(rs, tuple(int(j == c) for j in range(n)), i) for c in range(n)]
        assert [[dot(s[a], matvec(gram, s[b])) for b in range(n)] for a in range(n)] == gram

    assert len({dot(w, matvec(gram, w)) for w in weights}) == 1
    top = matvec(gram, hw)
    norm = dot(hw, top)
    others = [dot(w, top) for w in weights if w != hw]
    stats = alt_power_stats(n, k)
    assert Fraction(max(others), norm) == stats.max_ip / stats.norm2 == 1 - Fraction(2, k)
    assert Fraction(min(others), norm) == stats.min_ip / stats.norm2 == -1
