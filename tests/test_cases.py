"""Helpers of the verification cases against their unpruned references, the
count of candidate sums against a generating function, the matching search's
invariant check and so-selfdual's per-candidate decision against the Gram
search alone on every so-selfdual candidate, and the catalog gate's pairs
against a closed-form listing."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from charlattice import catalog, charmatch, reps
from charlattice.catalog import allowed_pairs, enumerate_irreps_up_to_dim
from charlattice.charmatch import alt_power_stats, char_inner_product, same_formal_character
from charlattice.linalg import dot, matvec
from charlattice.reps import (FormalCharacter, SemisimpleAlgebra, direct_sum,
                              irreducible_character, weight_multiset)
from charlattice.rootsys import SimpleType, build_root_system, reflect_coords, weyl_orbit
from charlattice.verifycli import cases as cases_module
from charlattice.verifycli.cases import (_CASES, CaseError, _faithful_sums, _partitions,
                                         _signed_basis, _so_standard, default_suite,
                                         run_case)


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
    # the unpruned reference is tabulated per total, and m = 12 takes about 1 s
    for part in _partitions(m // 2):
        alg = SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
        irreps = enumerate_irreps_up_to_dim(alg, m)
        assert ([tuple(irreps[i] for i in combo) for combo in _faithful_sums(alg, irreps, m)]
                == reference_faithful_sums(alg, m))


def so_selfdual_reference(m):
    name, hw = _so_standard(m)
    return irreducible_character(SemisimpleAlgebra.parse(name), hw)


def so_selfdual_pairs():
    """(m, reference, algebra, sum, its character) for every candidate sum of
    so-selfdual, m = 3..9, a sum being its summands' indices into
    enumerate_irreps_up_to_dim(alg, m)."""
    for m in range(3, 10):
        ref = so_selfdual_reference(m)
        for part in _partitions(m // 2):
            alg = SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
            irreps = enumerate_irreps_up_to_dim(alg, m)
            for combo in _faithful_sums(alg, irreps, m):
                yield m, ref, alg, combo, direct_sum(*(weight_multiset(alg, irreps[i][0])
                                                       for i in combo))


def sweep_matches(alg, combo, m):
    """so-selfdual's decision on a sum of indices into
    enumerate_irreps_up_to_dim(alg, m), made by the sweep the case reads at
    m, whose irreducibles start with those."""
    return cases_module._so_sweep(alg).matches(combo, m)


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
    verdicts = [same_formal_character(ref, cand) is not None for _, ref, _, _, cand in cases]
    stages = Counter((first_failed_check(ref, cand), match)
                     for (_, ref, _, _, cand), match in zip(cases, verdicts))
    # the invariants reject every non-match that has the right number of
    # distinct weights, so only true matches reach the Gram search
    assert stages == {("distinct count", False): 58, ("zero multiplicity", False): 44,
                      ("pair list", False): 28, ("none", True): 63}
    # the same sweep with the invariant check bypassed: the Gram search alone
    monkeypatch.setattr(charmatch, "_invariants", lambda weights: None)
    assert [same_formal_character(ref, cand) is not None
            for _, ref, _, _, cand in cases] == verdicts
    per_m = Counter(m for (m, *_), match in zip(cases, verdicts) if match)
    assert [per_m[m] for m in range(3, 10)] == [2, 2, 4, 5, 11, 11, 28]
    # so-selfdual's own decision gives the Gram search's verdict on every candidate
    assert len(cases) == 193
    assert [sweep_matches(alg, combo, m) for m, _, alg, combo, _ in cases] == verdicts


@pytest.mark.parametrize("m,name,flats,rejection", [
    # a repeated irreducible shares every weight with its copy
    (5, "A2", [(0, 0), (0, 0), (1, 0)], "two summands share a weight"),
    (7, "A1+A2", [(0, 0, 0), (2, 0, 0), (0, 1, 0)], "two summands share a weight"),
    (11, "A1+A4", [(1, 0, 0, 0, 0), (3, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
     "two summands share a weight"),
    (13, "A2+A4", [(0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0)], "multiplicity above 1"),
])
def test_each_early_rejection_is_a_sum_with_no_witness(m, name, flats, rejection):
    """A faithful sum for each way so-selfdual's decision rejects a sum before
    the signed-basis clauses: the sum is refused, and the Gram search finds
    no linear bijection onto the reference either."""
    alg = SemisimpleAlgebra.parse(name)
    irreps = enumerate_irreps_up_to_dim(alg, m)
    index = {hw.flat(): i for i, (hw, _) in enumerate(irreps)}
    combo = tuple(sorted(index[flat] for flat in flats))
    assert combo in _faithful_sums(alg, irreps, m)
    # the weight sets the sweep reads, each None when a weight repeats
    sweep = cases_module._so_sweep(alg)
    sets = [sweep._signed_sets(i) for i in combo]
    applies = {"multiplicity above 1": None in sets,
               "two summands share a weight": None not in sets and any(
                   not a[0].isdisjoint(b[0]) for a, b in itertools.combinations(sets, 2))}
    assert [k for k, v in applies.items() if v] == [rejection]
    assert not sweep_matches(alg, combo, m)
    cand = direct_sum(*(weight_multiset(alg, irreps[i][0]) for i in combo))
    assert same_formal_character(so_selfdual_reference(m), cand) is None


def test_signed_basis_needs_a_basis():
    """Every reference, m = 3..16, has the signed-basis shape.  On A1+A1 at
    m = 4 the pairs +-(1,0), +-(2,0) pass every other clause and fail only
    the rank clause, where the Gram search finds no witness; +-(1,1),
    +-(1,0) pass."""
    for m in range(3, 17):
        ref = so_selfdual_reference(m)
        assert ref.size == m and _signed_basis(frozenset(ref.distinct()), m)
    alg = SemisimpleAlgebra.parse("A1+A1")
    ref = irreducible_character(alg, (1, 1))

    def char(*vectors):
        return FormalCharacter.from_counts(
            alg, {w: 1 for v in vectors for w in (v, tuple(-c for c in v))})

    flat = char((1, 0), (2, 0))
    assert not _signed_basis(frozenset(flat.distinct()), 4)
    assert same_formal_character(ref, flat) is None
    skew = char((1, 1), (1, 0))
    assert _signed_basis(frozenset(skew.distinct()), 4)
    assert same_formal_character(ref, skew) is not None


def test_so_selfdual_makes_no_gram_search(monkeypatch):
    """so-selfdual decides every candidate with _SoSweep.matches, so it makes no
    same_formal_character call; the counts of candidates and matches are
    those test_invariant_filter_keeps_every_so_selfdual_verdict gets by
    searching every candidate."""
    searched = []

    def counting(ref, candidate):
        searched.append(ref.size)
        return same_formal_character(ref, candidate)

    monkeypatch.setattr("charlattice.verifycli.cases.same_formal_character", counting)
    notes = [dict(run_case("so-selfdual", {"m": str(m)}).notes) for m in range(3, 10)]
    assert searched == []
    assert [int(n["candidates"]) for n in notes] == [2, 4, 6, 13, 23, 39, 106]
    assert [int(n["matches"]) for n in notes] == [2, 2, 4, 5, 11, 11, 28]


@pytest.mark.parametrize("m,candidates,matches", [
    (10, 146, 28), (11, 350, 80), (12, 603, 81), (13, 1415, 243), (14, 2059, 243),
    (15, 5728, 792), (16, 8160, 792)])
def test_so_selfdual_above_the_default_suite(m, candidates, matches):
    report = run_case("so-selfdual", {"m": str(m)})
    assert report.verdict
    notes = dict(report.notes)
    assert (int(notes["candidates"]), int(notes["matches"])) == (candidates, matches)


def test_e6_parity_permutes_the_multiset_twice(monkeypatch):
    """fixed_point_exists builds one image and conjugation_sums one, which it
    compares with the counts and with their negation; the case's own step
    builds its image inline."""
    permuted, signs = charmatch._permuted_counts, []

    def counting(fc, perm, sign):
        signs.append(sign)
        return permuted(fc, perm, sign)

    monkeypatch.setattr(charmatch, "_permuted_counts", counting)
    assert run_case("e6-parity").verdict
    assert signs == [-1, 1]


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


@pytest.mark.parametrize("m", range(3, 17))
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


def test_battery_computes_each_simple_factor_dimension_once(monkeypatch):
    # Every weight multiset checks its dimension bound and every exhaustive
    # enumeration meets a weight again per algebra, so the battery asks for
    # 319 simple-factor dimensions (386 when so-selfdual enumerated each
    # algebra afresh for m = 2r and m = 2r + 1); the memo computes each of
    # the 54 distinct (type, weight) pairs once.  Fresh caches, so-selfdual's
    # sweeps and the summand weight sets they hold among them, make the
    # counts independent of what ran before.
    compute = reps._factor_dimension.__wrapped__
    asked, computed = [], []

    def counted(stype, hw):
        computed.append((stype, hw))
        return compute(stype, hw)

    memo = lru_cache(maxsize=None)(counted)

    def ask(stype, hw):
        asked.append((stype, hw))
        return memo(stype, hw)

    monkeypatch.setattr(reps, "_factor_dimension", ask)
    monkeypatch.setattr(catalog, "_factor_dimension", ask)
    monkeypatch.setattr(catalog, "_enumerate_simple",
                        lru_cache(maxsize=None)(catalog._enumerate_simple.__wrapped__))
    cases_module._so_sweep.cache_clear()
    for case_id, params in default_suite(0):
        assert run_case(case_id, params).verdict
    assert (len(asked), len(computed), len(set(computed))) == (319, 54, 54)


# Joint bounds over text parameters: the parameters that sit at a joint value.
TEXT_JOINT_PROBES = {"max-norm-bound": lambda rank: {"algebra": f"A{rank}"}}


def test_every_domain_bound_is_checked_before_the_case_runs(monkeypatch):
    """Each int parameter's lo and hi, and the largest joint value within the
    limit, reach the case; lo - 1, hi + 1 and the smallest joint value past
    the limit raise CaseError from run_case without the case being called."""
    reached = []

    def recorder(**values):
        reached.append(values)
        return (), {}

    def outcome(case_id, values):
        reached.clear()
        try:
            run_case(case_id, {k: str(v) for k, v in values.items()})
        except CaseError as exc:
            assert not reached and "exceeds the documented range" in str(exc)
            return "refused"
        assert len(reached) == 1 and all(reached[0][k] == v for k, v in values.items())
        return "reached"

    for case_id, domain in list(_CASES.items()):
        monkeypatch.setitem(_CASES, case_id, domain._replace(run=recorder))
        lowest = {name: lo for name, (lo, _, _) in domain.ints.items()}
        for name, (lo, _, hi) in domain.ints.items():
            for value, want in ((lo - 1, "refused"), (lo, "reached"),
                                (hi, "reached"), (hi + 1, "refused")):
                assert outcome(case_id, lowest | {name: value}) == want, (case_id, name, value)
        if domain.joint is None:
            continue
        label, form, limit = domain.joint
        if case_id in TEXT_JOINT_PROBES:
            at, past = TEXT_JOINT_PROBES[case_id](limit), TEXT_JOINT_PROBES[case_id](limit + 1)
        else:
            grid = [dict(zip(domain.ints, point)) for point in itertools.product(
                *(range(lo, hi + 1) for lo, _, hi in domain.ints.values()))]

            def value(point):
                return form(**(point | domain.free))

            at = max((p for p in grid if value(p) <= limit), key=value)
            past = min((p for p in grid if value(p) > limit), key=value)
        assert outcome(case_id, at) == "reached", (case_id, label, at)
        assert outcome(case_id, past) == "refused", (case_id, label, past)


def test_domain_defaults_lie_in_their_ranges():
    for case_id, domain in _CASES.items():
        assert all(lo <= default <= hi for lo, default, hi in domain.ints.values()), case_id


@pytest.mark.parametrize("n,a", [(1, 40), (3, 40), (9, 7), (40, 3), (40, 4)])
def test_sym_power_joint_bound_is_the_character_size(n, a):
    """The closed form C(n+a, a) is the Weyl dimension of sym^a of A_n, and
    the limit 12341 is the size at n = 40, a = 3."""
    alg = SemisimpleAlgebra.parse(f"A{n}")
    dim = reps.weyl_dimension(alg, reps.HighestWeight.from_flat(alg, (a,) + (0,) * (n - 1)))
    label, form, limit = _CASES["sym-power-rigidity"].joint
    assert form(n=n, a=a) == dim
    assert (dim <= limit) == ((n, a) != (40, 4))


def closed_form_catalog(bound: int) -> dict[int, set]:
    """dim -> {(type, hw, dim)} for every multiplicity-free irreducible of
    dimension at most bound, listed from the closed-form dimensions alone."""
    out: dict[int, set] = {}

    def put(stype: str, rank: int, node: int, dim: int, coeff: int = 1) -> None:
        if dim <= bound:
            hw = tuple(coeff if i == node else 0 for i in range(rank))
            out.setdefault(dim, set()).add((stype, hw, dim))

    for m in range(1, bound):  # std of A_m has dimension m + 1
        for b in range(1, m + 1):  # alt^b, std and std* among them
            put(f"A{m}", m, b - 1, math.comb(m + 1, b))
        a = 2
        while math.comb(m + a, a) <= bound:  # sym^a of std and of std*
            put(f"A{m}", m, 0, math.comb(m + a, a), a)
            put(f"A{m}", m, m - 1, math.comb(m + a, a), a)
            a += 1
    for m in range(2, bound):
        put(f"B{m}", m, 0, 2 * m + 1)
        put(f"B{m}", m, m - 1, 2 ** m)
    for m in range(3, bound):
        put(f"C{m}", m, 0, 2 * m)
    put("C3", 3, 2, 14)
    for m in range(4, bound):
        put(f"D{m}", m, 0, 2 * m)
        put(f"D{m}", m, m - 2, 2 ** (m - 1))
        put(f"D{m}", m, m - 1, 2 ** (m - 1))
    put("E6", 6, 0, 27)
    put("E6", 6, 5, 27)
    put("E7", 7, 6, 56)
    put("G2", 2, 0, 7)
    return out


def test_allowed_pairs_match_a_closed_form_listing():
    listing = closed_form_catalog(200)
    for n in range(1, 201):
        pairs = allowed_pairs(n).pairs
        got = [(str(p.stype), p.hw, p.dim) for p in pairs]
        assert len(set(got)) == len(got) and set(got) == listing.get(n, set()), n
