"""Acceptance gate: one test per shipped guarantee, with time budgets.

Run with -v to get a single pass/fail line per criterion.  Every check is
exact; the budgets are wall-clock ceilings, not targets.
"""

import itertools
import random
import time

from charlattice.abmultiset import (AbGroup, Decomposition, GroupMultiset,
                                    factorization_count_bound, factorizations,
                                    multiset_product)
from charlattice.catalog import allowed_pairs, multiplicity_free_catalog
from charlattice.charmatch import (alt_power_stats, max_norm_weights,
                                   same_formal_character)
from charlattice.goursat import verify_goursat_lemma
from charlattice.linalg import rank as mat_rank
from charlattice.reps import (HighestWeight, SemisimpleAlgebra, direct_sum,
                              dual_highest_weight, irreducible_character, trivial_character,
                              weyl_dimension)
from charlattice.rootsys import SimpleType, reflect_coords, weyl_orbit
from charlattice.subsystems import equal_rank_subsystems
from charlattice.verifycli import cases

from factor_reference import reference_key
from test_abmultiset import brute_binary, dedup_keys
from test_charmatch import brute_alt_stats
from test_reps import negate_character


def dim(name: str, hw) -> int:
    alg = SemisimpleAlgebra.parse(name)
    return weyl_dimension(alg, HighestWeight.from_flat(alg, tuple(hw)))


def test_criterion_01_dimension_table():
    start = time.monotonic()
    assert dim("G2", (1, 0)) == 7
    assert dim("E6", (1, 0, 0, 0, 0, 0)) == 27
    assert dim("E6", (0, 0, 0, 0, 0, 1)) == 27
    assert dim("E7", (0, 0, 0, 0, 0, 0, 1)) == 56
    for m in range(2, 7):
        spin = tuple(1 if i == m - 1 else 0 for i in range(m))
        assert dim(f"B{m}", spin) == 2 ** m
    assert dim("C3", (0, 0, 1)) == 14
    for m in range(4, 8):
        for node in (m - 2, m - 1):
            half = tuple(1 if i == node else 0 for i in range(m))
            assert dim(f"D{m}", half) == 2 ** (m - 1)
    assert dim("A5", (0, 0, 1, 0, 0)) == 20
    assert dim("A7", (0, 0, 0, 1, 0, 0, 0)) == 70
    assert time.monotonic() - start < 5


def test_criterion_02_alt_power_closed_forms_match_oracle():
    start = time.monotonic()
    for n in range(1, 9):
        for a in range(1, n + 1):
            assert alt_power_stats(n, a) == brute_alt_stats(n, a), (n, a)
    assert time.monotonic() - start < 30


def test_criterion_03_sym_power_max_norm_count():
    start = time.monotonic()
    for n in range(1, 9):
        alg = SemisimpleAlgebra.parse(f"A{n}")
        rs = alg.root_systems()[0]
        for a in range(1, 6):
            hw = tuple(a if i == 0 else 0 for i in range(n))
            fc = irreducible_character(alg, hw)
            rec = max_norm_weights(fc)
            assert len(rec.weights) == n + 1, (n, a)
            assert set(rec.weights) == set(weyl_orbit(rs, hw))
    assert time.monotonic() - start < 30


def test_criterion_04_g2_triple_coincidence_witness():
    start = time.monotonic()
    g2 = irreducible_character(SemisimpleAlgebra.parse("G2"), (1, 0))
    a2 = SemisimpleAlgebra.parse("A2")
    triple = direct_sum(irreducible_character(a2, (1, 0)),
                        irreducible_character(a2, (0, 1)),
                        trivial_character(a2))
    witness = same_formal_character(g2, triple)
    assert witness is not None
    assert witness.validate()
    assert time.monotonic() - start < 5


def test_criterion_04b_large_characters_match_their_negations():
    for name, hw, budget in [("E8", (1, 0, 0, 0, 0, 0, 0, 0), 1.0), ("A1", (1200,), 0.2)]:
        fc = irreducible_character(SemisimpleAlgebra.parse(name), hw)
        dual = negate_character(fc)
        start = time.monotonic()
        witness = same_formal_character(fc, dual)
        assert time.monotonic() - start < budget, name
        assert witness is not None and witness.validate()


def test_criterion_05_even_rank_selfdual_contradiction():
    start = time.monotonic()
    for k in range(5, 13):
        report = cases.run_case("sl2k-selfdual", {"k": str(k)})
        assert report.verdict, (k, report)
    assert time.monotonic() - start < 5


def test_criterion_06_divisibility_gates_and_27():
    start = time.monotonic()
    for n in (7, 20, 28, 56, 70):
        report = allowed_pairs(n)
        assert not report.gate_passed, n
        assert any("7" in r or "4" in r for r in report.gate_reasons)
    report = allowed_pairs(27)
    assert report.gate_passed
    got = {(str(p.stype), p.hw) for p in report.pairs}
    assert got == {
        ("A1", (26,)),
        ("A26", tuple([1] + [0] * 25)),
        ("A26", tuple([0] * 25 + [1])),
        ("B13", tuple([1] + [0] * 12)),
        ("E6", (1, 0, 0, 0, 0, 0)),
        ("E6", (0, 0, 0, 0, 0, 1)),
    }
    assert time.monotonic() - start < 5


def test_criterion_07_e6_parity():
    start = time.monotonic()
    report = cases.run_case("e6-parity", {})
    assert report.verdict, report
    assert time.monotonic() - start < 5


def test_criterion_08_orthogonal_selfduality_sweeps():
    start = time.monotonic()
    for m in range(3, 10):
        report = cases.run_case("so-selfdual", {"m": str(m)})
        assert report.verdict, (m, report)
    for m in range(4, 8):
        report = cases.run_case("so2m-conj-zero", {"m": str(m)})
        assert report.verdict, (m, report)
    assert time.monotonic() - start < 120


def test_criterion_09_equal_rank_e8():
    start = time.monotonic()
    subs = equal_rank_subsystems(SimpleType.parse("E8"))
    signatures = {tuple(sorted(str(t) for t in s.component_types)) for s in subs}
    assert ("A4", "A4") in signatures
    for sub in subs:
        assert mat_rank(list(sub.selected_roots)) == 8
    assert time.monotonic() - start < 60


def test_criterion_10_factorizations_match_brute_oracle():
    start = time.monotonic()
    g = AbGroup(torsion=1, free_rank=2)
    rng = random.Random(415)
    shapes = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4),
              (2, 7), (3, 5), (2, 8), (4, 4)]
    for trial in range(200):
        a, b = shapes[trial % len(shapes)]
        factors = []
        for size in (a, b):
            pts = [g.element(0, (rng.randrange(-3, 4), rng.randrange(-3, 4)))
                   for _ in range(size)]
            factors.append(GroupMultiset.from_iterable(g, pts))
        prod = multiset_product(factors[0], factors[1])
        assert prod.size == a * b <= 16

        decs = factorizations(prod, (a, b))
        keys = {reference_key(d) for d in decs}
        assert keys == dedup_keys(brute_binary(prod, a, b))
        assert reference_key(Decomposition(factors=tuple(factors))) in keys
        for d in decs:
            assert d.product() == prod
        assert len(decs) <= factorization_count_bound(a, b)
    assert time.monotonic() - start < 120


def test_criterion_11_goursat_exhaustive():
    start = time.monotonic()
    universe = [SimpleType.parse(n) for n in ("A1", "A2", "A3", "A4")]
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(universe, k):
            report = verify_goursat_lemma(combo)
            assert report.counterexamples == (), combo
    assert time.monotonic() - start < 30


def test_criterion_12_catalog_invariant_suite():
    start = time.monotonic()
    universe = [SimpleType.parse(f"A{n}") for n in range(1, 20)]
    universe += [SimpleType.parse(f"B{n}") for n in range(2, 13)]
    universe += [SimpleType.parse(f"C{n}") for n in range(3, 13)]
    universe += [SimpleType.parse(f"D{n}") for n in range(4, 13)]
    universe += [SimpleType.parse(n) for n in ("E6", "E7", "G2")]
    checked = 0
    for stype in universe:
        alg = SemisimpleAlgebra((stype,))
        rs = alg.root_systems()[0]
        entries = multiplicity_free_catalog(stype, max_dim=200)
        for entry in entries:
            if entry.dim > 200:
                continue
            fc = irreducible_character(alg, entry.hw)
            checked += 1
            assert fc.size == entry.dim
            assert all(m == 1 for _, m in fc.weights)

            totals = [0] * alg.rank
            for w, m in fc.weights:
                for i, c in enumerate(w):
                    totals[i] += m * c
            assert all(t == 0 for t in totals), entry

            counts = fc.counts()
            for i in range(rs.rank):
                image = {}
                for w, m in fc.weights:
                    r = reflect_coords(rs, w, i)
                    image[r] = image.get(r, 0) + m
                assert image == counts, (entry, i)

            dual_hw = dual_highest_weight(alg, HighestWeight.from_flat(alg, entry.hw))
            dual_fc = irreducible_character(alg, dual_hw.flat())
            assert dual_fc == negate_character(fc), entry
    assert checked > 100
    assert time.monotonic() - start < 120
