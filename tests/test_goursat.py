"""Rank bookkeeping for full-projection subalgebras of products."""

import itertools

import pytest

from charlattice.goursat import (MAX_FACTORS, GoursatError, GoursatSpec,
                                 TooManyFactorsError, goursat_rank,
                                 verify_goursat_lemma)
from charlattice.rootsys import SimpleType
from charlattice.verifycli.cases import run_case


def types(*names):
    return tuple(SimpleType.parse(n) for n in names)


def test_diagonal_pair_has_rank_one():
    spec = GoursatSpec.make(types("A1", "A1"), [(0, 1)])
    assert goursat_rank(spec) == 1
    assert not spec.is_full


def test_singletons_have_full_rank():
    spec = GoursatSpec.make(types("A1", "A1"), [(0,), (1,)])
    assert goursat_rank(spec) == 2
    assert spec.is_full


def test_mixed_blocks_example():
    spec = GoursatSpec.make(types("A2", "A2", "A3"), [(0, 1), (2,)])
    assert goursat_rank(spec) == 5


def test_blocks_must_partition():
    with pytest.raises(GoursatError):
        GoursatSpec.make(types("A1", "A1"), [(0,)])
    with pytest.raises(GoursatError):
        GoursatSpec.make(types("A1", "A1"), [(0, 1), (1,)])


def test_blocks_must_not_mix_types():
    with pytest.raises(GoursatError):
        GoursatSpec.make(types("A1", "A2"), [(0, 1)])
    with pytest.raises(GoursatError):
        GoursatSpec.make(types("A2", "B2"), [(0, 1)])


def test_mixed_type_list_only_splits_apart():
    report = verify_goursat_lemma(types("A1", "A2"))
    assert report.counterexamples == ()
    assert report.specs_checked == 1  # singletons are the only compatible partition


def test_lemma_holds_for_repeated_factors():
    for names in [("A1", "A1"), ("A1", "A1", "A1"), ("A2", "A2", "A2"),
                  ("A1", "A2", "A1", "A2"), ("B2", "B2", "G2")]:
        report = verify_goursat_lemma(types(*names))
        assert report.counterexamples == (), names


def test_bell_number_of_partitions_for_equal_types():
    # 3 equal factors admit 5 partitions, 4 equal factors admit 15
    assert verify_goursat_lemma(types("A1", "A1", "A1")).specs_checked == 5
    assert verify_goursat_lemma(types("A1", "A1", "A1", "A1")).specs_checked == 15


def test_merging_blocks_strictly_drops_rank():
    fac = types("A2", "A2", "A2")
    full = goursat_rank(GoursatSpec.make(fac, [(0,), (1,), (2,)]))
    merged_once = goursat_rank(GoursatSpec.make(fac, [(0, 1), (2,)]))
    merged_all = goursat_rank(GoursatSpec.make(fac, [(0, 1, 2)]))
    assert full > merged_once > merged_all


def test_factor_count_cap():
    fac = types(*["A1"] * (MAX_FACTORS + 1))
    with pytest.raises(TooManyFactorsError):
        verify_goursat_lemma(fac)


@pytest.mark.parametrize("factors", ["", "+", " , "])
def test_empty_factor_list_is_refused(factors):
    # An empty product has one partition, the empty one, and would pass
    # vacuously.
    with pytest.raises(GoursatError, match="the factor list is empty"):
        run_case("goursat", {"factors": factors})


def test_exhaustive_small_universe():
    universe = types("A1", "A2", "A3", "A4")
    for k in range(1, 4):
        for combo in itertools.combinations_with_replacement(universe, k):
            assert verify_goursat_lemma(combo).counterexamples == ()
