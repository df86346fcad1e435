"""Rank bookkeeping for full-projection subalgebras of products, and the
enumeration of type-compatible partitions against a brute-force one."""

import itertools
from types import SimpleNamespace

import pytest

from charlattice.goursat import (MAX_FACTORS, GoursatError, TooManyFactorsError,
                                 _compatible_partitions, verify_goursat_lemma)
from charlattice.rootsys import SimpleType
from charlattice.verifycli.cases import run_case


def types(*names):
    return tuple(SimpleType.parse(n) for n in names)


def brute_partitions(k: int) -> list[frozenset]:
    """Every set partition of range(k), from its restricted growth strings:
    label sequences whose first use of each label comes in increasing order."""
    out = []
    for labels in itertools.product(range(k), repeat=k):
        if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(k)):
            out.append(frozenset(frozenset(i for i in range(k) if labels[i] == b)
                                 for b in set(labels)))
    return out


def test_compatible_partitions_yield_each_equal_type_partition_once():
    universe = types("A1", "A2", "G2")  # A2 and G2 share a rank, not a type
    for k in range(1, MAX_FACTORS + 1):
        every = brute_partitions(k)
        for fac in itertools.product(universe, repeat=k):
            got = list(_compatible_partitions(fac))
            for blocks in got:  # ordered as case_goursat prints them
                assert blocks == tuple(sorted(tuple(sorted(b)) for b in blocks)), blocks
            keys = [frozenset(map(frozenset, blocks)) for blocks in got]
            assert len(set(keys)) == len(keys), fac
            assert set(keys) == {p for p in every
                                 if all(len({fac[i] for i in b}) == 1 for b in p)}, fac


def test_a_diagonal_of_full_rank_is_reported():
    """The check can fail: on a stand-in factor of rank 0, the diagonal of two
    copies keeps the full rank 0 without being the full product."""
    ghost = SimpleNamespace(rank=0)
    report = verify_goursat_lemma([ghost, ghost])
    assert report.counterexamples == (((0, 1),),)
    assert report.specs_checked == 2


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
