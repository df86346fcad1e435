"""Full-projection subalgebras of products of simple Lie algebras.

A subalgebra of s_1 x ... x s_k that surjects onto every factor is, for simple
factors, a partition of the index set into blocks of mutually isomorphic
factors with one diagonal copy per block.  Only the partition matters for the
rank, so the rank lemma (rank equality forces the full product) reduces to a
finite check over type-compatible partitions.
"""

from __future__ import annotations

from ._record import record
from .rootsys import SimpleType


class GoursatError(ValueError):
    pass


class TooManyFactorsError(GoursatError):
    """Exhaustive enumeration is only offered for small factor counts."""


MAX_FACTORS = 6


def _compatible_partitions(factors: tuple[SimpleType, ...]):
    """All partitions of the index set whose blocks have a single type, each
    once, as a tuple of 0-based index blocks ordered by their least index.

    They are grown one index at a time: each partition of the indices below
    i, in order, gives i to each of its blocks of the same type and then a
    block of its own, so they come in the order of a depth-first search."""
    level: list[tuple[tuple[int, ...], ...]] = [()]
    for i, stype in enumerate(factors):
        longer = []
        for blocks in level:
            for k, b in enumerate(blocks):
                if factors[b[0]] == stype:
                    longer.append(blocks[:k] + (b + (i,),) + blocks[k + 1:])
            longer.append(blocks + ((i,),))
        level = longer
    return level


@record
class GoursatReport:
    specs_checked: int
    counterexamples: tuple[tuple[tuple[int, ...], ...], ...]


def verify_goursat_lemma(factors) -> GoursatReport:
    """Check over every compatible partition that full rank forces full product.

    The subalgebra of a partition has one representative rank per diagonal
    block.  A counterexample, reported as its tuple of blocks, would be a
    partition whose rank equals the sum of the factor ranks without all blocks
    being singletons, or an all-singleton partition whose rank falls short;
    none exist, and the report proves it exhaustively for the given factor
    list.
    """
    fac = tuple(factors)
    if not fac:
        raise GoursatError("the factor list is empty")
    if len(fac) > MAX_FACTORS:
        raise TooManyFactorsError(
            f"{len(fac)} factors exceed the exhaustive bound {MAX_FACTORS}")
    full_rank = sum(t.rank for t in fac)
    checked = 0
    bad = []
    for blocks in _compatible_partitions(fac):
        checked += 1
        rank = sum(fac[block[0]].rank for block in blocks)
        if (rank == full_rank) != (len(blocks) == len(fac)):
            bad.append(blocks)
    return GoursatReport(specs_checked=checked, counterexamples=tuple(bad))
