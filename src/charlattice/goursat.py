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


@record
class GoursatSpec:
    """factors with a partition into diagonal blocks; indices are 0-based."""

    factors: tuple[SimpleType, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = sorted(i for block in self.blocks for i in block)
        if seen != list(range(len(self.factors))):
            raise GoursatError("blocks must partition the factor indices")
        for block in self.blocks:
            if not block:
                raise GoursatError("empty block")
            types = {self.factors[i] for i in block}
            if len(types) > 1:
                raise GoursatError(
                    f"block {block} mixes types "
                    f"{sorted(str(t) for t in types)}; diagonals need equal types")

    @classmethod
    def make(cls, factors, blocks) -> "GoursatSpec":
        norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return cls(factors=tuple(factors), blocks=norm)

    @property
    def is_full(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


def goursat_rank(spec: GoursatSpec) -> int:
    """Rank of the subalgebra: one representative rank per diagonal block."""
    return sum(spec.factors[block[0]].rank for block in spec.blocks)


def _compatible_partitions(factors: tuple[SimpleType, ...]):
    """All partitions of the index set whose blocks have a single type."""

    def grow(i: int, blocks: list[list[int]]):
        if i == len(factors):
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            if factors[b[0]] == factors[i]:
                b.append(i)
                yield from grow(i + 1, blocks)
                b.pop()
        blocks.append([i])
        yield from grow(i + 1, blocks)
        blocks.pop()

    yield from grow(0, [])


@record
class GoursatReport:
    factors: tuple[SimpleType, ...]
    specs_checked: int
    counterexamples: tuple[GoursatSpec, ...]


def verify_goursat_lemma(factors) -> GoursatReport:
    """Check over every compatible partition that full rank forces full product.

    A counterexample would be a spec whose rank equals the sum of the factor
    ranks without all blocks being singletons, or a singleton-block spec whose
    rank falls short; none exist, and the report proves it exhaustively for
    the given factor list.
    """
    fac = tuple(factors)
    if not fac:
        raise GoursatError("the factor list is empty")
    if len(fac) > MAX_FACTORS:
        raise TooManyFactorsError(
            f"{len(fac)} factors exceed the exhaustive bound {MAX_FACTORS}")
    full_rank = sum(t.rank for t in fac)
    checked = 0
    bad: list[GoursatSpec] = []
    for blocks in _compatible_partitions(fac):
        spec = GoursatSpec.make(fac, blocks)
        checked += 1
        if (goursat_rank(spec) == full_rank) != spec.is_full:
            bad.append(spec)
    return GoursatReport(factors=fac, specs_checked=checked,
                         counterexamples=tuple(bad))
