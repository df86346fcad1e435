"""Irreducible characters of semisimple algebras, exactly.

Weights are integer coordinate vectors in the fundamental-weight basis of a
fixed semisimple algebra (factor coordinates concatenated in order).  Weight
multisets come from Freudenthal's recursion run over the dominant chamber of
each simple factor; everything downstream of that is bookkeeping.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, mul

from ._record import record
from .rootsys import (
    Coords,
    RootSystem,
    SimpleType,
    build_root_system,
    dominant_representative,
    pairing,
    weyl_orbit,
)

DEFAULT_DIMENSION_BOUND = 100_000


class DimensionBoundError(RuntimeError):
    """A requested weight expansion exceeds the dimension cap."""


class AlgebraMismatchError(ValueError):
    """Characters or weights attached to incompatible algebras."""


@record
class SemisimpleAlgebra:
    """An ordered product of simple types."""

    factors: tuple[SimpleType, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("algebra needs at least one simple factor")

    @property
    def rank(self) -> int:
        return sum(st.rank for st in self.factors)

    def root_systems(self) -> tuple[RootSystem, ...]:
        return tuple(build_root_system(st) for st in self.factors)

    def split_coords(self, w: Coords) -> tuple[Coords, ...]:
        if len(w) != self.rank:
            raise AlgebraMismatchError(
                f"weight has {len(w)} coordinates, algebra has rank {self.rank}")
        out = []
        pos = 0
        for st in self.factors:
            out.append(tuple(w[pos:pos + st.rank]))
            pos += st.rank
        return tuple(out)

    def __str__(self) -> str:
        return "+".join(str(st) for st in self.factors)

    @classmethod
    def parse(cls, text: str) -> "SemisimpleAlgebra":
        parts = [p for p in text.replace(" ", "+").split("+") if p]
        return cls(tuple(SimpleType.parse(p) for p in parts))


@record
class HighestWeight:
    """Dominant integral coordinates, one tuple per simple factor."""

    by_factor: tuple[Coords, ...]

    def __post_init__(self) -> None:
        for coords in self.by_factor:
            if any(c < 0 for c in coords):
                raise ValueError(f"not dominant: {coords}")

    def flat(self) -> Coords:
        return tuple(itertools.chain.from_iterable(self.by_factor))

    @classmethod
    def from_flat(cls, alg: SemisimpleAlgebra, flat: Coords) -> "HighestWeight":
        return cls(alg.split_coords(tuple(flat)))

    def __str__(self) -> str:
        return ";".join(",".join(str(c) for c in f) for f in self.by_factor)


@record
class FormalCharacter:
    """A finite weight multiset over a fixed algebra."""

    algebra: SemisimpleAlgebra
    weights: tuple[tuple[Coords, int], ...]

    def __post_init__(self) -> None:
        rank = self.algebra.rank
        for w, m in self.weights:
            if len(w) != rank:
                raise AlgebraMismatchError(f"weight {w} does not fit {self.algebra}")
            if m <= 0:
                raise ValueError("multiplicities must be positive")

    @classmethod
    def from_counts(cls, alg: SemisimpleAlgebra, counts: dict[Coords, int]) -> "FormalCharacter":
        items = tuple(sorted((tuple(w), m) for w, m in counts.items() if m))
        return cls(algebra=alg, weights=items)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.weights)

    def counts(self) -> dict[Coords, int]:
        return dict(self.weights)

    def multiplicity(self, w: Coords) -> int:
        return dict(self.weights).get(tuple(w), 0)

    def distinct(self) -> tuple[Coords, ...]:
        return tuple(w for w, _ in self.weights)


def trivial_character(alg: SemisimpleAlgebra) -> FormalCharacter:
    return FormalCharacter.from_counts(alg, {tuple(0 for _ in range(alg.rank)): 1})


def direct_sum(*chars: FormalCharacter) -> FormalCharacter:
    if not chars:
        raise ValueError("empty direct sum")
    alg = chars[0].algebra
    counts: dict[Coords, int] = {}
    for fc in chars:
        if fc.algebra != alg:
            raise AlgebraMismatchError("direct sum across different algebras")
        for w, m in fc.weights:
            counts[w] = counts.get(w, 0) + m
    return FormalCharacter.from_counts(alg, counts)


# ---------------------------------------------------------------------------
# Dimensions and weight multisets.


@lru_cache(maxsize=None)
def _scaled_roots(stype: SimpleType) -> tuple[Coords, ...]:
    """beta o l for each positive root beta, aligned with positive_roots: a
    weight v pairs with it as in rootsys.pairing, v . (beta o l) = 2(v, beta)."""
    rs = build_root_system(stype)
    return tuple(tuple(c * l for c, l in zip(beta, rs.root_lengths))
                 for beta in rs.positive_roots)


@lru_cache(maxsize=None)
def _weyl_denominator(stype: SimpleType) -> int:
    """The product of 2(rho, beta) over beta > 0, the denominator of Weyl's
    dimension formula: rho is (1, ..., 1) in fundamental coordinates, so
    2(rho, beta) = sum_k beta_k l_k."""
    rs = build_root_system(stype)
    den = 1
    for beta in rs.positive_roots:
        den *= sum(map(mul, beta, rs.root_lengths))
    return den


@lru_cache(maxsize=None)
def _factor_dimension(stype: SimpleType, hw: Coords) -> int:
    """Weyl's product of (lambda + rho, beta) / (rho, beta) over beta > 0, each
    side doubled as in rootsys.pairing: beta dotted with (lambda + rho) o l
    over _weyl_denominator.  Memoized per (type, weight), like
    `_simple_weight_multiset`: every weight multiset checks its dimension
    bound first, and the exhaustive enumerations meet a weight again for
    every algebra that contains its factor."""
    rs = build_root_system(stype)
    shifted = tuple((c + 1) * l for c, l in zip(hw, rs.root_lengths))
    num = 1
    for beta in rs.positive_roots:
        num *= sum(map(mul, beta, shifted))
    den = _weyl_denominator(stype)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise AssertionError(f"dimension formula gave {num}/{den} for {rs.stype} {hw}")
    return dim


def weyl_dimension(alg: SemisimpleAlgebra, hw: HighestWeight) -> int:
    """Dimension of the irreducible with the given highest weight."""
    out = 1
    for stype, coords in zip(alg.factors, hw.by_factor):
        if len(coords) != stype.rank:
            raise AlgebraMismatchError("highest weight does not match algebra")
        out *= _factor_dimension(stype, coords)
    return out


@lru_cache(maxsize=None)
def _simple_weight_multiset(stype: SimpleType, hw: Coords) -> tuple[tuple[Coords, int], ...]:
    """Weight multiset of one simple factor by Freudenthal's recursion.

    The dominant weights are found by a search down from the highest weight
    that subtracts one positive root at a time and keeps only what stays
    dominant; this reaches every dominant weight below lam, since dominant
    weights comparable in the dominance order are joined by such steps
    (Stembridge, Adv. Math. 136 (1998)).  The Weyl orbits of the dominant
    weights then map every weight to its dominant conjugate: that map is the
    weight set, and multiplicities, computed on dominant weights only, are
    read through it.  Both sides of the recursion are cleared to integers
    with rootsys.pairing: for a weight v and a root beta = sum c_k alpha_k,
    2(v, beta) = sum_k v_k c_k l_k, and with lam - mu = sum d_k alpha_k the
    denominator 2((lam+rho)^2 - (mu+rho)^2) is 2(lam + mu + 2 rho, lam - mu).
    Each multiplicity then takes one exact integer division.

    The root strings are summed once (Humphreys, Introduction to Lie Algebras
    and Representation Theory, 22.3).  Per root beta, tail[v] holds
    T(v) = sum_{j >= 0} m(v + j beta) 2(v + j beta, beta) for the weights v
    met so far, so the string sum at mu is T(mu + beta), and
    T(v) = m(v) 2(v, beta) + T(v + beta), with T = 0 off the weights, which
    the walk up from mu + beta reaches at the first known value.  Every
    weight above mu on a string has a dominant conjugate strictly above mu,
    so the depth order has fixed its multiplicity when mu is reached.
    """
    rs = build_root_system(stype)
    rank = rs.rank
    roots = list(zip(rs.root_weights, rs.positive_roots, _scaled_roots(stype)))

    # depth[mu]: lam - mu in simple-root coordinates, for dominant mu
    depth: dict[Coords, Coords] = {hw: (0,) * rank}
    frontier = [hw]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta_w, beta, _ in roots:
                nu = tuple(a - b for a, b in zip(mu, beta_w))
                if min(nu) >= 0 and nu not in depth:
                    depth[nu] = tuple(a + b for a, b in zip(depth[mu], beta))
                    nxt.append(nu)
        frontier = nxt

    dom = {v: mu for mu in depth for v in weyl_orbit(rs, mu)}

    mult: dict[Coords, int] = {}
    tails: list[dict[Coords, int]] = [{} for _ in roots]
    for mu in sorted(depth, key=lambda v: sum(depth[v])):
        d = depth[mu]
        if not any(d):
            mult[mu] = 1
            continue
        acc = 0
        for (beta_w, _, u), tail in zip(roots, tails):
            path = []
            v = tuple(map(add, mu, beta_w))
            while v not in tail and v in dom:
                path.append(v)
                v = tuple(map(add, v, beta_w))
            s = tail.get(v, 0)
            for v in reversed(path):
                s += mult[dom[v]] * sum(map(mul, v, u))
                tail[v] = s
            acc += s
        denom = pairing(rs, tuple(a + b + 2 for a, b in zip(hw, mu)), d)
        m, rem = divmod(2 * acc, denom)
        if rem or m <= 0:
            raise AssertionError(f"Freudenthal gave {2 * acc}/{denom} at {mu} in {stype} {hw}")
        mult[mu] = m

    return tuple(sorted((v, mult[mu]) for v, mu in dom.items()))


def weight_multiset(
    alg: SemisimpleAlgebra,
    hw: HighestWeight,
    dim_bound: int = DEFAULT_DIMENSION_BOUND,
) -> FormalCharacter:
    """Full weight multiset of an irreducible, as a FormalCharacter.

    The multiset is the product of the simple factors' multisets, taken in
    factor order: weights concatenated, multiplicities multiplied.  Each
    factor's pairs are sorted, with distinct weights of one length, so the
    product, run in lexicographic order, is already the sorted tuple of
    distinct pairs that FormalCharacter.from_counts would give.  A single
    factor's tuple is taken as it is.  The size is checked against the Weyl
    dimension."""
    dim = weyl_dimension(alg, hw)
    if dim > dim_bound:
        raise DimensionBoundError(f"dimension {dim} exceeds bound {dim_bound}")
    per_factor = [_simple_weight_multiset(st, coords)
                  for st, coords in zip(alg.factors, hw.by_factor)]
    weights = per_factor[0]
    for factor in per_factor[1:]:
        weights = tuple((w + v, m * n) for w, m in weights for v, n in factor)
    fc = FormalCharacter(algebra=alg, weights=weights)
    if fc.size != dim:
        raise AssertionError(f"weight multiset size {fc.size} != dimension {dim}")
    return fc


def irreducible_character(alg: SemisimpleAlgebra, flat_hw: Coords,
                          dim_bound: int = DEFAULT_DIMENSION_BOUND) -> FormalCharacter:
    return weight_multiset(alg, HighestWeight.from_flat(alg, flat_hw), dim_bound)


def dual_highest_weight(alg: SemisimpleAlgebra, hw: HighestWeight) -> HighestWeight:
    """Highest weight of the dual irreducible."""
    out = []
    for rs, coords in zip(alg.root_systems(), hw.by_factor):
        out.append(dominant_representative(rs, tuple(-c for c in coords)))
    return HighestWeight(tuple(out))


# benchmarks/spans.py traces these three names under charlattice.reps, their
# home until the catalog and the enumeration moved to charlattice.catalog.
# They are looked up there on each access (PEP 562), never stored here, so
# that a query that does not read the catalog does not compile it, and so that
# the wrapper a tracer puts on the catalog function is the one found.
_IN_CATALOG = ("enumerate_irreps_up_to_dim", "multiplicity_free_catalog",
               "restrict_to_subsystem")


def __getattr__(name: str):
    if name in _IN_CATALOG:
        from . import catalog
        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
