"""Irreducible characters of semisimple algebras, exactly.

Weights are integer coordinate vectors in the fundamental-weight basis of a
fixed semisimple algebra (factor coordinates concatenated in order).  Weight
multisets come from Freudenthal's recursion run over the dominant chamber of
each simple factor; everything downstream of that is bookkeeping.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._record import record
from .rootsys import (
    Coords,
    RootSystem,
    SimpleType,
    build_root_system,
    coroot,
    dominant_representative,
    pairing,
    root_weight,
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


def negate_character(fc: FormalCharacter) -> FormalCharacter:
    return FormalCharacter.from_counts(
        fc.algebra, {tuple(-c for c in w): m for w, m in fc.weights})


def is_multiplicity_free(fc: FormalCharacter) -> bool:
    return all(m == 1 for _, m in fc.weights)


# ---------------------------------------------------------------------------
# Dimensions and weight multisets.


@lru_cache(maxsize=None)
def _factor_dimension(stype: SimpleType, hw: Coords) -> int:
    """Weyl's product of (lambda + rho, beta) / (rho, beta) over beta > 0, each
    side doubled as in rootsys.pairing: beta dotted with (lambda + rho) o l
    and with rho o l = l.  Memoized per (type, weight), like
    `_simple_weight_multiset`: every weight multiset checks its dimension
    bound first, and the exhaustive enumerations meet a weight again for
    every algebra that contains its factor."""
    rs = build_root_system(stype)
    lengths = rs.root_lengths
    shifted = tuple((c + 1) * l for c, l in zip(hw, lengths))
    num = den = 1
    for beta in rs.positive_roots:
        num *= sum(a * b for a, b in zip(beta, shifted))
        den *= sum(a * b for a, b in zip(beta, lengths))
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
    """
    rs = build_root_system(stype)
    rank = rs.rank
    lengths = rs.root_lengths
    roots = [(root_weight(rs, beta), beta, tuple(c * l for c, l in zip(beta, lengths)))
             for beta in rs.positive_roots]

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
    for mu in sorted(depth, key=lambda v: sum(depth[v])):
        d = depth[mu]
        if not any(d):
            mult[mu] = 1
            continue
        acc = 0
        for beta_w, _, u in roots:
            v = tuple(a + b for a, b in zip(mu, beta_w))
            while v in dom:
                acc += mult[dom[v]] * sum(a * b for a, b in zip(v, u))
                v = tuple(a + b for a, b in zip(v, beta_w))
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
    """Full weight multiset of an irreducible, as a FormalCharacter."""
    dim = weyl_dimension(alg, hw)
    if dim > dim_bound:
        raise DimensionBoundError(f"dimension {dim} exceeds bound {dim_bound}")
    per_factor = [
        _simple_weight_multiset(st, coords)
        for st, coords in zip(alg.factors, hw.by_factor)
    ]
    counts: dict[Coords, int] = {}
    for combo in itertools.product(*per_factor):
        w = tuple(itertools.chain.from_iterable(item[0] for item in combo))
        m = 1
        for item in combo:
            m *= item[1]
        counts[w] = counts.get(w, 0) + m
    fc = FormalCharacter.from_counts(alg, counts)
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


# ---------------------------------------------------------------------------
# The catalog of multiplicity-free irreducibles.


@record
class CatalogEntry:
    stype: SimpleType
    hw: Coords
    dim: int
    label: str


def multiplicity_free_catalog(stype: SimpleType, max_dim: int | None = None) -> tuple[CatalogEntry, ...]:
    """The multiplicity-free irreducibles of one simple type.

    For type A the list (symmetric and alternating powers of the standard
    representation and its dual) is infinite, so max_dim is required there.
    Low-rank coincidences are not collapsed: each type reports its own list
    verbatim, so e.g. B2 reports both its standard and spin entries even
    though C2 would present the same algebra differently.
    """
    fam, m = stype.family, stype.rank
    entries: dict[Coords, CatalogEntry] = {}

    def put(node: int, dim: int, label: str, coeff: int = 1) -> None:
        if max_dim is not None and dim > max_dim:
            return
        hw = (0,) * node + (coeff,) + (0,) * (m - 1 - node)
        if hw not in entries:
            entries[hw] = CatalogEntry(stype, hw, dim, label)

    if fam == "A":
        if max_dim is None:
            raise ValueError("type A catalog is infinite; a max_dim bound is required")
        # alt^a and alt^(m+1-a) share the dimension C(m+1, a), which grows
        # with a up to the middle; sym^a has C(m+a, a), which grows with a.
        # Each loop stops at the first dimension above max_dim.
        dim = 1
        for a in range(1, (m + 1) // 2 + 1):
            dim = dim * (m + 2 - a) // a
            if dim > max_dim:
                break
            for b in {a, m + 1 - a}:
                put(b - 1, dim, "std" if b == 1 else ("std*" if b == m else f"alt^{b}(std)"))
        a, dim = 2, (m + 1) * (m + 2) // 2
        while dim <= max_dim:
            put(0, dim, f"sym^{a}(std)", a)
            put(m - 1, dim, f"sym^{a}(std*)", a)
            a += 1
            dim = dim * (m + a) // a
    elif fam == "B":
        put(0, 2 * m + 1, "std")
        put(m - 1, 2**m, "spin")
    elif fam == "C":
        put(0, 2 * m, "std")
        if m == 3:
            put(2, 14, "alt^3(std)-primitive")
    elif fam == "D":
        put(0, 2 * m, "std")
        put(m - 2, 2 ** (m - 1), "half-spin")
        put(m - 1, 2 ** (m - 1), "half-spin")
    elif stype == SimpleType("E", 6):
        put(0, 27, "minuscule")
        put(5, 27, "minuscule")
    elif stype == SimpleType("E", 7):
        put(6, 56, "minuscule")
    elif stype == SimpleType("G", 2):
        put(0, 7, "short-fundamental")
    # E8 and F4 admit no nontrivial multiplicity-free irreducible.
    return tuple(sorted(entries.values(), key=lambda e: (e.dim, e.hw)))


# ---------------------------------------------------------------------------
# Exhaustive irreducible enumeration under a dimension cap.


@lru_cache(maxsize=None)
def _enumerate_simple(stype: SimpleType, dmax: int) -> tuple[tuple[Coords, int], ...]:
    """Highest weights and dimensions of the irreducibles of one simple type
    of dimension at most dmax, sorted by (dimension, weight)."""
    rank = stype.rank
    out: list[tuple[Coords, int]] = []

    def extend(prefix: list[int], dim: int) -> None:
        # dim is the dimension at prefix padded with zeros, and at most dmax.
        pos = len(prefix)
        if pos == rank:
            out.append((tuple(prefix), dim))
            return
        extend(prefix + [0], dim)
        value = 1
        while True:
            candidate = prefix + [value]
            dim_here = _factor_dimension(stype, tuple(candidate + [0] * (rank - pos - 1)))
            if dim_here > dmax:
                break
            extend(candidate, dim_here)
            value += 1

    extend([], 1)
    return tuple(sorted(out, key=lambda t: (t[1], t[0])))


def enumerate_irreps_up_to_dim(alg: SemisimpleAlgebra, dmax: int) -> tuple[tuple[HighestWeight, int], ...]:
    """All irreducibles of dimension at most dmax, sorted by dimension.

    The per-coordinate search stops as soon as the dimension formula exceeds
    the cap, which is sound because the dimension is strictly monotone in
    every fundamental coordinate.
    """
    if dmax < 1:
        return ()
    per_factor = [_enumerate_simple(st, dmax) for st in alg.factors]
    combos: list[tuple[HighestWeight, int]] = []

    def build(i: int, chosen: list[Coords], dim_so_far: int) -> None:
        if i == len(per_factor):
            combos.append((HighestWeight(tuple(chosen)), dim_so_far))
            return
        budget = dmax // dim_so_far
        for coords, d in per_factor[i]:
            if d > budget:
                break
            build(i + 1, chosen + [coords], dim_so_far * d)

    build(0, [], 1)
    combos.sort(key=lambda t: (t[1], t[0].flat()))
    return tuple(combos)


# ---------------------------------------------------------------------------
# Restriction to an equal-rank subsystem.


def restrict_to_subsystem(fc: FormalCharacter, sub) -> FormalCharacter:
    """Re-express a character in the fundamental coordinates of a subsystem.

    The subsystem must be a full-rank subsystem of the character's (simple)
    algebra; the weight multiset itself is unchanged.
    """
    if len(fc.algebra.factors) != 1 or fc.algebra.factors[0] != sub.parent:
        raise AlgebraMismatchError(
            f"character over {fc.algebra} cannot restrict along a subsystem of {sub.parent}")
    rs = build_root_system(sub.parent)
    coroots = [coroot(rs, beta) for beta in sub.selected_roots]
    counts: dict[Coords, int] = {}
    for w, m in fc.weights:
        key = tuple(sum(a * b for a, b in zip(row, w)) for row in coroots)
        counts[key] = counts.get(key, 0) + m
    return FormalCharacter.from_counts(SemisimpleAlgebra(sub.component_types), counts)
