"""Irreducible characters of semisimple algebras, exactly.

Weights are integer coordinate vectors in the fundamental-weight basis of a
fixed semisimple algebra (factor coordinates concatenated in order).  Weight
multisets come from Freudenthal's recursion run over the dominant chamber of
each simple factor; everything downstream of that is bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import (
    Coords,
    RootSystem,
    SimpleType,
    build_root_system,
    coroot,
    dominant_representative,
    root_weight,
)

DEFAULT_DIMENSION_BOUND = 100_000


class DimensionBoundError(RuntimeError):
    """A requested weight expansion exceeds the dimension cap."""


class AlgebraMismatchError(ValueError):
    """Characters or weights attached to incompatible algebras."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FormalCharacter:
    """A finite weight multiset over a fixed algebra."""

    algebra: SemisimpleAlgebra
    weights: tuple[tuple[Coords, int], ...]

    def __post_init__(self) -> None:
        for w, m in self.weights:
            if len(w) != self.algebra.rank:
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


def _factor_dimension(rs: RootSystem, hw: Coords) -> int:
    """Weyl's product of <lambda + rho, beta^vee> / <rho, beta^vee> over beta > 0."""
    lam_rho = tuple(c + 1 for c in hw)  # lambda + rho in fundamental coordinates
    num = den = 1
    for co in rs.positive_coroots:
        num *= sum(a * b for a, b in zip(lam_rho, co))
        den *= sum(co)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise AssertionError(f"dimension formula gave {num}/{den} for {rs.stype} {hw}")
    return dim


def weyl_dimension(alg: SemisimpleAlgebra, hw: HighestWeight) -> int:
    """Dimension of the irreducible with the given highest weight."""
    out = 1
    for rs, coords in zip(alg.root_systems(), hw.by_factor):
        if len(coords) != rs.rank:
            raise AlgebraMismatchError("highest weight does not match algebra")
        out *= _factor_dimension(rs, coords)
    return out


@lru_cache(maxsize=None)
def _simple_weight_multiset(stype: SimpleType, hw: Coords) -> tuple[tuple[Coords, int], ...]:
    """Weight multiset of one simple factor by Freudenthal's recursion.

    The saturated weight set is generated from the highest weight by walking
    root strings downward; multiplicities are computed on dominant weights
    only and copied across each Weyl orbit.  Both sides of the recursion are
    cleared to integers with the doubled form: for a weight v and a root
    beta = sum c_k alpha_k, 2(v, beta) = sum_k v_k c_k l_k, and with
    lam - mu = sum d_k alpha_k the denominator 2((lam+rho)^2 - (mu+rho)^2)
    is sum_k d_k l_k (lam + mu + 2 rho)_k.  Each multiplicity then takes one
    exact integer division.
    """
    rs = build_root_system(stype)
    rank = rs.rank
    cartan = rs.cartan_matrix
    lengths = rs.root_lengths

    # below[v]: lam - v in simple-root coordinates
    below: dict[Coords, Coords] = {hw: (0,) * rank}
    frontier = [hw]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                m = v[i]
                if m <= 0:
                    continue
                row = cartan[i]
                cur = v
                for k in range(1, m + 1):
                    cur = tuple(cur[j] - row[j] for j in range(rank))
                    if cur not in below:
                        d = below[v]
                        below[cur] = d[:i] + (d[i] + k,) + d[i + 1:]
                        nxt.append(cur)
        frontier = nxt

    roots = [
        (root_weight(rs, beta), tuple(c * l for c, l in zip(beta, lengths)))
        for beta in rs.positive_roots
    ]

    dominant = sorted((v for v in below if all(c >= 0 for c in v)),
                      key=lambda v: sum(below[v]))
    mult: dict[Coords, int] = {}
    dom_cache: dict[Coords, Coords] = {}

    def dom(v: Coords) -> Coords:
        if v not in dom_cache:
            dom_cache[v] = dominant_representative(rs, v)
        return dom_cache[v]

    for mu in dominant:
        d = below[mu]
        if not any(d):
            mult[mu] = 1
            continue
        acc = 0
        for beta, u in roots:
            k = 1
            while True:
                v = tuple(mu[j] + k * beta[j] for j in range(rank))
                if v not in below:
                    break
                acc += mult[dom(v)] * sum(a * b for a, b in zip(v, u))
                k += 1
        denom = sum(dk * l * (a + b + 2) for dk, l, a, b in zip(d, lengths, hw, mu))
        m, rem = divmod(2 * acc, denom)
        if rem or m <= 0:
            raise AssertionError(f"Freudenthal gave {2 * acc}/{denom} at {mu} in {stype} {hw}")
        mult[mu] = m

    full = {v: mult[dom(v)] for v in below}
    return tuple(sorted(full.items()))


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


@dataclass(frozen=True)
class CatalogEntry:
    stype: SimpleType
    hw: Coords
    dim: int
    label: str


def _binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


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

    def put(hw: Coords, dim: int, label: str) -> None:
        if max_dim is not None and dim > max_dim:
            return
        if hw not in entries:
            entries[hw] = CatalogEntry(stype, hw, dim, label)

    if fam == "A":
        if max_dim is None:
            raise ValueError("type A catalog is infinite; a max_dim bound is required")
        for a in range(1, m + 1):
            hw = tuple(1 if i == a - 1 else 0 for i in range(m))
            label = "std" if a == 1 else ("std*" if a == m else f"alt^{a}(std)")
            put(hw, _binomial(m + 1, a), label)
        a = 2
        while _binomial(m + a, a) <= max_dim:
            put(tuple(a if i == 0 else 0 for i in range(m)),
                _binomial(m + a, a), f"sym^{a}(std)")
            put(tuple(a if i == m - 1 else 0 for i in range(m)),
                _binomial(m + a, a), f"sym^{a}(std*)")
            a += 1
    elif fam == "B":
        put(tuple(1 if i == 0 else 0 for i in range(m)), 2 * m + 1, "std")
        put(tuple(1 if i == m - 1 else 0 for i in range(m)), 2**m, "spin")
    elif fam == "C":
        put(tuple(1 if i == 0 else 0 for i in range(m)), 2 * m, "std")
        if m == 3:
            put((0, 0, 1), 14, "alt^3(std)-primitive")
    elif fam == "D":
        put(tuple(1 if i == 0 else 0 for i in range(m)), 2 * m, "std")
        put(tuple(1 if i == m - 2 else 0 for i in range(m)), 2 ** (m - 1), "half-spin")
        put(tuple(1 if i == m - 1 else 0 for i in range(m)), 2 ** (m - 1), "half-spin")
    elif stype == SimpleType("E", 6):
        put((1, 0, 0, 0, 0, 0), 27, "minuscule")
        put((0, 0, 0, 0, 0, 1), 27, "minuscule")
    elif stype == SimpleType("E", 7):
        put((0, 0, 0, 0, 0, 0, 1), 56, "minuscule")
    elif stype == SimpleType("G", 2):
        put((1, 0), 7, "short-fundamental")
    # E8 and F4 admit no nontrivial multiplicity-free irreducible.
    return tuple(sorted(entries.values(), key=lambda e: (e.dim, e.hw)))


# ---------------------------------------------------------------------------
# Exhaustive irreducible enumeration under a dimension cap.


def _enumerate_simple(stype: SimpleType, dmax: int) -> list[tuple[Coords, int]]:
    rs = build_root_system(stype)
    rank = rs.rank
    out: list[tuple[Coords, int]] = []

    def extend(prefix: list[int], pos: int) -> None:
        coords = tuple(prefix + [0] * (rank - pos))
        dim = _factor_dimension(rs, coords)
        if dim > dmax:
            return
        if pos == rank:
            out.append((coords, dim))
            return
        value = 0
        while True:
            candidate = prefix + [value]
            dim_here = _factor_dimension(rs, tuple(candidate + [0] * (rank - pos - 1)))
            if dim_here > dmax:
                break
            extend(candidate, pos + 1)
            value += 1

    extend([], 0)
    return sorted(out, key=lambda t: (t[1], t[0]))


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
