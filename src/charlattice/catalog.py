"""The multiplicity-free catalog, the irreducibles under a dimension cap,
restriction to an equal-rank subsystem, and the allowed pairs of one
dimension behind the divisibility gates.

These are the parts of the character theory that only the `multfree` and
`allowed-pairs` commands and the verification cases read, so a query that
asks for a dimension or a weight multiset does not load them.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import record
from .reps import (AlgebraMismatchError, FormalCharacter, HighestWeight, SemisimpleAlgebra,
                   _factor_dimension)
from .rootsys import Coords, SimpleType, build_root_system, coroot


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
    # level: the prefixes of one length, each with the dimension of the
    # weight it gives padded with zeros, which is at most dmax
    level: list[tuple[Coords, int]] = [((), 1)]
    for pos in range(rank):
        pad = (0,) * (rank - pos - 1)
        longer = []
        for prefix, dim in level:
            longer.append((prefix + (0,), dim))
            value = 1
            while True:
                candidate = prefix + (value,)
                dim_here = _factor_dimension(stype, candidate + pad)
                if dim_here > dmax:
                    break
                longer.append((candidate, dim_here))
                value += 1
        level = longer
    return tuple(sorted(level, key=lambda t: (t[1], t[0])))


def enumerate_irreps_up_to_dim(alg: SemisimpleAlgebra, dmax: int) -> tuple[tuple[HighestWeight, int], ...]:
    """All irreducibles of dimension at most dmax, sorted by dimension.

    The per-coordinate search stops as soon as the dimension formula exceeds
    the cap, which is sound because the dimension is strictly monotone in
    every fundamental coordinate.
    """
    if dmax < 1:
        return ()
    per_factor = [_enumerate_simple(st, dmax) for st in alg.factors]
    # level: the choices for the factors so far, with their dimension
    level: list[tuple[tuple[Coords, ...], int]] = [((), 1)]
    for factor in per_factor:
        longer = []
        for chosen, dim in level:
            budget = dmax // dim
            for coords, d in factor:
                if d > budget:
                    break
                longer.append((chosen + (coords,), dim * d))
        level = longer
    combos = [(HighestWeight(chosen), dim) for chosen, dim in level]
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


# ---------------------------------------------------------------------------
# The catalog gate.

_CATALOG_NOTES = {
    "std": "standard family; handled by the self-dual or count comparison",
    "std*": "dual standard family; handled with its dual partner",
    "alt": "alternating power; equal-norm weight analysis",
    "sym": "symmetric power; maximal-norm rigidity",
    "spin": "spin; conjugation parity analysis",
    "half-spin": "half-spin; conjugation parity analysis",
    "minuscule": "27-dimensional minuscule pair; parity argument",
    "alt^3(std)-primitive": "14-dimensional symplectic fundamental; "
                            "self-dual summand analysis",
    "short-fundamental": "7-dimensional short fundamental; excluded by the "
                         "7-divisibility gate",
}


def _note_for(label: str) -> str:
    if label in _CATALOG_NOTES:
        return _CATALOG_NOTES[label]
    if label.startswith("alt^"):
        return _CATALOG_NOTES["alt"]
    if label.startswith("sym^"):
        return _CATALOG_NOTES["sym"]
    return "catalog entry"


@record
class AllowedPair:
    stype: SimpleType
    hw: Coords
    dim: int
    label: str
    note: str


@record
class AllowedPairsReport:
    n: int
    gate_reasons: tuple[str, ...]
    pairs: tuple[AllowedPair, ...]

    @property
    def gate_passed(self) -> bool:
        return not self.gate_reasons


def allowed_pairs(n: int) -> AllowedPairsReport:
    """All catalog entries of dimension exactly n, behind divisibility gates.

    When 7 | n or 4 | n the report carries the violated gates and the pairs
    that would otherwise be admitted, so callers can surface a diagnostic
    instead of silently filtering.  n above 6000 raises ValueError: the scan
    reads the catalog of every classical rank up to about n and builds the
    coordinates of each entry of dimension at most n, so its time grows like
    n^2 (1.7 s cold at n = 6000 on a 2-core host, 8.6 s at n = 16000).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 6000:
        raise ValueError(f"n must be at most 6000, got {n}")
    reasons = []
    if n % 7 == 0:
        reasons.append("7 divides n")
    if n % 4 == 0:
        reasons.append("4 divides n")

    pairs = []

    def admit(stype: SimpleType) -> bool:
        """Add stype's entries of dimension n; whether it has any up to n."""
        entries = multiplicity_free_catalog(stype, max_dim=n)
        pairs.extend(AllowedPair(stype, e.hw, e.dim, e.label, _note_for(e.label))
                     for e in entries if e.dim == n)
        return bool(entries)

    # Each family's smallest catalog dimension grows with the rank, so the
    # first rank with no entry up to n ends the family.
    for family, m in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        while admit(SimpleType(family, m)):
            m += 1
    for stype in (SimpleType("E", 6), SimpleType("E", 7), SimpleType("G", 2)):
        admit(stype)
    pairs.sort(key=lambda p: (p.stype.family, p.stype.rank, p.hw))
    return AllowedPairsReport(n=n, gate_reasons=tuple(reasons),
                              pairs=tuple(pairs))
