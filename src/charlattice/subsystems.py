"""Equal-rank root subsystems by iterated extended-diagram deletion, and the
diagram automorphisms of each simple type.

The components of a subsystem are typed and put in standard order by matching
their Cartan integers against the matrices of rootsys's `_cartan`.  Only the
`subsystems` command and the verification cases run this code, so a query
that only reads a root datum or a character does not load it.
"""

from __future__ import annotations

import itertools
from operator import mul

from ._record import record
from .rootsys import (_RANK_BOUNDS, CartanTypeError, Coords, RootSystem, SimpleType, _cartan,
                      build_root_system, first_placement, root_weight)

# equal_rank_subsystems refuses a higher rank.  B20 and C20 (627 subsystems
# each) take about 4 s in process on a 2-core host and B24 16 s; every family
# grows without bound (A100 takes 5 s).
MAX_SUBSYSTEM_RANK = 20


# ---------------------------------------------------------------------------
# Equal-rank subsystems by iterated extended-diagram node deletion.


@record
class Subsystem:
    """A full-rank root subsystem, recorded by an ordered simple system.

    selected_roots concatenates the components' simple roots, in the parent's
    simple-root coordinates, in the order of component_types; each
    component's roots follow the standard numbering of its type, so pairing a
    parent weight against the coroots of selected_roots yields fundamental
    coordinates for the subsystem.
    """

    parent: SimpleType
    selected_roots: tuple[Coords, ...]
    component_types: tuple[SimpleType, ...]

    @property
    def signature(self) -> tuple[SimpleType, ...]:
        return tuple(sorted(self.component_types))


class ClassificationError(ValueError):
    """A set of roots that is not a valid simple system of known type."""


def _gram(rs: RootSystem, roots) -> list[list[int]]:
    """Doubled Gram matrix 2(x_i, x_j) of vectors in simple-root coordinates:
    the pairing of root_weight(x_i) with x_j, lengths folded into the weight."""
    weights = [tuple(map(mul, root_weight(rs, x), rs.root_lengths)) for x in roots]
    return [[sum(map(mul, w, y)) for y in roots] for w in weights]


def _place(a, keys, std, std_keys) -> list[int] | None:
    """The least placement k_0, k_1, ... of the indices of a with
    a[k_p][k_q] = std[p][q] throughout; None if none.

    A position bonded to an earlier one draws its candidates from the
    neighbours of the first such, so a chain is placed in quadratic time.
    """
    r = len(std)
    anchors = [next((q for q in range(p) if std[q][p]), None) for p in range(r)]

    def candidates(placed: list[int]):
        p = len(placed)
        pool = range(r) if anchors[p] is None else (
            j for j in range(r) if a[placed[anchors[p]]][j])
        for k in pool:
            if (k not in placed and keys[k] == std_keys[p]
                    and all(a[k][placed[q]] == std[p][q] and a[placed[q]][k] == std[q][p]
                            for q in range(p))):
                yield k

    return first_placement(r, candidates)


def _match_component(roots: list[Coords], gram) -> tuple[SimpleType, tuple[Coords, ...]]:
    """Cartan type and standard ordering of one connected simple system.

    The component's Cartan integers a_ij = 2 g_ij / g_jj are matched against
    the standard matrix of each type of its rank.  Positions 0..r-1 are filled
    in turn by the least root whose entries against every root already placed
    are the standard ones, backtracking on a dead end, so the first complete
    placement is the lexicographically least standard ordering.
    """
    r = len(roots)
    order = sorted(range(r), key=roots.__getitem__)
    if any(gram[j][j] <= 0 or 2 * gram[i][j] % gram[j][j] for i in order for j in order):
        raise ClassificationError("roots with a non-integral Cartan entry")
    a = [[2 * gram[i][j] // gram[j][j] for j in order] for i in order]
    keys = [tuple(sorted(row)) for row in a]
    for family, (lo, hi) in _RANK_BOUNDS.items():
        if r < lo or (hi is not None and r > hi):
            continue
        std = _cartan(SimpleType(family, r))
        std_keys = [tuple(sorted(row)) for row in std]
        if sorted(std_keys) != sorted(keys):
            continue
        placed = _place(a, keys, std, std_keys)
        if placed is not None:
            return SimpleType(family, r), tuple(roots[order[k]] for k in placed)
    raise ClassificationError("roots do not form a simple system of finite type")


def classify_simple_system(
    rs: RootSystem, roots: tuple[Coords, ...],
) -> tuple[tuple[SimpleType, tuple[Coords, ...]], ...]:
    """Split a simple system of rs, in simple-root coordinates, into connected
    components with standard orderings.

    Each component is typed by matching its Cartan integers against the
    standard matrix `_cartan` of each type of its rank, and its roots are put
    in the lexicographically least standard ordering.  Components are returned
    sorted by (type, ordered roots), so the result does not depend on the
    order of roots.  Roots that match no type, such as a dependent set, raise
    ClassificationError.
    """
    n = len(roots)
    gram = _gram(rs, roots)
    seen: set[int] = set()
    components = []
    for i in range(n):
        if i in seen:
            continue
        seen.add(i)
        comp, stack = [], [i]
        while stack:
            k = stack.pop()
            comp.append(k)
            bonded = [j for j in range(n) if gram[k][j] and j not in seen]
            seen.update(bonded)
            stack += bonded
        components.append(_match_component(
            [roots[k] for k in comp], [[gram[a][b] for b in comp] for a in comp]))
    return tuple(sorted(components))


def _highest_root(rs: RootSystem, ctype: SimpleType, component: tuple[Coords, ...]) -> Coords:
    """Highest root of the subsystem generated by one component's simple roots,
    which are in the standard numbering of their type ctype."""
    top = build_root_system(ctype).positive_roots[-1]
    return tuple(
        sum(c * beta[k] for c, beta in zip(top, component)) for k in range(rs.rank))


def equal_rank_subsystems(stype: SimpleType) -> tuple[Subsystem, ...]:
    """All full-rank subsystems of stype reachable by iterated extended-diagram
    deletion.

    From each subsystem, each component is extended by the negative of its
    highest root and a single node is deleted; the process repeats until no new
    subsystem appears.  Only the changed block is classified: the other
    components are orthogonal to it and to its highest root, so a candidate
    keeps the typed components it shares with its parent subsystem.  A full
    match makes every component's Gram matrix a positive multiple of a
    finite-type symmetrized Cartan matrix, so the rank roots kept are
    independent and the subsystem has full rank.  Subsystems are deduplicated
    by their sorted Cartan-type signature, which identifies Weyl-conjugate
    results at the granularity the downstream arguments need.

    A type of rank above MAX_SUBSYSTEM_RANK = 20 raises CartanTypeError before
    its root datum is built.
    """
    if stype.rank > MAX_SUBSYSTEM_RANK:
        raise CartanTypeError(
            f"rank {stype.rank} of {stype} exceeds the subsystem-search limit {MAX_SUBSYSTEM_RANK}")
    rs = build_root_system(stype)
    start = classify_simple_system(rs, tuple(tuple(int(i == j) for j in range(rs.rank))
                                             for i in range(rs.rank)))
    seen = {tuple(st for st, _ in start): start}
    queue = [start]
    while queue:
        comps = queue.pop()
        for b, (ctype, block) in enumerate(comps):
            kept = comps[:b] + comps[b + 1:]
            extended = block + (tuple(-c for c in _highest_root(rs, ctype, block)),)
            for skip in range(len(extended)):
                candidate = tuple(sorted(kept + classify_simple_system(
                    rs, extended[:skip] + extended[skip + 1:])))
                signature = tuple(st for st, _ in candidate)
                if signature not in seen:
                    seen[signature] = candidate
                    queue.append(candidate)
    out = [Subsystem(parent=rs.stype,
                     selected_roots=tuple(itertools.chain.from_iterable(r for _, r in comps)),
                     component_types=tuple(st for st, _ in comps))
           for comps in seen.values()]
    out.sort(key=lambda s: (len(s.component_types), s.signature, s.selected_roots))
    return tuple(out)


def type_a_equal_rank(stype: SimpleType) -> Subsystem:
    """A deterministic equal-rank subsystem with all components of type A.

    Candidates are ordered by (number of components, signature, roots) and the
    first is returned, so a single component wins over a finer splitting.
    """
    candidates = [
        s for s in equal_rank_subsystems(stype)
        if all(ct.family == "A" for ct in s.component_types)
    ]
    if not candidates:
        raise AssertionError(f"no all-type-A equal-rank subsystem for {stype}")
    return candidates[0]


# ---------------------------------------------------------------------------
# Diagram automorphisms acting on fundamental coordinates.


def diagram_automorphisms(stype: SimpleType) -> tuple[Coords, ...]:
    """The diagram automorphisms of stype that square to the identity, as
    permutations perm of the fundamental coordinates, w -> tuple(w[p] for p
    in perm).

    The identity comes first; for D4 the others are the three swaps of two
    fork tips, and the two rotations of the fork are left out since they do
    not square to the identity.
    """
    n = stype.rank
    perms = [tuple(range(n))]
    if stype.family == "A" and n >= 2:
        perms.append(tuple(reversed(range(n))))
    elif stype.family == "D" and n == 4:
        # The fork tips are nodes 0, 2, 3 in standard numbering.
        perms += [(2, 1, 0, 3), (3, 1, 2, 0), (0, 1, 3, 2)]
    elif stype.family == "D" and n >= 5:
        perms.append(tuple(range(n - 2)) + (n - 1, n - 2))
    elif stype == SimpleType("E", 6):
        perms.append((5, 1, 4, 3, 2, 0))
    return tuple(perms)
