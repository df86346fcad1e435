"""Finite root systems as integer data read off the Cartan matrix.

Each supported Cartan type is fixed by its Dynkin diagram in Bourbaki
numbering and by the squared lengths l of its simple roots, taken from the
classical coordinate realizations: 2 for every root of A, D and E; long 2 and
short 1 in B and F4; short 2 and long 4 in C; short 2 and long 6 in G2.

Roots are integer vectors in simple-root coordinates and weights integer
vectors in the fundamental-weight basis.  Since (omega_k, alpha_j) is
delta_kj l_j / 2, a weight w meets a root beta through one integer pairing,
2(w, beta) = sum_k w_k beta_k l_k, and every inner product in the package
comes from it: two roots pair by first taking one to fundamental coordinates
(row i of the Cartan matrix is alpha_i there).  No ambient vector space is
ever built.

The diagram table `_diagram` is the only place the Bourbaki numbering is
written down.  Every Cartan matrix is built from it by `_cartan`, and the
components of a root subsystem are typed and put in standard order by
matching their Cartan integers against `_cartan`'s matrices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

from . import linalg
from ._record import record

Coords = tuple[int, ...]


class CartanTypeError(ValueError):
    """A family letter or rank outside the supported classification."""


# build_root_system refuses a higher rank.  A_n has n(n+1)/2 positive roots,
# and a cold `dim A300 w1` takes 3.6-4.8 s and 243 MB on a 2-core host, about
# three times as much as A200; SimpleType itself stays unbounded.
MAX_ROOT_DATUM_RANK = 300


_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@record(order=True)
class SimpleType:
    """One simple Cartan type, e.g. A3 or E8."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        lo_hi = _RANK_BOUNDS.get(self.family)
        if lo_hi is None:
            raise CartanTypeError(f"unknown family {self.family!r}")
        lo, hi = lo_hi
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise CartanTypeError(f"rank {self.rank} not valid for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdecimal():
            raise CartanTypeError(f"cannot parse simple type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


@record
class RootSystem:
    """The integer root datum of one simple type.

    cartan_matrix[i][j] = <alpha_i, alpha_j^vee>, so row i is alpha_i in
    fundamental coordinates; root_lengths[i] = (alpha_i, alpha_i).
    positive_roots are in simple-root coordinates, ordered by height, so the
    highest root comes last.
    """

    stype: SimpleType
    cartan_matrix: tuple[Coords, ...]
    root_lengths: Coords
    positive_roots: tuple[Coords, ...]

    @property
    def rank(self) -> int:
        return self.stype.rank


def _diagram(stype: SimpleType) -> tuple[list[tuple[int, int]], Coords]:
    """Dynkin diagram edges in Bourbaki numbering and the simple-root lengths."""
    fam, n = stype.family, stype.rank
    chain = [(i, i + 1) for i in range(n - 1)]
    if fam == "A":
        return chain, (2,) * n
    if fam == "B":
        return chain, (2,) * (n - 1) + (1,)
    if fam == "C":
        return chain, (2,) * (n - 1) + (4,)
    if fam == "D":
        return chain[:-1] + [(n - 3, n - 1)], (2,) * n
    if fam == "E":
        return [(0, 2), (1, 3)] + chain[2:], (2,) * n
    if fam == "F":
        return chain, (2, 2, 1, 1)
    if fam == "G":
        return chain, (2, 6)
    raise CartanTypeError(f"unsupported family {fam!r}")


def _positive_roots(cartan: tuple[Coords, ...]) -> tuple[Coords, ...]:
    """Positive roots in simple-root coordinates.

    Roots are generated by height along alpha-strings: with p the number of
    steps the alpha_i-string through beta reaches below beta, beta + alpha_i
    is a root exactly when p > <beta, alpha_i^vee>.  Each p is recorded when
    the root below is processed, one height earlier.  The roots come out by
    height, so the highest root comes last.
    """
    n = len(cartan)
    weight: dict[Coords, Coords] = {}
    down: dict[Coords, dict[int, int]] = {}
    level = []
    for i in range(n):
        simple = tuple(int(j == i) for j in range(n))
        weight[simple] = cartan[i]
        down[simple] = {}
        level.append(simple)
    while level:
        nxt = []
        for beta in level:
            w, below = weight[beta], down[beta]
            for i in range(n):
                p = below.get(i, 0)
                if p <= w[i]:
                    continue
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if up not in weight:
                    weight[up] = tuple(a + b for a, b in zip(w, cartan[i]))
                    down[up] = {}
                    nxt.append(up)
                down[up][i] = p + 1
        level = nxt
    return tuple(weight)


def pairing(rs: RootSystem, w: Coords, beta: Coords) -> int:
    """2(w, beta) for a weight w in fundamental and beta in simple-root coordinates."""
    return sum(a * c * l for a, c, l in zip(w, beta, rs.root_lengths))


def root_weight(rs: RootSystem, beta: Coords) -> Coords:
    """A vector in simple-root coordinates, expressed in fundamental coordinates."""
    out = [0] * rs.rank
    for c, row in zip(beta, rs.cartan_matrix):
        if c:
            for j, a in enumerate(row):
                out[j] += c * a
    return tuple(out)


def coroot(rs: RootSystem, beta: Coords) -> Coords:
    """beta^vee = 2 beta / (beta, beta) in simple-coroot coordinates, which are
    2 beta_k l_k / 2(beta, beta) since alpha_k = (l_k / 2) alpha_k^vee."""
    norm2 = pairing(rs, root_weight(rs, beta), beta)
    out = []
    for c, l in zip(beta, rs.root_lengths):
        k, rem = divmod(2 * c * l, norm2)
        if rem:
            raise AssertionError(f"non-integral coroot of {beta}")
        out.append(k)
    return tuple(out)


_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


@lru_cache(maxsize=None)
def _cartan(stype: SimpleType) -> tuple[Coords, ...]:
    """Cartan matrix of stype from its Dynkin diagram: a bond has
    2(alpha_i, alpha_j) = -max(l_i, l_j), so a_ij = -max(l_i, l_j) / l_j."""
    edges, lengths = _diagram(stype)
    n = stype.rank
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        bond = max(lengths[i], lengths[j])
        cartan[i][j] = -(bond // lengths[j])
        cartan[j][i] = -(bond // lengths[i])
    return tuple(map(tuple, cartan))


@lru_cache(maxsize=None)
def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct the integer root datum of stype from its Cartan matrix."""
    if stype.rank > MAX_ROOT_DATUM_RANK:
        raise CartanTypeError(
            f"rank {stype.rank} of {stype} exceeds the root-datum limit {MAX_ROOT_DATUM_RANK}")
    cartan = _cartan(stype)
    roots = _positive_roots(cartan)
    if 2 * len(roots) != _ROOT_COUNT[stype.family](stype.rank):
        raise AssertionError(f"root strings of {stype} produced {len(roots)} positive roots")
    return RootSystem(stype=stype, cartan_matrix=cartan, root_lengths=_diagram(stype)[1],
                      positive_roots=roots)


def reflect_coords(rs: RootSystem, w: Coords, i: int) -> Coords:
    """Simple reflection s_i on a weight in fundamental coordinates."""
    c = w[i]
    if c == 0:
        return w
    row = rs.cartan_matrix[i]
    return tuple(w[j] - c * row[j] for j in range(rs.rank))


def weyl_orbit(rs: RootSystem, w: Coords) -> frozenset[Coords]:
    """Full Weyl orbit of a weight, by closure under simple reflections."""
    if len(w) != rs.rank:
        raise ValueError(f"weight has {len(w)} coordinates, expected {rs.rank}")
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                image = reflect_coords(rs, v, i)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return frozenset(seen)


def dominant_representative(rs: RootSystem, w: Coords) -> Coords:
    """The dominant weight in the Weyl orbit of w."""
    v = tuple(w)
    while True:
        i = next((k for k in range(rs.rank) if v[k] < 0), None)
        if i is None:
            return v
        v = reflect_coords(rs, v, i)


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

    def component_root_blocks(self) -> tuple[tuple[Coords, ...], ...]:
        ends = itertools.accumulate(ct.rank for ct in self.component_types)
        return tuple(self.selected_roots[end - ct.rank:end]
                     for ct, end in zip(self.component_types, ends))


class ClassificationError(ValueError):
    """A set of roots that is not a valid simple system of known type."""


def _gram(rs: RootSystem, roots) -> list[list[int]]:
    """Doubled Gram matrix 2(x_i, x_j) of vectors in simple-root coordinates:
    the pairing of root_weight(x_i) with x_j, lengths folded into the weight."""
    weights = [tuple(map(mul, root_weight(rs, x), rs.root_lengths)) for x in roots]
    return [[sum(map(mul, w, y)) for y in roots] for w in weights]


def _place(a, keys, std, std_keys) -> list[int] | None:
    """The least placement k_0, k_1, ... of the indices of a with
    a[k_p][k_q] = std[p][q] throughout, by depth-first search; None if none.

    A position bonded to an earlier one draws its candidates from the
    neighbours of the first such, so a chain is placed in quadratic time.
    """
    r = len(std)
    anchors = [next((q for q in range(p) if std[q][p]), None) for p in range(r)]
    placed: list[int] = []

    def candidates(p: int):
        pool = range(r) if anchors[p] is None else (
            j for j in range(r) if a[placed[anchors[p]]][j])
        for k in pool:
            if (k not in placed and keys[k] == std_keys[p]
                    and all(a[k][placed[q]] == std[p][q] and a[placed[q]][k] == std[q][p]
                            for q in range(p))):
                yield k

    pending = []  # per position up to the next one, the candidates not yet tried
    while len(placed) < r:
        if len(pending) == len(placed):
            pending.append(candidates(len(placed)))
        k = next(pending[-1], None)
        if k is not None:
            placed.append(k)
            continue
        pending.pop()
        if not placed:
            return None
        placed.pop()
    return placed


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


def _make_subsystem(rs: RootSystem, roots: tuple[Coords, ...]) -> Subsystem:
    comps = classify_simple_system(rs, roots)
    selected = tuple(itertools.chain.from_iterable(ordered for _, ordered in comps))
    return Subsystem(
        parent=rs.stype,
        selected_roots=selected,
        component_types=tuple(st for st, _ in comps),
    )


def _highest_root(rs: RootSystem, ctype: SimpleType, component: tuple[Coords, ...]) -> Coords:
    """Highest root of the subsystem generated by one component's simple roots,
    which are in the standard numbering of their type ctype."""
    top = build_root_system(ctype).positive_roots[-1]
    return tuple(
        sum(c * beta[k] for c, beta in zip(top, component)) for k in range(rs.rank))


def equal_rank_subsystems(rs: RootSystem) -> tuple[Subsystem, ...]:
    """All full-rank subsystems reachable by iterated extended-diagram deletion.

    From each subsystem, each component is extended by the negative of its
    highest root and a single node is deleted; the process repeats until no new
    subsystem appears.  Each candidate is classified by matching its components
    against `_cartan`; a full match makes every component's Gram matrix a
    positive multiple of a finite-type symmetrized Cartan matrix, so the rank
    roots kept are independent and the subsystem has full rank.  Subsystems are
    deduplicated by their sorted Cartan-type signature, which identifies
    Weyl-conjugate results at the granularity the downstream arguments need.
    """
    start = _make_subsystem(rs, tuple(tuple(int(i == j) for j in range(rs.rank))
                                      for i in range(rs.rank)))
    seen = {start.signature}
    queue = [start]
    out = [start]
    while queue:
        sub = queue.pop()
        blocks = sub.component_root_blocks()
        for b, (ctype, block) in enumerate(zip(sub.component_types, blocks)):
            extended = block + (tuple(-c for c in _highest_root(rs, ctype, block)),)
            others = tuple(itertools.chain.from_iterable(
                blk for c, blk in enumerate(blocks) if c != b
            ))
            for skip in range(len(extended)):
                candidate = _make_subsystem(rs, others + extended[:skip] + extended[skip + 1:])
                if candidate.signature not in seen:
                    seen.add(candidate.signature)
                    out.append(candidate)
                    queue.append(candidate)
    out.sort(key=lambda s: (len(s.component_types), s.signature, s.selected_roots))
    return tuple(out)


def type_a_equal_rank(rs: RootSystem) -> Subsystem:
    """A deterministic equal-rank subsystem with all components of type A.

    Candidates are ordered by (number of components, signature, roots) and the
    first is returned, so a single component wins over a finer splitting.
    """
    candidates = [
        s for s in equal_rank_subsystems(rs)
        if all(ct.family == "A" for ct in s.component_types)
    ]
    if not candidates:
        raise AssertionError(f"no all-type-A equal-rank subsystem for {rs.stype}")
    return candidates[0]


# ---------------------------------------------------------------------------
# Diagram automorphisms acting on fundamental coordinates.


@record
class LatticeInvolution:
    """An integer weight-lattice map squaring to the identity."""

    matrix: tuple[Coords, ...]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("involution matrix must be square")
        square = linalg.matmul(self.matrix, self.matrix)
        if square != linalg.identity(n):
            raise ValueError("matrix does not square to the identity")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def order(self) -> int:
        return 1 if self.matrix == linalg.identity(self.rank) else 2

    def apply(self, w: Coords) -> Coords:
        return tuple(int(sum(row[j] * w[j] for j in range(len(w)))) for row in self.matrix)

    @classmethod
    def identity(cls, rank: int) -> "LatticeInvolution":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)))

    @classmethod
    def negation(cls, rank: int) -> "LatticeInvolution":
        return cls(tuple(tuple(-1 if i == j else 0 for j in range(rank)) for i in range(rank)))

    @classmethod
    def from_node_permutation(cls, perm: dict[int, int], rank: int) -> "LatticeInvolution":
        return cls(tuple(tuple(int(j == perm.get(i, i)) for j in range(rank))
                         for i in range(rank)))


def diagram_automorphisms(stype: SimpleType) -> tuple[LatticeInvolution, ...]:
    """The diagram automorphisms of stype that square to the identity, as
    maps on fundamental coordinates.

    The returned involutions include the identity; for D4 they are the three
    swaps of two fork tips, and the two rotations of the fork are left out
    since they do not square to the identity.
    """
    n = stype.rank
    invs = [LatticeInvolution.identity(n)]
    if stype.family == "A" and n >= 2:
        invs.append(LatticeInvolution.from_node_permutation(
            {i: n - 1 - i for i in range(n)}, n))
    elif stype.family == "D" and n == 4:
        # The fork tips are nodes 0, 2, 3 in standard numbering.
        for a, b in ((0, 2), (0, 3), (2, 3)):
            invs.append(LatticeInvolution.from_node_permutation({a: b, b: a}, n))
    elif stype.family == "D" and n >= 5:
        invs.append(LatticeInvolution.from_node_permutation({n - 2: n - 1, n - 1: n - 2}, n))
    elif stype == SimpleType("E", 6):
        invs.append(LatticeInvolution.from_node_permutation({0: 5, 5: 0, 2: 4, 4: 2}, n))
    return tuple(invs)
