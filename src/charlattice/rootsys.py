"""Finite root systems as integer data read off the Cartan matrix.

Each supported Cartan type is fixed by its Dynkin diagram in Bourbaki
numbering and by the squared lengths l of its simple roots, taken from the
classical coordinate realizations: 2 for every root of A, D and E; long 2 and
short 1 in B and F4; short 2 and long 4 in C; short 2 and long 6 in G2.  The
doubled form S = A diag(l) is an integer matrix with 2(x, y) = x^T S y for
vectors x, y in simple-root coordinates, and every inner product in the
package comes from it.

Roots are integer vectors in simple-root coordinates, coroots integer vectors
in simple-coroot coordinates, and weights integer vectors in the
fundamental-weight basis, so <w, beta^vee> is the plain dot product of a
weight with a coroot.  No ambient vector space is ever built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import linalg

Coords = tuple[int, ...]


class CartanTypeError(ValueError):
    """A family letter or rank outside the supported classification."""


_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
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
        if len(text) < 2 or not text[1:].isdigit():
            raise CartanTypeError(f"cannot parse simple type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


@dataclass(frozen=True)
class RootSystem:
    """The integer root datum of one simple type.

    cartan_matrix[i][j] = <alpha_i, alpha_j^vee>, so row i is alpha_i in
    fundamental coordinates; root_lengths[i] = (alpha_i, alpha_i).
    positive_roots are in simple-root coordinates, ordered by height, and
    positive_coroots[k] is the coroot of positive_roots[k] in simple-coroot
    coordinates.
    """

    stype: SimpleType
    cartan_matrix: tuple[Coords, ...]
    root_lengths: Coords
    positive_roots: tuple[Coords, ...]
    positive_coroots: tuple[Coords, ...]

    @property
    def rank(self) -> int:
        return self.stype.rank

    @property
    def symmetrized_form(self) -> tuple[Coords, ...]:
        """S = A diag(l), with 2(x, y) = x^T S y in simple-root coordinates."""
        return tuple(
            tuple(a * l for a, l in zip(row, self.root_lengths)) for row in self.cartan_matrix
        )


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


def _cartan_from_gram(gram) -> tuple[Coords, ...]:
    """<x_i, x_j^vee> = 2(x_i, x_j) / (x_j, x_j) from a doubled Gram matrix."""
    n = len(gram)
    return tuple(tuple(2 * gram[i][j] // gram[j][j] for j in range(n)) for i in range(n))


def _positive_roots(cartan: tuple[Coords, ...]) -> dict[Coords, Coords]:
    """Positive roots in simple-root coordinates, each mapped to its weight.

    Roots are generated by height along alpha-strings: with p the number of
    steps the alpha_i-string through beta reaches below beta, beta + alpha_i
    is a root exactly when p > <beta, alpha_i^vee>.  Each p is recorded when
    the root below is processed, one height earlier.  Insertion order is by
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
    return weight


def _coroot(lengths: Coords, beta: Coords, weight: Coords) -> Coords:
    """beta^vee = 2 beta / (beta, beta) in simple-coroot coordinates."""
    norm2 = sum(c * w * l for c, w, l in zip(beta, weight, lengths))  # 2 (beta, beta)
    out = []
    for c, l in zip(beta, lengths):
        k, rem = divmod(2 * c * l, norm2)
        if rem:
            raise AssertionError(f"non-integral coroot of {beta}")
        out.append(k)
    return tuple(out)


def root_weight(rs: RootSystem, beta: Coords) -> Coords:
    """A vector in simple-root coordinates, expressed in fundamental coordinates."""
    out = [0] * rs.rank
    for c, row in zip(beta, rs.cartan_matrix):
        if c:
            for j, a in enumerate(row):
                out[j] += c * a
    return tuple(out)


def coroot(rs: RootSystem, beta: Coords) -> Coords:
    """The coroot of a root given in simple-root coordinates."""
    return _coroot(rs.root_lengths, beta, root_weight(rs, beta))


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
def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct the integer root datum of stype from its Dynkin diagram."""
    edges, lengths = _diagram(stype)
    n = stype.rank
    gram = [[2 * lengths[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -max(lengths[i], lengths[j])
    cartan = _cartan_from_gram(gram)
    roots = _positive_roots(cartan)
    if 2 * len(roots) != _ROOT_COUNT[stype.family](n):
        raise AssertionError(f"root strings of {stype} produced {len(roots)} positive roots")
    return RootSystem(
        stype=stype,
        cartan_matrix=cartan,
        root_lengths=lengths,
        positive_roots=tuple(roots),
        positive_coroots=tuple(_coroot(lengths, b, w) for b, w in roots.items()),
    )


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


@dataclass(frozen=True)
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
        blocks = []
        pos = 0
        for ct in self.component_types:
            blocks.append(self.selected_roots[pos:pos + ct.rank])
            pos += ct.rank
        return tuple(blocks)


class ClassificationError(ValueError):
    """A set of roots that is not a valid simple system of known type."""


def _gram(rs: RootSystem, roots) -> list[list[int]]:
    """Doubled Gram matrix 2(x_i, x_j) of vectors in simple-root coordinates."""
    form = rs.symmetrized_form
    images = [tuple(sum(s * c for s, c in zip(row, x)) for row in form) for x in roots]
    return [[sum(a * b for a, b in zip(x, sy)) for sy in images] for x in roots]


def _classify_component(roots: list[Coords], gram) -> tuple[SimpleType, tuple[Coords, ...]]:
    """Cartan type and standard ordering of one connected simple system."""
    r = len(roots)
    if r == 1:
        return SimpleType("A", 1), (roots[0],)
    norm = [gram[i][i] for i in range(r)]
    bond = {}
    adj = {i: [] for i in range(r)}
    for i, j in itertools.combinations(range(r), 2):
        m = 4 * gram[i][j] ** 2 // (norm[i] * norm[j])  # <x_i, x_j^vee> <x_j, x_i^vee>
        if m:
            bond[(i, j)] = bond[(j, i)] = m
            adj[i].append(j)
            adj[j].append(i)
    degrees = {i: len(adj[i]) for i in range(r)}
    triple = [p for p, m in bond.items() if m == 3]
    double = [p for p, m in bond.items() if m == 2]

    if triple:
        if r != 2:
            raise ClassificationError("triple bond outside rank 2")
        i, j = triple[0]
        short, long_ = (i, j) if norm[i] < norm[j] else (j, i)
        return SimpleType("G", 2), (roots[short], roots[long_])

    if double:
        if len(double) > 2:  # bond dict stores both orientations
            raise ClassificationError("several double bonds")
        return _classify_doubled(roots, norm, adj, degrees, double[0])

    # Simply laced: a path is type A, one branch point is type D or E.
    branch = [i for i in range(r) if degrees[i] == 3]
    if not branch:
        return _order_path(roots, adj, "A")
    if len(branch) != 1 or any(degrees[i] > 3 for i in range(r)):
        raise ClassificationError("not a path or single-branch tree")
    return _classify_branched(roots, adj, branch[0])


def _path_order(adj: dict[int, list[int]], start: int) -> list[int]:
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = [k for k in adj[cur] if k != prev]
        if not nxt:
            return order
        prev, cur = cur, nxt[0]
        order.append(cur)


def _order_path(roots: list[Coords], adj, family: str) -> tuple[SimpleType, tuple[Coords, ...]]:
    ends = [i for i in range(len(roots)) if len(adj[i]) <= 1]
    candidates = []
    for e in ends:
        order = _path_order(adj, e)
        candidates.append(tuple(roots[i] for i in order))
    candidates.sort()
    return SimpleType(family, len(roots)), candidates[0]


def _classify_doubled(roots, norm, adj, degrees, pair) -> tuple[SimpleType, tuple[Coords, ...]]:
    r = len(roots)
    i, j = pair
    if degrees[i] == 2 and degrees[j] == 2:
        if r != 4:
            raise ClassificationError("interior double bond outside F4")
        ends = [k for k in range(4) if degrees[k] == 1]
        long_end = max(ends, key=lambda k: norm[k])
        order = _path_order(adj, long_end)
        if norm[order[0]] <= norm[order[-1]]:
            raise ClassificationError("inconsistent F4 lengths")
        return SimpleType("F", 4), tuple(roots[k] for k in order)
    # Double bond at the end of a chain: short end node means B, long means C.
    end_node = i if degrees[i] == 1 else j
    if r == 2:
        i, j = pair
        long_, short = (i, j) if norm[i] > norm[j] else (j, i)
        return SimpleType("B", 2), (roots[long_], roots[short])
    far_ends = [k for k in range(r) if degrees[k] == 1 and k != end_node]
    if len(far_ends) != 1:
        raise ClassificationError("doubled diagram is not a chain")
    order = _path_order(adj, far_ends[0])
    family = "B" if norm[order[-1]] < norm[order[0]] else "C"
    return SimpleType(family, r), tuple(roots[k] for k in order)


def _classify_branched(roots, adj, branch: int) -> tuple[SimpleType, tuple[Coords, ...]]:
    r = len(roots)
    arms = []
    for first in adj[branch]:
        arm = [first]
        prev, cur = branch, first
        while True:
            nxt = [k for k in adj[cur] if k != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), roots[a[-1]]))
    lengths = sorted(len(a) for a in arms)
    if lengths[0] == 1 and lengths[1] == 1:
        # Type D: the two short arms are the fork, the long arm leads in.
        fork_a, fork_b, long_arm = arms[0], arms[1], arms[2]
        order = list(reversed(long_arm)) + [branch]
        tips = sorted([roots[fork_a[0]], roots[fork_b[0]]])
        ordered = tuple(roots[k] for k in order) + (tips[0], tips[1])
        return SimpleType("D", r), ordered
    if lengths == [1, 2, r - 4] or lengths == [1, 2, 2]:
        one = next(a for a in arms if len(a) == 1)
        rest = [a for a in arms if a is not one]
        rest.sort(key=lambda a: (len(a), tuple(roots[k] for k in a)))
        two, tail = rest[0], rest[1]
        if len(two) != 2:
            raise ClassificationError("branched diagram is not of type E")
        # Standard E numbering: a1 and a3 along the short arm, a2 on the spur,
        # a4 at the branch, then the long tail.
        order = [two[1], one[0], two[0], branch] + tail
        return SimpleType("E", r), tuple(roots[k] for k in order)
    raise ClassificationError(f"unrecognized branched diagram with arms {lengths}")


def classify_simple_system(
    rs: RootSystem, roots: tuple[Coords, ...],
) -> tuple[tuple[SimpleType, tuple[Coords, ...]], ...]:
    """Split a simple system of rs, in simple-root coordinates, into connected
    components with standard orderings.

    Components are returned sorted by (type, ordered roots) so the result is
    canonical for a given set of roots.
    """
    n = len(roots)
    gram = _gram(rs, roots)
    adj = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if gram[i][j] != 0:
            adj[i].add(j)
            adj[j].add(i)
    seen: set[int] = set()
    components = []
    for i in range(n):
        if i in seen:
            continue
        stack = [i]
        comp = []
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            comp.append(k)
            stack.extend(adj[k] - seen)
        stype, ordered = _classify_component(
            [roots[k] for k in comp], [[gram[a][b] for b in comp] for a in comp])
        components.append((stype, ordered))
    components.sort(key=lambda c: (c[0], c[1]))
    return tuple(components)


def _make_subsystem(rs: RootSystem, roots: tuple[Coords, ...]) -> Subsystem:
    comps = classify_simple_system(rs, roots)
    selected = tuple(itertools.chain.from_iterable(ordered for _, ordered in comps))
    return Subsystem(
        parent=rs.stype,
        selected_roots=selected,
        component_types=tuple(st for st, _ in comps),
    )


def _highest_root(rs: RootSystem, component: tuple[Coords, ...]) -> Coords:
    """Highest root of the subsystem generated by one component's simple roots."""
    top = next(reversed(_positive_roots(_cartan_from_gram(_gram(rs, component)))))
    return tuple(
        sum(c * beta[k] for c, beta in zip(top, component)) for k in range(rs.rank))


def equal_rank_subsystems(rs: RootSystem) -> tuple[Subsystem, ...]:
    """All full-rank subsystems reachable by iterated extended-diagram deletion.

    From each subsystem, each component is extended by the negative of its
    highest root and a single node is deleted; the process repeats until no new
    subsystem appears.  Subsystems are deduplicated by their sorted Cartan-type
    signature, which identifies Weyl-conjugate results at the granularity the
    downstream arguments need.
    """
    start = _make_subsystem(rs, tuple(tuple(int(i == j) for j in range(rs.rank))
                                      for i in range(rs.rank)))
    seen = {start.signature}
    queue = [start]
    out = [start]
    while queue:
        sub = queue.pop()
        blocks = sub.component_root_blocks()
        for b, block in enumerate(blocks):
            extended = block + (tuple(-c for c in _highest_root(rs, block)),)
            others = tuple(itertools.chain.from_iterable(
                blk for c, blk in enumerate(blocks) if c != b
            ))
            for skip in range(len(extended)):
                kept = others + extended[:skip] + extended[skip + 1:]
                if linalg.rank(kept) != rs.rank:
                    raise AssertionError("deletion lost rank")
                candidate = _make_subsystem(rs, kept)
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


@dataclass(frozen=True)
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
        return 1 if self.matrix == tuple(tuple(r) for r in linalg.identity(self.rank)) else 2

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
        return cls(_permutation_matrix(perm, rank))


def _permutation_matrix(perm: dict[int, int], rank: int) -> tuple[Coords, ...]:
    full = {i: perm.get(i, i) for i in range(rank)}
    return tuple(tuple(1 if j == full[i] else 0 for j in range(rank)) for i in range(rank))


@dataclass(frozen=True)
class DiagramAutomorphisms:
    """Diagram automorphisms of one simple type, split by element order."""

    stype: SimpleType
    involutions: tuple[LatticeInvolution, ...]
    order3: tuple[tuple[Coords, ...], ...]

    @property
    def group_order(self) -> int:
        return len(self.involutions) + len(self.order3)


def diagram_automorphisms(stype: SimpleType) -> DiagramAutomorphisms:
    """Diagram automorphisms as maps on fundamental coordinates.

    The returned involutions include the identity; for D4 the two rotations of
    the fork are reported separately since they do not square to the identity.
    """
    n = stype.rank
    invs = [LatticeInvolution.identity(n)]
    order3: tuple = ()
    if stype.family == "A" and n >= 2:
        invs.append(LatticeInvolution.from_node_permutation(
            {i: n - 1 - i for i in range(n)}, n))
    elif stype.family == "D" and n == 4:
        # The fork tips are nodes 0, 2, 3 in standard numbering.
        for a, b in ((0, 2), (0, 3), (2, 3)):
            invs.append(LatticeInvolution.from_node_permutation({a: b, b: a}, n))
        order3 = (
            _permutation_matrix({0: 2, 2: 3, 3: 0}, n),
            _permutation_matrix({0: 3, 3: 2, 2: 0}, n),
        )
    elif stype.family == "D" and n >= 5:
        invs.append(LatticeInvolution.from_node_permutation({n - 2: n - 1, n - 1: n - 2}, n))
    elif stype == SimpleType("E", 6):
        invs.append(LatticeInvolution.from_node_permutation({0: 5, 5: 0, 2: 4, 4: 2}, n))
    return DiagramAutomorphisms(stype=stype, involutions=tuple(invs), order3=order3)
