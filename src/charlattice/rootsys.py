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
written down.  Every Cartan matrix is built from it by `_cartan`, and
charlattice.subsystems types the components of a root subsystem and puts
them in standard order by matching their Cartan integers against `_cartan`'s
matrices.
"""

from __future__ import annotations

from functools import lru_cache

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
    highest root comes last; root_weights[k] is positive_roots[k] in
    fundamental coordinates, root_weight(self, positive_roots[k]).
    """

    stype: SimpleType
    cartan_matrix: tuple[Coords, ...]
    root_lengths: Coords
    positive_roots: tuple[Coords, ...]
    root_weights: tuple[Coords, ...]

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


def _positive_roots(cartan: tuple[Coords, ...]) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
    """Positive roots in simple-root coordinates, and each in fundamental
    coordinates.

    Roots are generated by height along alpha-strings: with p the number of
    steps the alpha_i-string through beta reaches below beta, beta + alpha_i
    is a root exactly when p > <beta, alpha_i^vee>.  Each p is recorded when
    the root below is processed, one height earlier; the fundamental
    coordinates give those pairings and are kept, aligned with the roots.
    The roots come out by height, so the highest root comes last.
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
    return tuple(weight), tuple(weight.values())


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
    roots, weights = _positive_roots(cartan)
    if 2 * len(roots) != _ROOT_COUNT[stype.family](stype.rank):
        raise AssertionError(f"root strings of {stype} produced {len(roots)} positive roots")
    return RootSystem(stype=stype, cartan_matrix=cartan, root_lengths=_diagram(stype)[1],
                      positive_roots=roots, root_weights=weights)


def reflect_coords(rs: RootSystem, w: Coords, i: int) -> Coords:
    """Simple reflection s_i on a weight in fundamental coordinates."""
    c = w[i]
    if c == 0:
        return w
    row = rs.cartan_matrix[i]
    return tuple(w[j] - c * row[j] for j in range(rs.rank))


def weyl_orbit(rs: RootSystem, w: Coords) -> frozenset[Coords]:
    """Full Weyl orbit of a weight, as the descent tree under its dominant
    conjugate.

    dominant_representative steps from u to s_j u for the least j with
    u_j < 0, so the children of v are the s_i v with v_i > 0 and no negative
    coordinate before i, and every orbit point is reached once.
    """
    if len(w) != rs.rank:
        raise ValueError(f"weight has {len(w)} coordinates, expected {rs.rank}")
    orbit = []
    stack = [dominant_representative(rs, w)]
    while stack:
        v = stack.pop()
        orbit.append(v)
        for i, c in enumerate(v):
            if c > 0:
                u = reflect_coords(rs, v, i)
                if min(u[:i], default=0) >= 0:
                    stack.append(u)
    return frozenset(orbit)


def dominant_representative(rs: RootSystem, w: Coords) -> Coords:
    """The dominant weight in the Weyl orbit of w."""
    v = tuple(w)
    while True:
        i = next((k for k in range(rs.rank) if v[k] < 0), None)
        if i is None:
            return v
        v = reflect_coords(rs, v, i)


def first_placement(size: int, candidates) -> list | None:
    """The first list p_0, ..., p_(size-1) with each p_k drawn from the
    iterator candidates(placed), placed = [p_0, ..., p_(k-1)], by an iterative
    depth-first search in candidate order; None if there is none.  No
    candidate is None, and `placed` is one list that holds just those p_j
    whenever an iterator is advanced."""
    placed: list = []
    pending = []  # per position up to the next one, the candidates not yet tried
    while len(placed) < size:
        if len(pending) == len(placed):
            pending.append(candidates(placed))
        k = next(pending[-1], None)
        if k is not None:
            placed.append(k)
            continue
        pending.pop()
        if not placed:
            return None
        placed.pop()
    return placed


# benchmarks/spans.py traces these three names under charlattice.rootsys, their
# home until the subsystem search moved to charlattice.subsystems.  They are
# looked up there on each access (PEP 562), never stored here, so that a query
# that does not run the search does not compile it, and so that the wrapper a
# tracer puts on the subsystems function is the one found.
_IN_SUBSYSTEMS = ("equal_rank_subsystems", "type_a_equal_rank", "diagram_automorphisms")


def __getattr__(name: str):
    if name in _IN_SUBSYSTEMS:
        from . import subsystems
        return getattr(subsystems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
