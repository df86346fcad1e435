"""Test oracle: every simple type in a fixed ambient rational realization.

This is the classical coordinate picture the library no longer uses:

* A_n lives in the sum-zero hyperplane of Q^(n+1), simple roots e_i - e_(i+1);
* B_n, C_n, D_n live in Q^n with the usual signed-vector roots;
* E6, E7, E8 live in Q^8 (E6 and E7 as the spans of the first six and seven
  simple roots of E8); F4 lives in Q^4 and G2 in the sum-zero hyperplane of Q^3.

The roots of A-D are the closed-form lists e_i - e_j, +-e_i +- e_j, +-e_i and
+-2e_i; those of E, F and G come from closing the simple roots under
reflections (test_rootsys checks the closed forms against that closure at
rank <= 5).  The fundamental weights come from inverting the Cartan matrix.
Everything is in Fractions, with the oracle's own dot product and inverse:
nothing here imports the library's root datum or linear algebra, so the
integer data built from the Cartan matrix can be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from charlattice.rootsys import SimpleType

Q = Fraction
Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class AmbientRootSystem:
    stype: SimpleType
    simple_roots: tuple[Vec, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: frozenset[Vec]
    fundamental_weights: tuple[Vec, ...]


def dot(x: Vec, y: Vec) -> Fraction:
    # most vectors here are roots, with few nonzero entries: skip zero products
    return sum((a * b for a, b in zip(x, y) if a and b), Q(0))


def inverse(m) -> tuple[Vec, ...]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan in Fractions."""
    n = len(m)
    work = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[pivot] = work[pivot], work[c]
        work[c] = [x / work[c][c] for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def pairing(v: Vec, root: Vec) -> Fraction:
    # <v, root^vee> = 2 (v, root) / (root, root)
    return 2 * dot(v, root) / dot(root, root)


def _add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def _sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def _scale(c: Fraction, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def _e(dim: int, i: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(dim))


def simple_roots_for(stype: SimpleType) -> tuple[int, tuple[Vec, ...]]:
    """Ambient dimension and simple-root vectors of the fixed realization."""
    fam, n = stype.family, stype.rank
    if fam == "A":
        dim = n + 1
        return dim, tuple(_sub(_e(dim, i), _e(dim, i + 1)) for i in range(n))
    if fam in "BCD":
        dim = n
        chain = [_sub(_e(dim, i), _e(dim, i + 1)) for i in range(n - 1)]
        if fam == "B":
            last = _e(dim, n - 1)
        elif fam == "C":
            last = _scale(Q(2), _e(dim, n - 1))
        else:
            last = _add(_e(dim, n - 2), _e(dim, n - 1))
        return dim, tuple(chain + [last])
    if fam == "E":
        half = Q(1, 2)
        alpha1 = tuple(half if i in (0, 7) else -half for i in range(8))
        e8 = [alpha1, _add(_e(8, 0), _e(8, 1))]
        e8 += [_sub(_e(8, i), _e(8, i - 1)) for i in range(1, 7)]
        return 8, tuple(e8[:n])
    if fam == "F":
        half = Q(1, 2)
        return 4, (
            _sub(_e(4, 1), _e(4, 2)),
            _sub(_e(4, 2), _e(4, 3)),
            _e(4, 3),
            (half, -half, -half, -half),
        )
    if fam == "G":
        return 3, (
            _sub(_e(3, 0), _e(3, 1)),
            _add(_scale(Q(-2), _e(3, 0)), _add(_e(3, 1), _e(3, 2))),
        )
    raise ValueError(f"unsupported family {fam!r}")


def reflection_closure(generators: tuple[Vec, ...]) -> set[Vec]:
    """Close a set of roots under the reflections in the listed roots."""
    roots = set(generators)
    frontier = list(generators)
    while frontier:
        nxt = []
        for r in frontier:
            for s in generators:
                image = _sub(r, _scale(pairing(r, s), s))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return roots


def all_roots(stype: SimpleType) -> set[Vec]:
    """Every root of the realization: closed-form lists for A-D, the
    reflection closure of the simple roots for E, F and G."""
    fam, n = stype.family, stype.rank
    if fam not in "ABCD":
        return reflection_closure(simple_roots_for(stype)[1])
    dim = n + 1 if fam == "A" else n
    e = [_e(dim, i) for i in range(dim)]
    if fam == "A":
        return {_sub(e[i], e[j]) for i in range(dim) for j in range(dim) if i != j}
    roots = set()
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.add(_add(_scale(Q(si), e[i]), _scale(Q(sj), e[j])))
        for s in (1, -1):
            if fam == "B":
                roots.add(_scale(Q(s), e[i]))
            elif fam == "C":
                roots.add(_scale(Q(2 * s), e[i]))
    return roots


@lru_cache(maxsize=None)
def ambient_root_system(stype: SimpleType) -> AmbientRootSystem:
    dim, simple = simple_roots_for(stype)
    n = stype.rank
    cartan = tuple(
        tuple(int(pairing(simple[i], simple[j])) for j in range(n)) for i in range(n)
    )
    inv = inverse(cartan)
    fundamental = tuple(
        tuple(sum((inv[i][j] * simple[j][k] for j in range(n) if simple[j][k]), Q(0))
              for k in range(dim))
        for i in range(n)
    )
    rho = tuple(sum(col, Q(0)) for col in zip(*fundamental))
    positive = frozenset(r for r in all_roots(stype) if dot(rho, r) > 0)
    return AmbientRootSystem(stype, simple, cartan, positive, fundamental)


def gram(vectors) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(dot(a, b) for b in vectors) for a in vectors)
