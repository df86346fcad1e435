"""Test oracle: every simple type in a fixed ambient rational realization.

This is the classical coordinate picture the library no longer uses:

* A_n lives in the sum-zero hyperplane of Q^(n+1), simple roots e_i - e_(i+1);
* B_n, C_n, D_n live in Q^n with the usual signed-vector roots;
* E6, E7, E8 live in Q^8 (E6 and E7 as the spans of the first six and seven
  simple roots of E8); F4 lives in Q^4 and G2 in the sum-zero hyperplane of Q^3.

All roots come from closing the simple roots under reflections, and the
fundamental weights from inverting the Cartan matrix, all in Fractions.
Nothing here imports the library's root datum, so the integer data built from
the Cartan matrix can be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from charlattice import linalg
from charlattice.linalg import Vec
from charlattice.rootsys import SimpleType

Q = Fraction


@dataclass(frozen=True)
class AmbientRootSystem:
    stype: SimpleType
    simple_roots: tuple[Vec, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: frozenset[Vec]
    fundamental_weights: tuple[Vec, ...]


def pairing(v: Vec, root: Vec) -> Fraction:
    # <v, root^vee> = 2 (v, root) / (root, root)
    return 2 * linalg.dot(v, root) / linalg.dot(root, root)


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


@lru_cache(maxsize=None)
def ambient_root_system(stype: SimpleType) -> AmbientRootSystem:
    dim, simple = simple_roots_for(stype)
    n = stype.rank
    cartan = tuple(
        tuple(int(pairing(simple[i], simple[j])) for j in range(n)) for i in range(n)
    )
    inv = linalg.invert(linalg.mat(cartan))
    fundamental = tuple(
        tuple(sum((inv[i][j] * simple[j][k] for j in range(n)), Q(0)) for k in range(dim))
        for i in range(n)
    )
    rho = tuple(sum(col, Q(0)) for col in zip(*fundamental))
    positive = frozenset(r for r in reflection_closure(simple) if linalg.dot(rho, r) > 0)
    return AmbientRootSystem(stype, simple, cartan, positive, fundamental)


def gram(vectors) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(linalg.dot(a, b) for b in vectors) for a in vectors)
