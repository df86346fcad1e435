"""Test oracle: weight multisets checked by the Weyl character formula.

For a dominant lam and every dominant mu <= lam, the Weyl character formula
in its dominant-chamber form (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, section 24, with the Weyl denominator identity) reads

    sum over w in W of eps(w) m(mu + rho - w rho) = [mu == lam].

The term w = 1 is m(mu), and every other shift rho - w rho is a nonzero sum
of positive roots, so these identities fix m on the dominant weights one by
one, from lam down.  A shift taller than ht(lam - mu) lands outside the
weights below lam, where m is zero, so only the shorter shifts are read.  The
formula speaks of dominant weights only, so `check_weight_multiset` also asks
that the multiset be stable under every simple reflection and that each of
its dominant weights lie below lam; the three checks together pin the whole
multiset.

W comes from the orbit of rho, which is regular, by a breadth-first closure
under the simple reflections: each orbit point is one w, its depth is the
length of w, and eps(w) = (-1)^length.  The dominant mu <= lam are
enumerated here from the Cartan matrix, never read off the multiset.
Everything is stdlib integers and Fractions: nothing here imports the
library, so its Freudenthal recursion and its Weyl orbits are checked against
an independent computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul

Cartan = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


def weyl_group_order(family: str, rank: int) -> int:
    """|W| of a simple type, as in Bourbaki's plates (*Lie Groups and Lie
    Algebras*, ch. VI): it says which groups are small enough to list, and
    it checks the closure that lists them."""
    n = rank
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2 ** n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}[f"{family}{n}"]


def reflect(cartan: Cartan, v: Weight, i: int) -> Weight:
    """s_i v for v in fundamental coordinates: row i of the Cartan matrix is
    alpha_i, and v_i = <v, alpha_i^vee>."""
    c = v[i]
    return tuple([x - c * a for x, a in zip(v, cartan[i])])


def orbit_closure(cartan: Cartan, w: Weight) -> dict[Weight, int]:
    """The orbit of w under the simple reflections, by breadth-first closure
    with a visited set; each point maps to the length of the shortest word of
    simple reflections that carries w to it.  s_i moves only the coordinates
    where row i of the Cartan matrix is nonzero."""
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    depth = {w: 0}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i, row in enumerate(rows):
                c = v[i]
                if not c:
                    continue
                u = list(v)
                for j, a in row:
                    u[j] -= c * a
                u = tuple(u)
                if u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    return depth


@lru_cache(maxsize=None)
def _inverse(cartan: Cartan) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse of the Cartan matrix, by Gauss-Jordan in Fractions.  Its
    row j is omega_j in simple-root coordinates, and every entry of it is
    positive for a simple type."""
    n = len(cartan)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(cartan)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if work[i][c])
        work[c], work[pivot] = work[pivot], work[c]
        work[c] = [x / work[c][c] for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def root_coords(cartan: Cartan, v: Weight) -> list[Fraction]:
    """v, given in fundamental coordinates, in simple-root coordinates."""
    inv = _inverse(cartan)
    return [sum((x * row[k] for x, row in zip(v, inv)), Fraction(0))
            for k in range(len(cartan))]


@lru_cache(maxsize=None)
def weyl_shifts(cartan: Cartan) -> tuple[tuple[int, int, Weight], ...]:
    """(ht(rho - w rho), eps(w), rho - w rho) for every w in W, by height."""
    rho = (1,) * len(cartan)
    # ht(v) = sum_j v_j h_j with h_j the height of omega_j, cleared to
    # integers over a common denominator
    h = [sum(row) for row in _inverse(cartan)]
    den = lcm(*(x.denominator for x in h))
    h = [int(x * den) for x in h]
    out = []
    for v, length in orbit_closure(cartan, rho).items():
        shift = tuple(a - b for a, b in zip(rho, v))
        out.append((sum(map(mul, shift, h)) // den, (-1) ** length, shift))
    return tuple(sorted(out))


def dominant_below(cartan: Cartan, lam: Weight) -> dict[Weight, int]:
    """ht(lam - mu) for every dominant mu <= lam.

    mu <= lam means that lam - mu has nonnegative integer simple-root
    coordinates.  A dominant mu is a nonnegative sum of fundamental weights,
    whose simple-root coordinates are positive, so the coordinates of mu grow
    with each of its entries: a depth-first search over the entries of mu
    stops as soon as one simple-root coordinate passes lam's.
    """
    n = len(cartan)
    inv = _inverse(cartan)
    top = root_coords(cartan, lam)
    out: dict[Weight, int] = {}

    def walk(mu: list[int], used: list[Fraction]) -> None:
        j = len(mu)
        if j == n:
            rest = [t - u for t, u in zip(top, used)]
            if all(x.denominator == 1 for x in rest):
                out[tuple(mu)] = int(sum(rest))
            return
        c = 0
        while all(u <= t for u, t in zip(used, top)):
            walk(mu + [c], used)
            c += 1
            used = [u + x for u, x in zip(used, inv[j])]

    walk([], [Fraction(0)] * n)
    return out


def check_weight_multiset(cartan: Cartan, lam: Weight, weights) -> None:
    """Raise AssertionError unless `weights`, (weight, multiplicity) pairs in
    fundamental coordinates, is the weight multiset of the irreducible of
    highest weight lam."""
    counts = dict(weights)
    for i in range(len(cartan)):
        image = {reflect(cartan, w, i) if w[i] else w: m for w, m in counts.items()}
        assert image == counts, f"not stable under s_{i + 1}"
    below = dominant_below(cartan, lam)
    above = [w for w in counts if min(w) >= 0 and w not in below]
    assert not above, f"dominant weights not below {lam}: {above}"
    shifts = weyl_shifts(cartan)
    for mu, height in below.items():
        total = 0
        for h, sign, shift in shifts:
            if h > height:
                break
            total += sign * counts.get(tuple(a + b for a, b in zip(mu, shift)), 0)
        assert total == (mu == lam), f"Weyl character formula fails at {mu}: {total}"
