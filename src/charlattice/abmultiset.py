"""Finite multisets in Z/m x Z^d and their sumset factorizations.

Elements are written additively as (torsion, free) pairs.  A product of
multisets is the multiset of pairwise sums; two multisets are equivalent when
one is a translate of the other.  Factorization into factors of prescribed
sizes follows the determinacy argument: once one factor is pinned down to
contain 0, the remaining rows are forced up to finitely many choices, which a
small backtracking search enumerates completely.  The other factor is then a
sub-multiset of the product that may be taken to hold the product's least
element c0, and the search enumerates whichever of the two factors is
smaller, so a (2, 8) split tries the 15 pairs through c0 rather than all
12,870 eight-element sub-multisets.  Both the enumeration and the row
completion are iterative, so long factors never meet the recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .reps import FormalCharacter

Elem = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class AbGroup:
    """The ambient group Z/torsion x Z^free_rank; torsion 1 means free only."""

    torsion: int
    free_rank: int

    def __post_init__(self) -> None:
        if self.torsion < 1 or self.free_rank < 0:
            raise ValueError("need torsion >= 1 and free_rank >= 0")

    def element(self, torsion_part: int, free_part: tuple[int, ...]) -> Elem:
        if len(free_part) != self.free_rank:
            raise ValueError(f"free part must have {self.free_rank} coordinates")
        return (torsion_part % self.torsion, tuple(free_part))

    def zero(self) -> Elem:
        return (0, tuple(0 for _ in range(self.free_rank)))

    def add(self, x: Elem, y: Elem) -> Elem:
        return ((x[0] + y[0]) % self.torsion,
                tuple(a + b for a, b in zip(x[1], y[1])))

    def neg(self, x: Elem) -> Elem:
        return ((-x[0]) % self.torsion, tuple(-a for a in x[1]))

    def sub(self, x: Elem, y: Elem) -> Elem:
        return self.add(x, self.neg(y))

    def scale(self, n: int, x: Elem) -> Elem:
        return ((n * x[0]) % self.torsion, tuple(n * a for a in x[1]))


@dataclass(frozen=True)
class GroupMultiset:
    """A finite multiset of group elements, stored sorted with multiplicities."""

    group: AbGroup
    elems: tuple[tuple[Elem, int], ...]

    @classmethod
    def from_iterable(cls, group: AbGroup, items) -> "GroupMultiset":
        counts: dict[Elem, int] = {}
        for it in items:
            e = group.element(it[0], tuple(it[1]))
            counts[e] = counts.get(e, 0) + 1
        return cls.from_counts(group, counts)

    @classmethod
    def from_counts(cls, group: AbGroup, counts: dict[Elem, int]) -> "GroupMultiset":
        items = tuple(sorted((e, m) for e, m in counts.items() if m))
        if any(m < 0 for _, m in items):
            raise ValueError("negative multiplicity")
        return cls(group=group, elems=items)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.elems)

    def counts(self) -> dict[Elem, int]:
        return dict(self.elems)

    def translate(self, shift: Elem) -> "GroupMultiset":
        return GroupMultiset.from_counts(
            self.group,
            {self.group.add(e, shift): m for e, m in self.elems})


def multiset_product(a: GroupMultiset, b: GroupMultiset) -> GroupMultiset:
    """Multiset of pairwise sums; sizes multiply."""
    if a.group != b.group:
        raise ValueError("products need a common ambient group")
    counts: dict[Elem, int] = {}
    for x, mx in a.elems:
        for y, my in b.elems:
            s = a.group.add(x, y)
            counts[s] = counts.get(s, 0) + mx * my
    return GroupMultiset.from_counts(a.group, counts)


def equivalent(a: GroupMultiset, b: GroupMultiset) -> Elem | None:
    """A translation carrying a onto b, or None.

    Complete by construction: any witness must send a's first stored element
    to some element of b, so all #b candidate shifts are tried.
    """
    if a.group != b.group or a.size != b.size:
        return None
    if not a.elems:
        return a.group.zero()
    base = a.elems[0][0]
    b_counts = b.counts()
    for target, _ in b.elems:
        shift = a.group.sub(target, base)
        if {a.group.add(e, shift): m for e, m in a.elems} == b_counts:
            return shift
    return None


def canonical_form(a: GroupMultiset) -> tuple[tuple[Elem, int], ...]:
    """Translation-invariant canonical key: the least sorted translate with some
    element at 0.

    The translate by -e starts with (0, f - e's free part), f the least free
    part in e's torsion class.  So only the element with the greatest free
    part of each class can give the least translate, and only the classes
    where that start is least are translated in full.
    """
    low: dict[int, tuple[int, ...]] = {}
    high: dict[int, Elem] = {}
    for e, _ in a.elems:  # sorted: a class starts at its least free part
        low.setdefault(e[0], e[1])
        high[e[0]] = e
    starts = {t: tuple(x - y for x, y in zip(low[t], e[1])) for t, e in high.items()}
    least = min(starts.values(), default=None)
    return min((a.translate(a.group.neg(high[t])).elems
                for t, start in starts.items() if start == least), default=())


@dataclass(frozen=True)
class Decomposition:
    """An ordered factorization of a multiset into factors of fixed sizes."""

    factors: tuple[GroupMultiset, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)

    def product(self) -> GroupMultiset:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = multiset_product(out, f)
        return out

    def key(self) -> tuple:
        # Equal-size factors may be rearranged, so group canonical forms by size.
        by_size: dict[int, list] = {}
        for f in self.factors:
            by_size.setdefault(f.size, []).append(canonical_form(f))
        return tuple(
            (size, tuple(sorted(forms))) for size, forms in sorted(by_size.items())
        )


def _sub_multisets(counts: list[tuple[Elem, int]], size: int):
    """All sub-multisets of a counted multiset with the given total size.

    Yielded as lists of (elem, take) with take > 0, in decreasing
    lexicographic order of the takes: as many of the first element as
    possible first.
    """
    cap = [0] * (len(counts) + 1)
    for i in range(len(counts) - 1, -1, -1):
        cap[i] = cap[i + 1] + counts[i][1]
    if not 0 <= size <= cap[0]:
        return
    takes: list[int] = []      # the take at each position decided so far
    chosen: list[tuple[Elem, int]] = []
    left = size
    while True:
        while left:            # the greedy, lexicographically largest, tail
            elem, avail = counts[len(takes)]
            take = min(avail, left)
            takes.append(take)
            if take:
                chosen.append((elem, take))
                left -= take
        yield list(chosen)
        # Back up to the last take that can drop by one, the rest fitting
        # into the positions after it.
        while takes:
            take = takes.pop()
            if not take:
                continue
            chosen.pop()
            left += take
            if cap[len(takes) + 1] >= left - take + 1:
                break
        else:
            return
        takes.append(take - 1)
        if take > 1:
            chosen.append((counts[len(takes) - 1][0], take - 1))
        left -= take - 1


def _completions(group: AbGroup, counts: dict[Elem, int], order: list[Elem],
                 b_items: list[tuple[Elem, int]], rows: int):
    """Every A with 0 in A, #A = rows >= 2 and A + B = counts, as lists of rows.

    Row 0 of A covers B itself.  The least element left over must then be
    alpha + beta for a new row alpha and some beta in B, so each step tries
    the distinct gamma - beta.  `order` lists the keys of `counts` sorted;
    `counts` is decremented in place and restored once the search ends.
    """
    for e, m in b_items:
        counts[e] -= m
    alphas = [group.zero()]
    # One frame per row being placed: [candidate rows, next candidate,
    # placed shift of B or None, where in `order` the search for gamma starts].
    stack = []

    def push(start: int) -> None:
        while not counts[order[start]]:
            start += 1
        gamma = order[start]
        tried = list(dict.fromkeys(group.sub(gamma, beta) for beta, _ in b_items))
        stack.append([tried, 0, None, start])

    try:
        push(0)
        while stack:
            frame = stack[-1]
            tried, k, placed, start = frame
            if placed is not None:
                for e, m in placed:
                    counts[e] += m
                alphas.pop()
            while k < len(tried):
                alpha = tried[k]
                k += 1
                shifted = []
                for e, m in b_items:
                    e = group.add(alpha, e)
                    if counts.get(e, 0) < m:
                        break
                    shifted.append((e, m))
                else:
                    break
            else:
                stack.pop()
                continue
            frame[1:3] = k, shifted
            for e, m in shifted:
                counts[e] -= m
            alphas.append(alpha)
            if len(alphas) == rows:
                yield list(alphas)
            else:
                push(start)
    finally:
        for e, m in b_items:
            counts[e] += m


def _pinned_pairs(c: GroupMultiset, a_size: int, b_size: int):
    """(rows of A, B) for A + B = c with 0 in A and c's least element c0 in B.

    B runs over sub-multisets of c in `_sub_multisets` order; the A's of one B
    come in the order the forced-row search finds them.
    """
    order = [e for e, _ in c.elems]
    counts = c.counts()
    head = order[0]
    rest = [(head, counts[head] - 1)] + list(c.elems[1:])
    for tail in _sub_multisets(rest, b_size - 1):
        if tail and tail[0][0] == head:
            b_items = [(head, tail[0][1] + 1)] + tail[1:]
        else:
            b_items = [(head, 1)] + tail
        for rows in _completions(c.group, counts, order, b_items, a_size):
            yield rows, b_items


def _binary_factorizations(c: GroupMultiset, a_size: int, b_size: int):
    """(A, B) with A + B = c, #A = a_size, #B = b_size, 0 in A, B a sub-multiset.

    Any factorization A + B can be translated so that 0 is in A; then B is a
    sub-multiset of c and the remaining rows of A are forced one by one.  In
    each class, the translate whose second factor sorts first also has c's
    least element c0 in B (translating by the alpha with c0 = alpha + beta
    moves c0 into B), so only B containing c0 are enumerated.

    When b_size > a_size, the smaller factor is enumerated instead: each
    pinned pair (Y, X) with #X = a_size gives the second factors Y + alpha,
    alpha in X, of which the least as a sorted list is the one a direct search
    reaches first.  Completing those second factors in sorted order yields the
    direct search's pairs that lead every class, in the same order.
    """
    group = c.group
    if b_size <= a_size:
        return [(GroupMultiset.from_iterable(group, rows),
                 GroupMultiset.from_counts(group, dict(b_items)))
                for rows, b_items in _pinned_pairs(c, a_size, b_size)]
    seconds = {min(tuple(sorted(group.add(r, alpha) for r in rows)) for alpha, _ in x_items)
               for rows, x_items in _pinned_pairs(c, b_size, a_size)}
    order = [e for e, _ in c.elems]
    counts = c.counts()
    out = []
    for second in sorted(seconds):
        b_mset = GroupMultiset.from_iterable(group, second)
        out += [(GroupMultiset.from_iterable(group, rows), b_mset)
                for rows in _completions(group, counts, order, list(b_mset.elems), a_size)]
    return out


def factorization_count_bound(a: int, b: int) -> int:
    """Upper bound (ab)! / (a! b!) on inequivalent two-factor decompositions."""
    return factorial(a * b) // (factorial(a) * factorial(b))


def factorizations(c: GroupMultiset, profile: tuple[int, ...]) -> tuple[Decomposition, ...]:
    """All inequivalent factorizations of c with the given factor sizes.

    The profile sizes must multiply to #c; for profiles of length at least two
    every size must exceed 1.  Factors within a decomposition may be rearranged
    across equal sizes when comparing, and each factor is considered up to
    translation.
    """
    sizes = tuple(profile)
    prod = 1
    for s in sizes:
        prod *= s
    if prod != c.size:
        raise ValueError(f"profile {sizes} does not multiply to {c.size}")
    if len(sizes) > 1 and any(s <= 1 for s in sizes):
        raise ValueError("factor sizes must exceed 1")

    def recurse(target: GroupMultiset, shape: tuple[int, ...]):
        if len(shape) == 1:
            yield (target,)
            return
        rest = 1
        for s in shape[1:]:
            rest *= s
        for a_mset, b_mset in _binary_factorizations(target, shape[0], rest):
            for tail in recurse(b_mset, shape[1:]):
                yield (a_mset,) + tail

    found: dict[tuple, Decomposition] = {}
    for factors in recurse(c, sizes):
        dec = Decomposition(factors=factors)
        k = dec.key()
        if k not in found:
            found[k] = dec
    return tuple(found[k] for k in sorted(found))


def generic_ratio_check(c: GroupMultiset, n: int) -> bool:
    """Whether all distinct values of c stay distinct after scaling by n.

    Only distinct stored values are compared; repeated values inside the
    multiset are collapse-proof by definition and are not flagged here.
    """
    values = [e for e, _ in c.elems]
    for x, y in itertools.combinations(values, 2):
        if c.group.scale(n, c.group.sub(x, y)) == c.group.zero():
            return False
    return True


def character_kronecker_split(fc: FormalCharacter, profile: tuple[int, ...]) -> tuple[Decomposition, ...]:
    """Sumset factorizations of a character's weight multiset in Z^rank.

    Each decomposition is a candidate splitting of the character into an
    external tensor product, up to translation of each factor.
    """
    group = AbGroup(torsion=1, free_rank=fc.algebra.rank)
    counts = {(0, w): m for w, m in fc.weights}
    mset = GroupMultiset.from_counts(group, counts)
    return factorizations(mset, profile)
