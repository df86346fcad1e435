"""Finite multisets in Z/m x Z^d and their sumset factorizations.

Elements are written additively as (torsion, free) pairs.  A product of
multisets is the multiset of pairwise sums; two multisets are equivalent when
one is a translate of the other.  Factorization into factors of prescribed
sizes follows the determinacy argument: once one factor is pinned down to
contain 0, the remaining rows are forced up to finitely many choices, which a
small backtracking search enumerates completely.  In Z^d, whose order is
translation invariant, every row is forced outright, so each second factor
has at most one first factor.  The other factor is then a sub-multiset of
the product that may be taken to hold the product's least element c0, and
the search enumerates whichever of the two factors is smaller, so a (2, 8)
split tries the 15 pairs through c0 rather than all 12,870 eight-element
sub-multisets.  A candidate is completed only if its translates inside the
product leave room for every row of the other factor, and a partial
candidate without that room is dropped with all its extensions.  Both the
enumeration and the row completion are iterative, so long factors never
meet the recursion limit.

The search runs on elements packed into one int each: the torsion part most
significant, then the free coordinates in balanced radix 8R + 1, where R is
the largest |coordinate| of the multiset being factored.  The product is
packed once per call: every nested target of a multi-factor profile lies
inside it, and every value formed, up to the canonical form of a first
factor, lies within +-4R, inside one digit.  So adding and subtracting are
int operations that never carry between coordinates, int order is the order
of (torsion, free) pairs, and the dedup keys are canonical forms computed on
codes.  Only the factors of the kept decompositions are decoded.
"""

from __future__ import annotations

from math import factorial

from ._record import record

Elem = tuple[int, tuple[int, ...]]


@record
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

    def add(self, x: Elem, y: Elem) -> Elem:
        return ((x[0] + y[0]) % self.torsion,
                tuple(a + b for a, b in zip(x[1], y[1])))


@record
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
        for e, m in items:
            if m < 0:
                raise ValueError("negative multiplicity")
            if not 0 <= e[0] < group.torsion or len(e[1]) != group.free_rank:
                raise ValueError(f"{e} is not an element of {group}")
        return cls(group=group, elems=items)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.elems)


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


@record
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


def _radius(items) -> int:
    """The largest |coordinate| of the elements of (element, multiplicity) pairs."""
    return max((abs(x) for e, _ in items for x in e[1]), default=0)


def _key(forms) -> tuple:
    """Dedup key of a decomposition from its (size, canonical form) pairs.

    Equal-size factors may be rearranged, so the forms are grouped by size.
    """
    by_size: dict[int, list] = {}
    for size, form in forms:
        by_size.setdefault(size, []).append(form)
    return tuple((size, tuple(sorted(same))) for size, same in sorted(by_size.items()))


class _Packing:
    """Elements of Z/m x Z^d as single ints, for a factorization search over
    a multiset c whose coordinates lie within +-radius.

    Every value the search forms lies within +-h, h = 4*radius.  With 0 in
    the first factor A, the second factor B is a sub-multiset of c, so every
    nested target is too and lies within +-radius; a row gamma - beta of A
    lies within +-2*radius, a translate alpha + e of B within +-3*radius,
    and the canonical form of A, a translate of A by minus one of its own
    elements, within +-4*radius.  One packing therefore serves every level
    of a factorization and its dedup keys.
    (t, f) has code t*S + F + H: F writes f in radix W = 2h + 1 with digits
    in [-h, h], the first coordinate most significant, S = W^d, and
    H = S // 2 = h*(W^(d-1) + ... + W + 1) lifts every digit into [0, W).
    W keeps every coordinate within +-h inside one digit, so no sum carries
    into the next coordinate or the torsion and no two values share a code;
    int order is (torsion, free) tuple order; and the sum of the elements
    with codes x and y has code (x + y - H) % (m*S), their difference
    (x - y + H) % (m*S).
    """

    def __init__(self, group: AbGroup, radius: int):
        self.group = group
        self.h = 4 * radius
        self.width = 2 * self.h + 1
        self.stride = self.width ** group.free_rank
        self.half = self.stride // 2
        self.modulus = group.torsion * self.stride

    def pack(self, e: Elem) -> int:
        x = e[0]
        for c in e[1]:
            x = x * self.width + c + self.h
        return x

    def unpack(self, x: int) -> Elem:
        t, x = divmod(x, self.stride)
        free = [0] * self.group.free_rank
        for i in range(len(free) - 1, -1, -1):
            x, digit = divmod(x, self.width)
            free[i] = digit - self.h
        return (t, tuple(free))

    def decode(self, items) -> tuple[tuple[Elem, int], ...]:
        """(element, multiplicity) pairs of (code, multiplicity) pairs, in order."""
        return tuple((self.unpack(x), m) for x, m in items)


def _tally(codes) -> list[tuple[int, int]]:
    """The (code, multiplicity) pairs of a list of codes, sorted."""
    counts: dict[int, int] = {}
    for x in sorted(codes):
        counts[x] = counts.get(x, 0) + 1
    return list(counts.items())


def _canonical_codes(pk: _Packing, items) -> tuple[tuple[int, int], ...]:
    """The least sorted translate with some element at 0 of the multiset of
    sorted, distinct (code, multiplicity) pairs, as such pairs.

    The translate by -e starts with (0, f - e's free part), f the least free
    part in e's torsion class.  So only the greatest element of each class
    can give the least translate, and only the classes where that start is
    least are translated in full.  Translating by -e maps class t to class
    t - t(e) and keeps the order inside a class, so the sorted translate is
    the items rotated to start at e's class.
    """
    if not items:
        return ()
    stride, half, modulus = pk.stride, pk.half, pk.modulus
    classes = []  # (start, position of the first item, greatest code) per class
    first = 0
    for i, (x, _) in enumerate(items):
        if i + 1 == len(items) or items[i + 1][0] // stride != x // stride:
            classes.append((items[first][0] - x, first, x))
            first = i + 1
    least = min(start for start, _, _ in classes)
    return min(tuple(((x - top + half) % modulus, m) for x, m in items[first:] + items[:first])
               for start, first, top in classes if start == least)


def _completions(pk: _Packing, counts: dict[int, int], order: list[int],
                 b_items: list[tuple[int, int]], rows: int):
    """Every A with 0 in A, #A = rows >= 2 and A + B = counts, as lists of rows.

    Elements are `pk` codes and `order` lists the keys of `counts` sorted.
    Row 0 of A covers B itself.  The least element gamma left over must then
    be alpha + beta for a new row alpha and some beta in B.
    """
    if pk.group.torsion == 1:
        forced = _forced_completion(pk, counts, order, b_items, rows)
        return [] if forced is None else [forced]
    return _searched_completions(pk, counts, order, b_items, rows)


def _forced_completion(pk: _Packing, counts: dict[int, int], order: list[int],
                       b_items: list[tuple[int, int]], rows: int):
    """The only A of `_completions` in Z^d, or None.

    The order of Z^d is translation invariant and everything below gamma is
    used up, so the new row must have gamma as its least element: alpha is
    gamma - min B, and every row is forced.  Codes of Z^d add without a
    carry here, so alpha + e has code e + (gamma - min B).
    """
    least = b_items[0][0]
    left = dict(counts)
    for e, m in b_items:
        left[e] -= m
    alphas = [pk.half]  # the code of 0
    start = 0
    while len(alphas) < rows:
        while not left[order[start]]:
            start += 1
        shift = order[start] - least
        for e, m in b_items:
            e += shift
            k = left.get(e, 0) - m
            if k < 0:
                return None
            left[e] = k
        alphas.append(pk.half + shift)
    return alphas


def _searched_completions(pk: _Packing, counts: dict[int, int], order: list[int],
                          b_items: list[tuple[int, int]], rows: int):
    """The A's of `_completions` in Z/m x Z^d, m > 1, by backtracking.

    Each row tries the distinct gamma - beta in turn.  `counts` is
    decremented in place and restored once the search ends.
    """
    half, modulus = pk.half, pk.modulus
    for e, m in b_items:
        counts[e] -= m
    alphas = [half]  # the code of 0
    # One frame per row being placed: (its candidate rows not yet tried,
    # where in `order` its search for gamma started).  The candidates are
    # distinct, as the beta are.  `placed[i]` is the shift of B that frame
    # i's current row covers.
    frames = []
    placed = []
    start = 0
    try:
        while True:
            while not counts[order[start]]:
                start += 1
            gamma = order[start] + half
            frames.append((iter([(gamma - beta) % modulus for beta, _ in b_items]), start))
            while frames:
                candidates, start = frames[-1]
                for alpha in candidates:
                    base = alpha - half
                    shifted = []
                    for e, m in b_items:
                        e = (base + e) % modulus
                        if counts.get(e, 0) < m:
                            break
                        shifted.append((e, m))
                    else:
                        break
                else:
                    frames.pop()
                    if placed:
                        for e, m in placed.pop():
                            counts[e] += m
                        alphas.pop()
                    continue
                for e, m in shifted:
                    counts[e] -= m
                alphas.append(alpha)
                placed.append(shifted)
                if len(alphas) < rows:
                    break  # open a frame for the next row
                yield list(alphas)
                for e, m in placed.pop():
                    counts[e] += m
                alphas.pop()
            else:
                return
    finally:
        for shift in placed + [b_items]:
            for e, m in shift:
                counts[e] += m


def _pinned_pairs(pk: _Packing, counts: dict[int, int], order: list[int],
                  a_size: int, b_size: int):
    """(rows of A, B) for A + B = c with 0 in A and c's least element c0 in B.

    c is given as the counts of its `pk` codes, `order` their sorted keys.
    B runs over the sub-multisets of c that hold c0, in decreasing
    lexicographic order of their multiplicities along `order` (as many of the
    first element as possible first); the A's of one B come in the order the
    forced-row search finds them.

    A B is only completed if it has the capacity for a_size rows.  Let
    cap(t) = min over e in B of floor(c(e + t) / B(e)).  A row alpha of A
    with multiplicity k puts k copies of alpha + B inside c, so k <= cap(alpha)
    and a_size <= sum of cap(t) over the translates t, which all lie in
    c - c0.  cap only shrinks as B grows, so a partial B below a_size is
    dropped with every B that extends it.  The element that completes B is
    not filtered: `_completions` is the exact check there.
    """
    modulus = pk.modulus
    head = order[0]
    room = [0] * (len(order) + 1)  # room[i]: the size of c from order[i] on
    for i in range(len(order) - 1, -1, -1):
        room[i] = room[i + 1] + counts[order[i]]
    # One frame per distinct element of B, the first for c0: (its (position,
    # take) choices not yet tried, the size of B left to choose, the cap of
    # the B before it).  The choices run along `order` from the previous
    # element's successor, each take from the largest down, and leave room
    # for the rest of B.  `chosen` holds the current choice of every frame
    # but the top.  cap maps each translate to its capacity; the translate
    # gamma - c0 is kept as the difference of the codes, so e + t has code
    # (e + t) % modulus.

    def choices(start, stop, left):
        return ((i, take) for i in range(start, stop)
                for take in range(min(counts[order[i]], left),
                                  max(0, left - room[i + 1] - 1), -1))

    frames = [(choices(0, 1, b_size), b_size,
               {gamma - head: counts[gamma] for gamma in order})]
    chosen: list[tuple[int, int]] = []
    while frames:
        untried, left, cap = frames[-1]
        for i, take in untried:
            e = order[i]
            if take == left:
                b_items = chosen + [(e, take)]
                for rows in _completions(pk, counts, order, b_items, a_size):
                    yield rows, b_items
                continue
            grown = cap
            if i or take > 1:  # the starting cap is that of B = {c0}
                grown = {t: k if k < w else w for t, k in cap.items()
                         if (w := counts.get((e + t) % modulus, 0) // take)}
                if sum(grown.values()) < a_size:
                    continue
            chosen.append((e, take))
            frames.append((choices(i + 1, len(order), left - take), left - take, grown))
            break
        else:
            frames.pop()
            if chosen:
                chosen.pop()


def _binary_factorizations(pk: _Packing, c_items: list[tuple[int, int]],
                           a_size: int, b_size: int):
    """(A, B) with A + B = c, #A = a_size, #B = b_size, 0 in A, B a sub-multiset.

    c, A and B are sorted, distinct (code, multiplicity) pairs of `pk`.

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

    Either way, a sub-multiset is completed only if its translates have the
    capacity for the other factor's rows (see `_pinned_pairs`): a necessary
    condition that prunes whole subtrees of the enumeration and changes
    neither the pairs found nor their order.
    """
    order = [x for x, _ in c_items]
    counts = dict(c_items)
    if b_size <= a_size:
        return [(_tally(rows), b_items)
                for rows, b_items in _pinned_pairs(pk, counts, order, a_size, b_size)]
    half, modulus = pk.half, pk.modulus
    seconds = {min(tuple(sorted((r + alpha - half) % modulus for r in rows))
                   for alpha, _ in x_items)
               for rows, x_items in _pinned_pairs(pk, counts, order, b_size, a_size)}
    out = []
    for second in sorted(seconds):
        b_items = _tally(second)
        out += [(_tally(rows), b_items)
                for rows in _completions(pk, counts, order, b_items, a_size)]
    return out


def factorization_count_bound(a: int, b: int) -> int:
    """Upper bound (ab)! / (a! b!) on inequivalent two-factor decompositions."""
    return factorial(a * b) // (factorial(a) * factorial(b))


def factorizations(c: GroupMultiset, profile: tuple[int, ...]) -> tuple[Decomposition, ...]:
    """All inequivalent factorizations of c with the given factor sizes.

    The profile names at least one size, and its sizes must multiply to #c;
    for profiles of length at least two every size must exceed 1.  Factors
    within a decomposition may be rearranged across equal sizes when
    comparing, and each factor is considered up to translation.
    """
    sizes = tuple(profile)
    if not sizes:
        raise ValueError("profile must name at least one factor size")
    prod = 1
    for s in sizes:
        prod *= s
    if prod != c.size:
        raise ValueError(f"profile {sizes} does not multiply to {c.size}")
    if len(sizes) > 1 and any(s <= 1 for s in sizes):
        raise ValueError("factor sizes must exceed 1")

    # The search, the recursion and the dedup keys all run on codes of one
    # packing (see `_Packing`); only the kept decompositions are decoded.
    pk = _Packing(c.group, _radius(c.elems))

    # level: the factors split off so far, with the rest still to split;
    # each level lists a partial's splits in order, so the full
    # factorizations come in the order of a depth-first search
    level = [((), [(pk.pack(e), m) for e, m in c.elems])]
    rest = prod
    for size in sizes[:-1]:
        rest //= size
        level = [(done + (a_items,), b_items)
                 for done, target in level
                 for a_items, b_items in _binary_factorizations(pk, target, size, rest)]

    found: dict[tuple, tuple] = {}
    for done, last in level:
        factors = done + (last,)
        k = _key(zip(sizes, (_canonical_codes(pk, f) for f in factors)))
        if k not in found:
            found[k] = factors
    return tuple(Decomposition(factors=tuple(GroupMultiset(c.group, pk.decode(f))
                                             for f in found[k]))
                 for k in sorted(found))
