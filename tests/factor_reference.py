"""Reference factorization search for differential tests.

This is the plain search that `charlattice.abmultiset.factorizations` must
agree with exactly: it enumerates every sub-multiset of the product of the
second factor's size, completes the first factor row by row, and keeps the
first decomposition found in each class, keyed by canonical forms that try
every translate.  Its group arithmetic is its own tuple arithmetic, so it
shares no computation with the library's search.  The library never imports
this module.
"""

from __future__ import annotations

from charlattice.abmultiset import Decomposition, Elem, GroupMultiset


def add(torsion: int, x: Elem, y: Elem) -> Elem:
    return ((x[0] + y[0]) % torsion, tuple(a + b for a, b in zip(x[1], y[1])))


def neg(torsion: int, x: Elem) -> Elem:
    return ((-x[0]) % torsion, tuple(-a for a in x[1]))


def sub(torsion: int, x: Elem, y: Elem) -> Elem:
    return add(torsion, x, neg(torsion, y))


def translate(a: GroupMultiset, shift: Elem) -> GroupMultiset:
    return GroupMultiset(a.group, tuple(sorted((add(a.group.torsion, e, shift), m)
                                               for e, m in a.elems)))


def reference_canonical_form(a: GroupMultiset) -> tuple[tuple[Elem, int], ...]:
    """The least sorted translate of a with some element at 0."""
    best = None
    for e, _ in a.elems:
        candidate = translate(a, neg(a.group.torsion, e)).elems
        if best is None or candidate < best:
            best = candidate
    return best if best is not None else ()


def reference_key(dec: Decomposition) -> tuple:
    """Canonical forms grouped by factor size; equal sizes may be permuted."""
    by_size: dict[int, list] = {}
    for f in dec.factors:
        by_size.setdefault(f.size, []).append(reference_canonical_form(f))
    return tuple(
        (size, tuple(sorted(forms))) for size, forms in sorted(by_size.items())
    )


def _sub_multisets(counts: list[tuple[Elem, int]], size: int):
    """All sub-multisets of a counted multiset with the given total size."""
    if size == 0:
        yield []
        return
    if not counts:
        return
    (elem, avail), rest = counts[0], counts[1:]
    for take in range(min(avail, size), -1, -1):
        for tail in _sub_multisets(rest, size - take):
            yield ([(elem, take)] if take else []) + tail


def _binary_factorizations(c: GroupMultiset, a_size: int, b_size: int):
    """All (A, B) with A + B = c, #A = a_size, #B = b_size and 0 in A.

    Any factorization can be translated so the first factor contains 0; then
    the second factor is a sub-multiset of c, and the remaining elements of the
    first factor are forced row by row.
    """
    group = c.group
    torsion = group.torsion
    zero = (0, (0,) * group.free_rank)
    out = []
    for b_items in _sub_multisets(list(c.elems), b_size):
        b_counts = dict(b_items)
        remaining = dict(c.elems)
        ok = True
        for e, m in b_items:
            if remaining.get(e, 0) < m:
                ok = False
                break
            remaining[e] -= m
            if not remaining[e]:
                del remaining[e]
        if not ok:
            continue
        b_mset = GroupMultiset.from_counts(group, b_counts)
        a_sofar: list[Elem] = [zero]

        def place(rem: dict[Elem, int]):
            if len(a_sofar) == a_size:
                if not rem:
                    a_counts: dict[Elem, int] = {}
                    for e in a_sofar:
                        a_counts[e] = a_counts.get(e, 0) + 1
                    out.append((GroupMultiset.from_counts(group, a_counts), b_mset))
                return
            if not rem:
                return
            gamma = min(rem)
            tried: set[Elem] = set()
            for beta, _ in b_items:
                alpha = sub(torsion, gamma, beta)
                if alpha in tried:
                    continue
                tried.add(alpha)
                shifted = {add(torsion, alpha, e): m for e, m in b_items}
                if any(rem.get(e, 0) < m for e, m in shifted.items()):
                    continue
                nxt = dict(rem)
                for e, m in shifted.items():
                    nxt[e] -= m
                    if not nxt[e]:
                        del nxt[e]
                a_sofar.append(alpha)
                place(nxt)
                a_sofar.pop()

        place(remaining)
    return out


def reference_factorizations(c: GroupMultiset, profile: tuple[int, ...]) -> tuple[Decomposition, ...]:
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
        k = reference_key(dec)
        if k not in found:
            found[k] = dec
    return tuple(found[k] for k in sorted(found))
