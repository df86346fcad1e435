"""Test oracle: weight multiplicities of sl_{n+1} as Kostka numbers.

The weight of the irreducible sl_{n+1} module of shape lam with content c
(a composition of |lam| into n + 1 parts) has multiplicity K(lam, c), the
number of semistandard Young tableaux of shape lam and content c (Fulton,
*Young Tableaux*, section 2).  K is counted by peeling off the largest entry:
the boxes holding it form a horizontal strip lam / mu of size c[-1], and the
rest is a tableau of shape mu and content c[:-1].  The dimension comes from
the hook content formula.  Nothing here imports the library.
"""

from __future__ import annotations

from functools import lru_cache


def partition_of(hw: tuple[int, ...]) -> tuple[int, ...]:
    """The partition lam with lam_i - lam_{i+1} = hw_i, last part dropped as zero."""
    return tuple(sum(hw[i:]) for i in range(len(hw)))


def content_of(weight: tuple[int, ...], size: int) -> tuple[int, ...] | None:
    """The content c of n + 1 parts summing to size with c_i - c_{i+1} = weight_i,
    or None if there is none with nonnegative integer parts."""
    n = len(weight)
    last, rem = divmod(size - sum((i + 1) * w for i, w in enumerate(weight)), n + 1)
    if rem:
        return None
    content = [last]
    for w in reversed(weight):
        content.append(content[-1] + w)
    content.reverse()
    return tuple(content) if min(content) >= 0 else None


def _strips(lam: tuple[int, ...], k: int):
    """Every mu with lam / mu a horizontal strip of k boxes: lam_{i+1} <= mu_i <= lam_i."""
    def rec(i: int, left: int, prefix: tuple[int, ...]):
        if i == len(lam):
            if left == 0:
                yield prefix
            return
        floor = lam[i + 1] if i + 1 < len(lam) else 0
        for mu_i in range(lam[i], floor - 1, -1):
            if lam[i] - mu_i > left:
                break
            yield from rec(i + 1, left - (lam[i] - mu_i), prefix + (mu_i,))
    yield from rec(0, k, ())


@lru_cache(maxsize=None)
def kostka(lam: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and the given content."""
    if not content:
        return int(not any(lam))
    if sum(lam) != sum(content):
        return 0
    return sum(kostka(mu, content[:-1]) for mu in _strips(lam, content[-1]))


def hook_content_dimension(n_plus_1: int, lam: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam with entries at most n + 1."""
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n_plus_1 + j - i
            leg = sum(1 for r in lam[i + 1:] if r > j)
            den *= row - j + leg
    return num // den
