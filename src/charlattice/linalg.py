"""Small exact linear algebra over the integers and the rationals.

Vectors are tuples of ints or Fractions, matrices are tuples of row vectors.
Everything rests on one fraction-free elimination and is exact; nothing ever
touches a float.  Fractions appear only in results that are rational by
nature (inverses and solutions), never in the elimination itself.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# `fractions` is imported only by the three functions that build Fractions,
# so that root data and the Weyl dimension load without it.
Vec = tuple["int | Fraction", ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    from fractions import Fraction

    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def dot(x: Sequence, y: Sequence):
    return sum(map(mul, x, y))


def matvec(m: Sequence[Sequence], x: Sequence) -> Vec:
    return tuple(dot(row, x) for row in m)


def transpose(m: Sequence[Sequence]) -> Mat:
    return tuple(tuple(col) for col in zip(*m))


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _eliminate(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968)).

    Each row that holds a Fraction is first scaled by the least common
    denominator of its entries, which changes no pivot; integer rows are
    copied as they are.  Pivots are then taken left to right among the
    first ncols columns (all columns by default), each from the first row at
    or below the current one with a nonzero entry, and elimination stops once
    every row has a pivot.  Every division is exact, because after k pivots
    each entry is a k x k minor of the scaled rows.

    Returns the integer rows, their pivot columns and d: row i has its pivot
    in column pivots[i], every pivot entry equals d, and dividing the rows by
    d gives the reduced row echelon form.  For a square nonsingular block, d
    is the determinant of the scaled rows over the pivot columns (1 when
    there are no pivots).
    """
    work = []
    for row in rows:
        if all(type(x) is int for x in row):
            work.append(list(row))
            continue
        scale = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    d, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            if i == r:
                continue
            f = row[c]
            if f:
                work[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
            else:
                work[i] = [p * x // d for x in row]
        d = p
        pivots.append(c)
    if sign < 0:
        work = [[-x for x in row] for row in work]
        d = -d
    return work, pivots, d


def pivot_columns(rows: Sequence[Sequence]) -> list[int]:
    """Pivot columns of the reduced row echelon form of rows, left to right.

    Column j is a pivot exactly when it is independent of the columns before
    it, so pivot_columns(transpose(vectors)) is the greedy left-to-right
    choice of independent vectors from a list.
    """
    return _eliminate(rows)[1]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of the listed row vectors."""
    return len(pivot_columns(rows))


def det_adjugate(m: Sequence[Sequence[int]]) -> tuple[int, Mat]:
    """det(M) and adj(M) = det(M) M^-1 of a nonsingular integer matrix M.

    Raises ValueError when M is singular.  For rational entries the pair is
    (s det(M), s det(M) M^-1), s the product of the rows' least common
    denominators.
    """
    n = len(m)
    work, pivots, d = _eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return d, tuple(tuple(row[n:]) for row in work)


def invert(m: Sequence[Sequence]) -> Mat:
    """Inverse of a square matrix, in Fractions; raises ValueError when singular."""
    from fractions import Fraction

    d, scaled = det_adjugate(m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in scaled)


def solve_columns(columns: Sequence[Sequence], target: Sequence) -> Vec | None:
    """Exact coefficients c with sum c_i * columns[i] = target, or None if inconsistent.

    The columns may be an overdetermined spanning set of a subspace; when the
    system is underdetermined the free coefficients are set to zero.
    """
    from fractions import Fraction

    ncols = len(columns)
    aug, pivots, d = _eliminate(
        [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(len(target))],
        ncols)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    out = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        out[col] = Fraction(row[ncols], d)
    return tuple(out)


def extend_to_basis(vectors: Sequence[Vec], dim: int) -> Mat:
    """Complete an independent family to a basis of Q^dim with standard basis vectors."""
    family = [tuple(v) for v in vectors] + list(identity(dim))
    picked = pivot_columns(transpose(family))
    if picked[:len(vectors)] != list(range(len(vectors))) or len(picked) != dim:
        raise ValueError("family does not extend to a basis")
    return tuple(family[i] for i in picked)
