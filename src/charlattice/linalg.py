"""Small exact linear algebra on integer matrices.

Vectors are tuples of ints, matrices are tuples of row vectors.  Two
eliminations of integer rows do the work, both exact; nothing ever touches a
float.  The rank and the pivot columns stream the rows into a gcd-reduced
echelon basis, which stops once it spans every column; the determinant,
adjugate and solutions come from one fraction-free Gauss-Jordan elimination.
Fractions appear only in results that are rational by nature (inverses and
solutions), never in an elimination.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# `fractions` is imported only by the two functions that build Fractions,
# so that root data and the Weyl dimension load without it.
Vec = tuple["int | Fraction", ...]
Mat = tuple[Vec, ...]


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


def _check_integers(rows: Sequence[Sequence]) -> None:
    if {*map(type, chain.from_iterable(rows))} - {int}:
        raise TypeError("elimination takes integer rows only")


def _eliminate(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968)).

    The rows must hold ints only; any other entry raises TypeError.  Pivots
    are taken left to right among the first ncols columns (all columns by
    default), each from the first row at or below the current one with a
    nonzero entry, and elimination stops once every row has a pivot.  Every
    division is exact, because after k pivots each entry is a k x k minor of
    the rows.

    Returns the integer rows, their pivot columns and d: row i has its pivot
    in column pivots[i], every pivot entry equals d, and dividing the rows by
    d gives the reduced row echelon form.  For a square nonsingular block, d
    is the determinant of the rows over the pivot columns (1 when there are
    no pivots).
    """
    _check_integers(rows)
    work = [list(row) for row in rows]
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


def _echelon(rows: Sequence[Sequence]) -> list[tuple[int, list[int]]]:
    """An echelon basis of the span of integer rows, as (leading column, row)
    pairs ordered by column.

    The rows must hold ints only; any other entry, in any row, raises
    TypeError.  Each row in turn is reduced by the basis rows in column
    order, which clears its entry at each leading column in turn and never
    brings back one already cleared; a nonzero remainder is divided by the
    gcd of its entries and joins the basis at its own leading column.  The
    stream stops once every column leads a basis row, as no later row can
    add one.
    """
    _check_integers(rows)
    ncols = len(rows[0]) if rows else 0
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(basis) == ncols:
            break
        v = list(row)
        for c, b in basis:
            f = v[c]
            if f:
                p = b[c]
                g = gcd(p, f)
                p, f = p // g, f // g
                v = [p * x - f * y for x, y in zip(v, b)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        g = gcd(*v)
        insort(basis, (lead, [x // g for x in v] if g > 1 else v))
    return basis


def pivot_columns(rows: Sequence[Sequence]) -> list[int]:
    """Pivot columns of the reduced row echelon form of rows, left to right.

    They are the leading columns of the vectors of the row space, so those
    of any echelon basis of it.  Column j is a pivot exactly when it is
    independent of the columns before it, so pivot_columns(transpose(vectors))
    is the greedy left-to-right choice of independent vectors from a list.
    """
    return [c for c, _ in _echelon(rows)]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of the listed row vectors."""
    return len(_echelon(rows))


def det_adjugate(m: Sequence[Sequence[int]]) -> tuple[int, Mat]:
    """det(M) and adj(M) = det(M) M^-1 of a nonsingular integer matrix M.

    Raises ValueError when M is singular.
    """
    n = len(m)
    work, pivots, d = _eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return d, tuple(tuple(row[n:]) for row in work)


def invert(m: Sequence[Sequence]) -> Mat:
    """Inverse of a square integer matrix, in Fractions; raises ValueError when singular."""
    from fractions import Fraction

    d, scaled = det_adjugate(m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in scaled)


def solve_columns(columns: Sequence[Sequence], target: Sequence) -> Vec | None:
    """Exact coefficients c with sum c_i * columns[i] = target, or None if inconsistent.

    The columns and the target are integer vectors.  The columns may be an
    overdetermined spanning set of a subspace; when the system is
    underdetermined the free coefficients are set to zero.
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
