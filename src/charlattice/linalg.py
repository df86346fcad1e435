"""Small exact linear algebra over the rationals.

Vectors are tuples of Fractions, matrices are tuples of row vectors.
Everything here is elimination-based and exact; nothing ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), ZERO)


def matvec(m: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    return tuple(tuple(col) for col in zip(*m))


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _gauss_jordan(rows: Sequence[Sequence[Fraction]],
                  ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and its pivot columns.

    Pivots are taken left to right among the first ncols columns (all columns
    by default), each from the first row at or below the current one with a
    nonzero entry.  Row i of the result has its pivot in column pivots[i].
    Elimination stops once every row has a pivot.
    """
    work = [list(map(Fraction, r)) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for c in range(ncols):
        if len(pivots) == len(work):
            break
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ONE / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def pivot_columns(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Pivot columns of the reduced row echelon form of rows, left to right.

    Column j is a pivot exactly when it is independent of the columns before
    it, so pivot_columns(transpose(vectors)) is the greedy left-to-right
    choice of independent vectors from a list.
    """
    return _gauss_jordan(rows)[1]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the listed row vectors."""
    return len(pivot_columns(rows))


def invert(m: Sequence[Sequence[Fraction]]) -> Mat:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(m)
    work, pivots = _gauss_jordan(
        [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)], n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in work)


def solve_columns(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> Vec | None:
    """Exact coefficients c with sum c_i * columns[i] = target, or None if inconsistent.

    The columns may be an overdetermined spanning set of a subspace; when the
    system is underdetermined the free coefficients are set to zero.
    """
    ncols = len(columns)
    aug, pivots = _gauss_jordan(
        [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(len(target))],
        ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    out = [ZERO] * ncols
    for row, col in zip(aug, pivots):
        out[col] = row[ncols]
    return tuple(out)


def extend_to_basis(vectors: Sequence[Vec], dim: int) -> Mat:
    """Complete an independent family to a basis of Q^dim with standard basis vectors."""
    family = [vec(v) for v in vectors] + list(identity(dim))
    picked = pivot_columns(transpose(family))
    if picked[:len(vectors)] != list(range(len(vectors))) or len(picked) != dim:
        raise ValueError("family does not extend to a basis")
    return tuple(family[i] for i in picked)
