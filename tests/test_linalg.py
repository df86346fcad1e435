import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlattice import linalg


def test_invert_roundtrip():
    m = ((2, 1, 0), (1, 3, 1), (0, 1, 4))
    inv = linalg.invert(m)
    assert linalg.matmul(m, inv) == linalg.identity(3)
    assert linalg.matmul(inv, m) == linalg.identity(3)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        linalg.invert(((1, 2), (2, 4)))


def test_rank():
    assert linalg.rank([(1, 0), (0, 1)]) == 2
    assert linalg.rank([(1, 2), (2, 4)]) == 1
    assert linalg.rank([]) == 0


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5])
def test_elimination_takes_integers_only(entry):
    with pytest.raises(TypeError, match="integer rows only"):
        linalg.rank([(entry, 1), (2, 4)])
    with pytest.raises(TypeError, match="integer rows only"):
        linalg.det_adjugate([(1, 0), (0, entry)])


def test_solve_columns_exact():
    cols = [(1, 0, 1), (0, 1, 1)]
    coeffs = linalg.solve_columns(cols, (2, 3, 5))
    assert coeffs == (Fraction(2), Fraction(3))
    assert linalg.solve_columns(cols, (1, 0, 0)) is None


def test_extend_to_basis():
    base = [(1, 1, 0)]
    full = linalg.extend_to_basis(base, 3)
    assert len(full) == 3
    assert linalg.rank(list(full)) == 3


def test_extend_to_basis_rejects_dependent_family():
    with pytest.raises(ValueError):
        linalg.extend_to_basis([(1, 2), (2, 4)], 2)


# ---------------------------------------------------------------------------
# One elimination against the one-rank-call-per-vector loops it replaced.

def greedy_by_rank(vectors):
    """Indices of the vectors that raise the rank of those kept before them."""
    basis, picked = [], []
    for i, v in enumerate(vectors):
        if linalg.rank(basis + [v]) > len(basis):
            basis.append(v)
            picked.append(i)
    return picked


def extend_by_rank(vectors, dim):
    """Append each unit vector that raises the rank, until the family spans."""
    basis = list(vectors)
    for j in range(dim):
        candidate = tuple(int(i == j) for i in range(dim))
        if linalg.rank(basis + [candidate]) > len(basis):
            basis.append(candidate)
        if len(basis) == dim:
            break
    return tuple(basis)


@st.composite
def integer_families(draw):
    """Small integer vectors; some are combinations of earlier ones, zero included."""
    dim = draw(st.integers(1, 4))
    entries = st.integers(-2, 2)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(dim)])
        else:
            rows.append(draw(st.lists(entries, min_size=dim, max_size=dim)))
    return dim, [tuple(r) for r in rows]


@settings(max_examples=200, deadline=None)
@given(integer_families())
def test_pivot_columns_and_extend_match_rank_loops(family):
    dim, vectors = family
    picked = linalg.pivot_columns(linalg.transpose(vectors))
    assert picked == greedy_by_rank(vectors)
    independent = [vectors[i] for i in picked]
    assert linalg.extend_to_basis(independent, dim) == extend_by_rank(independent, dim)


# ---------------------------------------------------------------------------
# The fraction-free elimination against Gauss-Jordan in Fractions.

def reference_rref(rows, ncols=None):
    """Reduced row echelon form in Fractions and its pivot columns, with the
    library's pivot rule: left to right among the first ncols columns, each
    from the first row at or below the current one with a nonzero entry."""
    work = [[Fraction(x) for x in r] for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


@st.composite
def matrices(draw, square=False):
    """Small integer matrices: some rows combine earlier ones, some rows or
    one column are zero, and 0 rows or 1 x 1 occur."""
    nrows = draw(st.integers(0, 4 if square else 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    entries = st.integers(-3, 3)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "combination", "zero"]))
        if kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    if ncols and draw(st.booleans()):
        dead = draw(st.integers(0, ncols - 1))
        rows = [r[:dead] + [0] + r[dead + 1:] for r in rows]
    return [tuple(r) for r in rows]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_pivots_and_rank_match_reference(m):
    _, pivots = reference_rref(m)
    assert linalg.pivot_columns(m) == pivots
    assert linalg.rank(m) == len(pivots)


@st.composite
def streamed_matrices(draw):
    """Integer matrices for the streamed rank: wide, tall or square, with
    entries up to 10^6 in size, some rows combining earlier ones, zero rows,
    and no rows at all."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 8))
    bound = draw(st.sampled_from([2, 10 ** 6]))
    entries = st.integers(-bound, bound)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "combination", "zero"]))
        if kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return [tuple(r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(streamed_matrices())
def test_streamed_rank_matches_reference(m):
    _, pivots = reference_rref(m)
    assert linalg.rank(m) == len(pivots)
    assert linalg.pivot_columns(m) == pivots


def test_streamed_rank_stops_at_full_column_rank(monkeypatch):
    """2,000 rows of 8 columns whose rank reaches 8 within the first 11 rows:
    the rows past that point are never reduced (each reduction takes a gcd),
    and the rank and pivots agree with the reference all the same.  Every
    row's entries are still checked to be ints."""
    rng = random.Random(8)
    head = [tuple(rng.randint(-9, 9) for _ in range(8)) for _ in range(8)]
    head[3] = tuple(2 * x - y for x, y in zip(head[0], head[1]))  # rank 7 so far
    head.insert(5, (0,) * 8)
    head.insert(6, tuple(x + y for x, y in zip(head[1], head[2])))
    head.append(tuple(rng.randint(-9, 9) for _ in range(8)))
    tail = [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(8)) for _ in range(1989)]
    rows = head + tail
    assert len(rows) == 2000
    _, pivots = reference_rref(rows)
    assert pivots == list(range(8))
    gcds = []
    counted = linalg.gcd

    def counting(*args):
        gcds.append(args)
        return counted(*args)

    monkeypatch.setattr(linalg, "gcd", counting)
    assert linalg.rank(rows) == 8
    assert linalg.pivot_columns(rows) == pivots
    # one gcd per pivot reached and one per new basis row, for 11 rows each
    assert 0 < len(gcds) <= 2 * 11 * 9
    with pytest.raises(TypeError, match="integer rows only"):
        linalg.rank(rows[:-1] + [(Fraction(1, 2),) + rows[-1][1:]])


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_det_adjugate_matches_cofactors(m):
    n = len(m)
    det = cofactor_det(m)
    if det == 0:
        with pytest.raises(ValueError):
            linalg.det_adjugate(m)
        return
    got, adj = linalg.det_adjugate(m)
    assert got == det
    assert all(type(x) is int for row in adj for x in row)
    scaled_identity = tuple(tuple(det * int(i == j) for j in range(n)) for i in range(n))
    assert linalg.matmul(adj, m) == scaled_identity
    assert linalg.matmul(m, adj) == scaled_identity


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_invert_matches_reference(m):
    n = len(m)
    aug, pivots = reference_rref([list(r) + [int(i == j) for j in range(n)]
                                  for i, r in enumerate(m)], n)
    if len(pivots) < n:
        with pytest.raises(ValueError):
            linalg.invert(m)
        return
    assert linalg.invert(m) == tuple(tuple(r[n:]) for r in aug)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_columns_matches_reference(columns, data):
    dim = len(columns[0]) if columns else data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(columns),
                                    max_size=len(columns)))
        target = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim)]
    else:
        target = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    k = len(columns)
    aug, pivots = reference_rref(
        [[col[i] for col in columns] + [target[i]] for i in range(dim)], k)
    got = linalg.solve_columns(columns, target)
    if any(row[k] != 0 for row in aug[len(pivots):]):
        assert got is None
        return
    want = [Fraction(0)] * k
    for row, col in zip(aug, pivots):
        want[col] = row[k]
    assert got == tuple(want)
    assert all(sum(g * col[i] for g, col in zip(got, columns)) == target[i]
               for i in range(dim))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_extend_to_basis_matches_reference(m):
    dim = len(m[0]) if m else 0
    family = list(m) + [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    _, picked = reference_rref([list(col) for col in zip(*family)] if dim else [])
    if picked[:len(m)] != list(range(len(m))):
        with pytest.raises(ValueError):
            linalg.extend_to_basis(m, dim)
        return
    assert linalg.extend_to_basis(m, dim) == tuple(family[i] for i in picked)
