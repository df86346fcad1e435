from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlattice import linalg


def test_invert_roundtrip():
    m = linalg.mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    inv = linalg.invert(m)
    assert linalg.matmul(m, inv) == linalg.identity(3)
    assert linalg.matmul(inv, m) == linalg.identity(3)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        linalg.invert(linalg.mat([[1, 2], [2, 4]]))


def test_rank():
    assert linalg.rank([linalg.vec([1, 0]), linalg.vec([0, 1])]) == 2
    assert linalg.rank([linalg.vec([1, 2]), linalg.vec([2, 4])]) == 1
    assert linalg.rank([]) == 0


def test_solve_columns_exact():
    cols = [linalg.vec([1, 0, 1]), linalg.vec([0, 1, 1])]
    coeffs = linalg.solve_columns(cols, linalg.vec([2, 3, 5]))
    assert coeffs == (Fraction(2), Fraction(3))
    assert linalg.solve_columns(cols, linalg.vec([1, 0, 0])) is None


def test_extend_to_basis():
    base = [linalg.vec([1, 1, 0])]
    full = linalg.extend_to_basis(base, 3)
    assert len(full) == 3
    assert linalg.rank(list(full)) == 3


def test_extend_to_basis_rejects_dependent_family():
    with pytest.raises(ValueError):
        linalg.extend_to_basis([linalg.vec([1, 2]), linalg.vec([2, 4])], 2)


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
    basis = [linalg.vec(v) for v in vectors]
    for j in range(dim):
        candidate = linalg.vec(int(i == j) for i in range(dim))
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
    return dim, [linalg.vec(r) for r in rows]


@settings(max_examples=200, deadline=None)
@given(integer_families())
def test_pivot_columns_and_extend_match_rank_loops(family):
    dim, vectors = family
    picked = linalg.pivot_columns(linalg.transpose(vectors))
    assert picked == greedy_by_rank(vectors)
    independent = [vectors[i] for i in picked]
    assert linalg.extend_to_basis(independent, dim) == extend_by_rank(independent, dim)
