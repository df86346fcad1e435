"""Inner products induced by characters, and matching of formal characters.

A weight multiset induces a symmetric form on the dual of its span (sum of
squares of weight evaluations); its dual form is the inner product the
matching arguments use.  Any linear bijection carrying one weight multiset
onto another is automatically an isometry for the two induced forms, so Gram
data is a sound and complete pruning device for the matching search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Mat
from .reps import FormalCharacter
from .rootsys import Coords, LatticeInvolution

Q = Fraction


class DegenerateFormError(ValueError):
    """The character does not act faithfully, so the induced form is singular."""


class NonCompatibleInvolutionError(ValueError):
    """The involution does not act on the character's weight multiset."""


def _moment_matrix(weighted, dim: int) -> list[list[Fraction]]:
    """Sum of mult * v v^T over the (v, mult) pairs, v of length dim."""
    m = [[Q(0)] * dim for _ in range(dim)]
    for v, mult in weighted:
        for i in range(dim):
            if v[i]:
                for j in range(dim):
                    if v[j]:
                        m[i][j] += mult * v[i] * v[j]
    return m


def char_inner_product(fc: FormalCharacter) -> Mat:
    """Matrix, in fundamental coordinates, of the inner product the character
    induces on weight space: the dual of its sum-of-squares form.  Needs a
    faithful character."""
    try:
        dual = linalg.invert(_moment_matrix(fc.weights, fc.algebra.rank))
    except ValueError:
        trivial = [
            str(st) for st, block in zip(fc.algebra.factors, _factor_blocks(fc))
            if not any(any(c for c in piece) for piece in block)
        ]
        detail = f"; factors acting trivially: {', '.join(trivial)}" if trivial else ""
        raise DegenerateFormError(f"character of {fc.algebra} is not faithful{detail}")
    return dual


def _factor_blocks(fc: FormalCharacter) -> list[list[Coords]]:
    out = []
    pos = 0
    for st in fc.algebra.factors:
        out.append([w[pos:pos + st.rank] for w, _ in fc.weights])
        pos += st.rank
    return out


# ---------------------------------------------------------------------------
# Formal-character matching.


@dataclass(frozen=True)
class CharIsomorphism:
    """A linear weight-space bijection carrying one character onto another."""

    source: FormalCharacter
    target: FormalCharacter
    matrix: Mat

    def apply(self, w: Coords) -> Coords:
        image = linalg.matvec(self.matrix, linalg.vec(w))
        out = []
        for c in image:
            if c.denominator != 1:
                raise AssertionError("witness maps a lattice point off the lattice")
            out.append(int(c))
        return tuple(out)

    def validate(self) -> bool:
        linalg.invert(self.matrix)  # raises when singular
        mapped: dict[Coords, int] = {}
        for w, m in self.source.weights:
            im = self.apply(w)
            mapped[im] = mapped.get(im, 0) + m
        return mapped == self.target.counts()


def _span_data(fc: FormalCharacter) -> tuple[int, Mat]:
    """Rank of the weights' span and the induced Gram matrix of the distinct weights.

    With p the pivot columns of the distinct-weight matrix and R the rows of
    its reduced echelon form, each weight is w = sum_k w[p_k] R_k, so its
    integer entries at p are its coordinates c in the span basis R.  The Gram
    matrix C M^-1 C^T, with M = sum mult c c^T, does not depend on that basis.
    """
    distinct = fc.distinct()
    pivots = linalg.pivot_columns(distinct)
    coords = [tuple(w[p] for p in pivots) for w in distinct]
    moment = _moment_matrix(zip(coords, (m for _, m in fc.weights)), len(pivots))
    left = linalg.matmul(coords, linalg.invert(moment))
    # Rows of C M^-1 against rows of C; a rank-0 span gives an n x n zero matrix.
    gram = tuple(tuple(linalg.dot(x, c) for c in coords) for x in left)
    return len(pivots), gram


def same_formal_character(fc1: FormalCharacter, fc2: FormalCharacter):
    """Search for a linear bijection matching two weight multisets exactly.

    Returns a CharIsomorphism witness or None.  Candidate pairings must agree
    on multiplicity and on induced-form Gram data; the backtracking completes
    each Gram-compatible bijection and keeps searching until one extends to a
    linear map, so absence of a witness is a proof of failure.
    """
    if fc1.size != fc2.size:
        return None
    rank = fc1.algebra.rank
    if rank != fc2.algebra.rank:
        return None
    d1, d2 = fc1.distinct(), fc2.distinct()
    if len(d1) != len(d2):
        return None
    m1 = [m for _, m in fc1.weights]
    m2 = [m for _, m in fc2.weights]
    span1, gram1 = _span_data(fc1)
    span2, gram2 = _span_data(fc2)
    if span1 != span2:
        return None

    n = len(d1)
    prof1 = _row_profiles(gram1, m1)
    prof2 = _row_profiles(gram2, m2)
    if sorted(zip((g for g in _diag(gram1)), m1, prof1)) != \
            sorted(zip((g for g in _diag(gram2)), m2, prof2)):
        return None

    # Source weights in (norm, lex) order; target candidates share that order.
    order1 = sorted(range(n), key=lambda i: (gram1[i][i], d1[i]))
    order2 = sorted(range(n), key=lambda j: (gram2[j][j], d2[j]))
    targets: dict[tuple, list[int]] = {}
    for j in order2:
        targets.setdefault((m2[j], gram2[j][j], prof2[j]), []).append(j)
    candidates = {i: targets.get((m1[i], gram1[i][i], prof1[i]), []) for i in order1}

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int):
        if pos == n:
            yield dict(assignment)
            return
        i = order1[pos]
        for j in candidates[i]:
            if j in used:
                continue
            if any(gram1[i][k] != gram2[j][assignment[k]] for k in assignment):
                continue
            assignment[i] = j
            used.add(j)
            yield from backtrack(pos + 1)
            del assignment[i]
            used.discard(j)

    for sigma in backtrack(0):
        matrix = _linear_witness(d1, d2, sigma, rank)
        if matrix is None:
            continue
        witness = CharIsomorphism(source=fc1, target=fc2, matrix=matrix)
        if witness.validate():
            return witness
    return None


def _diag(gram: Mat):
    return (gram[i][i] for i in range(len(gram)))


def _row_profiles(gram: Mat, mults: list[int]):
    n = len(gram)
    return [tuple(sorted((gram[i][j], mults[j]) for j in range(n))) for i in range(n)]


def _linear_witness(d1, d2, sigma: dict[int, int], rank: int):
    """Extend a weight bijection to a full-rank matrix, or report None."""
    pairs = [(linalg.vec(d1[i]), linalg.vec(d2[sigma[i]])) for i in sorted(sigma)]
    picked = linalg.pivot_columns(linalg.transpose([src for src, _ in pairs]))
    span_sources = [pairs[k][0] for k in picked]
    span_targets = [pairs[k][1] for k in picked]
    if linalg.rank(span_targets) != len(span_targets):
        return None
    full_src = linalg.extend_to_basis(span_sources, rank)
    full_tgt = linalg.extend_to_basis(span_targets, rank)
    b = linalg.transpose(full_src)
    t = linalg.transpose(full_tgt)
    matrix = linalg.matmul(t, linalg.invert(b))
    for src, tgt in pairs:
        if linalg.matvec(matrix, src) != tgt:
            return None
    return matrix


# ---------------------------------------------------------------------------
# Closed-form alternating-power statistics, max-norm weights, conjugation sums.


@dataclass(frozen=True)
class AltPowerStats:
    """Norm and extreme inner products among weights of an alternating power."""

    n: int
    a: int
    norm2: Fraction
    max_ip: Fraction
    min_ip: Fraction


def alt_power_stats(n: int, a: int) -> AltPowerStats:
    """Exact statistics for the a-th alternating power of the standard
    representation of sl_(n+1), under the standard normalization."""
    if not 1 <= a <= n:
        raise ValueError(f"need 1 <= a <= n, got a={a}, n={n}")
    norm2 = Q(a * (n + 1 - a), n + 1)
    return AltPowerStats(
        n=n,
        a=a,
        norm2=norm2,
        max_ip=norm2 - 1,
        min_ip=norm2 - min(a, n + 1 - a),
    )


@dataclass(frozen=True)
class MaxNormRecord:
    """The maximal-norm weights of a character under its induced form."""

    weights: tuple[Coords, ...]
    norm2: Fraction
    spans: bool
    bound_ok: bool


def max_norm_weights(fc: FormalCharacter) -> MaxNormRecord:
    """Maximal-norm weights, whether they span, and the count bound #W >= rank + 1.

    The bound is asserted only when the maximal-norm weights span; it is the
    type-A spanning bound, so callers interpret bound_ok for all-type-A
    algebras.
    """
    form = char_inner_product(fc)
    norms = [(linalg.dot(w, linalg.matvec(form, w)), w) for w, _ in fc.weights]
    top = max(n for n, _ in norms)
    winners = tuple(w for n, w in norms if n == top)
    spans = linalg.rank([linalg.vec(w) for w in winners]) == fc.algebra.rank
    bound_ok = (not spans) or len(winners) >= fc.algebra.rank + 1
    return MaxNormRecord(weights=winners, norm2=top, spans=spans, bound_ok=bound_ok)


@dataclass(frozen=True)
class ConjugationMultiset:
    """The multiset of sums w + inv(w) over a character's weights."""

    base: FormalCharacter
    involution: LatticeInvolution
    sums: FormalCharacter


def _involution_image_counts(fc: FormalCharacter, inv: LatticeInvolution, sign: int) -> dict[Coords, int]:
    out: dict[Coords, int] = {}
    for w, m in fc.weights:
        im = tuple(sign * c for c in inv.apply(w))
        out[im] = out.get(im, 0) + m
    return out


def conjugation_sums(fc: FormalCharacter, inv: LatticeInvolution) -> ConjugationMultiset:
    """Multiset {w + inv(w)}; inv must carry the multiset onto itself or its negation."""
    if inv.rank != fc.algebra.rank:
        raise NonCompatibleInvolutionError("involution rank does not match the algebra")
    counts = fc.counts()
    if _involution_image_counts(fc, inv, 1) != counts and \
            _involution_image_counts(fc, inv, -1) != counts:
        raise NonCompatibleInvolutionError(
            "involution maps the weight multiset neither to itself nor to its negation")
    sums: dict[Coords, int] = {}
    for w, m in fc.weights:
        s = tuple(a + b for a, b in zip(w, inv.apply(w)))
        sums[s] = sums.get(s, 0) + m
    return ConjugationMultiset(
        base=fc,
        involution=inv,
        sums=FormalCharacter.from_counts(fc.algebra, sums),
    )


def fixed_point_exists(fc: FormalCharacter, inv: LatticeInvolution) -> bool:
    """Whether w = -inv(w) for some weight; the map w -> -inv(w) must permute the multiset."""
    if inv.rank != fc.algebra.rank:
        raise NonCompatibleInvolutionError("involution rank does not match the algebra")
    if _involution_image_counts(fc, inv, -1) != fc.counts():
        raise NonCompatibleInvolutionError(
            "the map w -> -inv(w) does not permute the weight multiset")
    return any(tuple(-c for c in inv.apply(w)) == w for w, _ in fc.weights)


__all__ = [
    "AltPowerStats",
    "CharIsomorphism",
    "ConjugationMultiset",
    "DegenerateFormError",
    "MaxNormRecord",
    "NonCompatibleInvolutionError",
    "alt_power_stats",
    "char_inner_product",
    "conjugation_sums",
    "fixed_point_exists",
    "max_norm_weights",
    "same_formal_character",
]
