"""Inner products induced by characters, and matching of formal characters.

A weight multiset induces a symmetric form on the dual of its span (sum of
squares of weight evaluations); its dual form is the inner product the
matching arguments use.  Any linear bijection carrying one weight multiset
onto another is an isometry for the two induced forms.  Conversely, each form
is positive definite on its span, so equal Gram matrices mean equal linear
relations, and a Gram-compatible bijection of distinct weights extends to a
linear map: the iterative matching search stops at the first one.

The search, the induced norms and the witnesses run in integers: a form M^-1
is carried as det(M) and adj(M) = det(M) M^-1, a Gram matrix as integers over
its least common denominator, and Fractions are built only for values that
leave the module (witness matrices, norm2, char_inner_product).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import neg

from . import linalg
from ._record import record
from .linalg import Mat
from .reps import FormalCharacter
from .rootsys import Coords, LatticeInvolution, first_placement


class DegenerateFormError(ValueError):
    """The character does not act faithfully, so the induced form is singular."""


class NonCompatibleInvolutionError(ValueError):
    """The involution does not act on the character's weight multiset."""


def _moment_matrix(weighted, dim: int) -> list[list[int]]:
    """Sum of mult * v v^T over the (v, mult) pairs, v of length dim."""
    m = [[0] * dim for _ in range(dim)]
    for v, mult in weighted:
        for i in range(dim):
            if v[i]:
                for j in range(dim):
                    if v[j]:
                        m[i][j] += mult * v[i] * v[j]
    return m


def _induced_form(weights, rank: int) -> tuple[list[Coords], int, Mat]:
    """Coordinates C of the distinct weights (the (weight, mult) pairs of a
    character of the given rank) in a basis of their span, det(M) and adj(M)
    for M = sum mult c c^T.

    With p the pivot columns of the distinct-weight matrix and R the rows of
    its reduced echelon form, each weight is w = sum_k w[p_k] R_k, so its
    entries at p are its coordinates c in the basis R.  The rank x rank
    moment matrix sum mult w w^T has the kernel of the weight matrix, so its
    columns depend on each other as the weights' columns do: p is read off
    it, and M is its block on p.  For a faithful character p is every
    column, and M is in fundamental coordinates.
    """
    full = _moment_matrix(weights, rank)
    pivots = linalg.pivot_columns(full)
    coords = [tuple(w[p] for p in pivots) for w, _ in weights]
    det, adj = linalg.det_adjugate([[full[i][j] for j in pivots] for i in pivots])
    return coords, det, adj


def _form_adjugate(fc: FormalCharacter) -> tuple[int, Mat]:
    """det(M) > 0 and adj(M) for the character's moment matrix M in
    fundamental coordinates; needs a faithful character."""
    _, det, adj = _induced_form(fc.weights, fc.algebra.rank)
    if len(adj) != fc.algebra.rank:
        split = [fc.algebra.split_coords(w) for w, _ in fc.weights]
        trivial = [str(st) for i, st in enumerate(fc.algebra.factors)
                   if not any(any(parts[i]) for parts in split)]
        detail = f"; factors acting trivially: {', '.join(trivial)}" if trivial else ""
        raise DegenerateFormError(f"character of {fc.algebra} is not faithful{detail}")
    return det, adj


def char_inner_product(fc: FormalCharacter) -> Mat:
    """Matrix, in fundamental coordinates, of the inner product the character
    induces on weight space: the dual of its sum-of-squares form.  Needs a
    faithful character."""
    det, adj = _form_adjugate(fc)
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


# ---------------------------------------------------------------------------
# Formal-character matching.


@record
class CharIsomorphism:
    """A linear weight-space bijection carrying one character onto another,
    held as the integer matrix scaled over the denominator den > 0."""

    source: FormalCharacter
    target: FormalCharacter
    scaled: Mat
    den: int

    @property
    def matrix(self) -> Mat:
        """The map scaled / den, in Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.scaled)

    def apply(self, w: Coords) -> Coords:
        out = []
        for x in linalg.matvec(self.scaled, w):
            q, rem = divmod(x, self.den)
            if rem:
                raise AssertionError("witness maps a lattice point off the lattice")
            out.append(q)
        return tuple(out)

    def validate(self) -> bool:
        if linalg.rank(self.scaled) != len(self.scaled):
            raise ValueError("singular matrix")
        mapped: dict[Coords, int] = {}
        for w, m in self.source.weights:
            im = self.apply(w)
            mapped[im] = mapped.get(im, 0) + m
        return mapped == self.target.counts()


def _invariants(weights) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The zero weight's multiplicity and the sorted (m(w), m(-w)) over the
    nonzero distinct weights w.  A linear bijection fixes 0 and commutes with
    negation, so two characters it matches have the same invariants."""
    counts = dict(weights)
    zero = 0
    pairs = []
    for w, m in weights:
        if any(w):
            pairs.append((m, counts.get(tuple(map(neg, w)), 0)))
        else:
            zero = m
    return zero, tuple(sorted(pairs))


class _MatchData:
    """What the matching search reads of one character, computed once: the
    distinct weights, their multiplicities and the invariants, and on first
    use the span data and the witness basis.  It keeps the weights, not the
    character, so its entry in the weak-keyed memo, Gram matrix included,
    goes with the character."""

    def __init__(self, fc: FormalCharacter) -> None:
        self.weights = fc.weights
        self.rank = fc.algebra.rank
        self.distinct = fc.distinct()
        self.mults = [m for _, m in fc.weights]
        self.invariants = _invariants(fc.weights)

    @cached_property
    def span_data(self) -> tuple[int, int, Mat]:
        """Rank of the weights' span, and the Gram matrix C M^-1 C^T, which
        does not depend on the span basis, in lowest terms: a least common
        denominator den > 0 and the integers den C M^-1 C^T.  So two
        characters' Gram entries are equal rationals exactly when their dens
        and integers are equal."""
        coords, det, adj = _induced_form(self.weights, self.rank)
        left = linalg.matmul(coords, adj)
        # Rows of C adj(M) against rows of C; a rank-0 span gives an n x n zero matrix.
        gram = [[linalg.dot(x, c) for c in coords] for x in left]
        g = det
        for row in gram:
            g = gcd(g, *row)
        return len(adj), det // g, tuple(tuple(x // g for x in row) for row in gram)

    @cached_property
    def keys(self) -> list[tuple]:
        """Per weight: multiplicity, norm and the sorted (Gram entry,
        multiplicity) row."""
        gram, mults = self.span_data[2], self.mults
        return [(m, row[i], tuple(sorted(zip(row, mults))))
                for i, (row, m) in enumerate(zip(gram, mults))]

    @cached_property
    def order(self) -> list[int]:
        """The distinct weights' indices in (norm, weight) order."""
        gram, distinct = self.span_data[2], self.distinct
        return sorted(range(len(distinct)), key=lambda i: (gram[i][i], distinct[i]))

    @cached_property
    def basis(self) -> tuple[list[int], int, Mat]:
        """The indices of the first independent distinct weights, and det(B) > 0
        and adj(B) for the columns B of those weights, completed with unit
        vectors to a basis."""
        picked = linalg.pivot_columns(linalg.transpose(self.distinct))
        full = linalg.extend_to_basis([self.distinct[k] for k in picked], self.rank)
        det, adj = linalg.det_adjugate(linalg.transpose(full))
        if det < 0:
            det, adj = -det, tuple(tuple(-x for x in row) for row in adj)
        return picked, det, adj


# Weak keys: an entry, Gram matrix included, goes with its character.
_MATCH_DATA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _match_data(fc: FormalCharacter) -> _MatchData:
    data = _MATCH_DATA.get(fc)
    if data is None:
        data = _MATCH_DATA[fc] = _MatchData(fc)
    return data


def same_formal_character(fc1: FormalCharacter, fc2: FormalCharacter):
    """Search for a linear bijection matching two weight multisets exactly.

    Returns a CharIsomorphism witness or None.  Characters that differ in
    size, rank, number of distinct weights, zero-weight multiplicity or the
    (m(w), m(-w)) pair list are rejected before any Gram data is built; each
    character's match data is computed once and kept while it lives.
    Distinct weights are paired by an iterative depth-first search on
    multiplicity and induced-form Gram data.  Each induced form is positive
    definite on its span, so a Gram-compatible bijection keeps every linear
    relation and extends to a linear map: the search stops at the first one,
    and None proves that no witness exists.
    """
    if fc1.size != fc2.size:
        return None
    if fc1.algebra.rank != fc2.algebra.rank:
        return None
    data1, data2 = _match_data(fc1), _match_data(fc2)
    d1, d2 = data1.distinct, data2.distinct
    if len(d1) != len(d2) or data1.invariants != data2.invariants:
        return None
    span1, den1, gram1 = data1.span_data
    span2, den2, gram2 = data2.span_data
    if span1 != span2 or den1 != den2 or sorted(data1.keys) != sorted(data2.keys):
        return None

    # Source weights in (norm, lex) order; target candidates share that order.
    order1 = data1.order
    targets: dict[tuple, list[int]] = {}
    for j in data2.order:
        targets.setdefault(data2.keys[j], []).append(j)
    candidates = [targets[data1.keys[i]] for i in order1]

    def fits(placed: list[int]):
        """Targets for order1[len(placed)] with its Gram entries against those placed."""
        row1 = gram1[order1[len(placed)]]
        for j in candidates[len(placed)]:
            row2 = gram2[j]
            if j not in placed and all(row1[i] == row2[k] for i, k in zip(order1, placed)):
                yield j

    placed = first_placement(len(d1), fits)
    if placed is None:
        return None
    scaled, den = _linear_witness(data1, [d2[j] for _, j in sorted(zip(order1, placed))])
    witness = CharIsomorphism(source=fc1, target=fc2, scaled=scaled, den=den)
    if not witness.validate():
        raise AssertionError("a Gram-compatible bijection did not extend to a witness")
    return witness


def _linear_witness(source: _MatchData, targets) -> tuple[Mat, int]:
    """(N, den > 0) with N / den carrying each distinct source weight to its
    target, which a Gram-compatible bijection guarantees: T adj(B) / det(B)
    for the source basis B and the targets T of its weights, completed with
    the same unit vectors."""
    picked, det, adj = source.basis
    full_tgt = linalg.extend_to_basis([targets[k] for k in picked], source.rank)
    return linalg.matmul(linalg.transpose(full_tgt), adj), det




# ---------------------------------------------------------------------------
# Closed-form alternating-power statistics, max-norm weights, conjugation sums.


@record
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
    norm2 = Fraction(a * (n + 1 - a), n + 1)
    return AltPowerStats(
        n=n,
        a=a,
        norm2=norm2,
        max_ip=norm2 - 1,
        min_ip=norm2 - min(a, n + 1 - a),
    )


@record
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
    det, adj = _form_adjugate(fc)
    # det(M) > 0, so the integer norms w^T adj(M) w order as the norms do.
    norms = [(linalg.dot(w, linalg.matvec(adj, w)), w) for w, _ in fc.weights]
    top = max(n for n, _ in norms)
    winners = tuple(w for n, w in norms if n == top)
    spans = linalg.rank(winners) == fc.algebra.rank
    bound_ok = (not spans) or len(winners) >= fc.algebra.rank + 1
    return MaxNormRecord(weights=winners, norm2=Fraction(top, det), spans=spans,
                         bound_ok=bound_ok)


@record
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
