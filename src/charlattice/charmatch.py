"""Inner products induced by characters, and matching of formal characters.

A weight multiset induces a symmetric form on the dual of its span (sum of
squares of weight evaluations); its dual form is the inner product the
matching arguments use.  Any linear bijection carrying one weight multiset
onto another is an isometry for the two induced forms.  Conversely, each form
is positive definite on its span, so once a basis of weights is placed
with matching Gram entries, the image of every other weight is forced: the
iterative matching search stops at the first complete placement.

The search, the induced norms and the witnesses run in integers: a form M^-1
is carried as det(M) and adj(M) = det(M) M^-1, a Gram entry or norm as an
integer over det(M), compared across two characters by cross-multiplying,
and Fractions are built only for values that leave the module (witness
matrices, norm2, char_inner_product).
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg

from . import linalg
from ._record import record
from .linalg import Mat
from .reps import FormalCharacter
from .rootsys import Coords, first_placement


class DegenerateFormError(ValueError):
    """The character does not act faithfully, so the induced form is singular."""


class NonCompatibleInvolutionError(ValueError):
    """The involution does not act on the character's weight multiset."""


def _moment_matrix(weighted, dim: int) -> list[list[int]]:
    """Sum of mult * v v^T over the (v, mult) pairs, v of length dim."""
    m = [[0] * dim for _ in range(dim)]
    for v, mult in weighted:
        nonzero = [(i, x) for i, x in enumerate(v) if x]
        for i, x in nonzero:
            for j, y in nonzero:
                m[i][j] += mult * x * y
    return m


def _form_entry(adj: Mat, x: Coords, y: Coords) -> int:
    """x adj y, summed over the nonzero coordinates of x and y only."""
    ys = [(j, b) for j, b in enumerate(y) if b]
    return sum(a * sum(adj[i][j] * b for j, b in ys) for i, a in enumerate(x) if a)


def char_inner_product(fc: FormalCharacter) -> Mat:
    """Matrix, in fundamental coordinates, of the inner product the character
    induces on weight space: the dual of its sum-of-squares form.  Needs a
    faithful character."""
    det, adj, _ = _faithful_form(fc)
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


def _form(fc: FormalCharacter) -> tuple[int, Mat, list[Coords], list[int]]:
    """det(M) > 0 and adj(M) for the induced form M on the weights' span,
    the span coordinates C of the distinct weights and their integer norms
    c adj(M) c.  A Gram entry is _form_entry(adj(M), c_i, c_k) over det(M),
    computed where the search reads it; nothing n x n is built.

    With p the pivot columns of the distinct-weight matrix and R the rows of
    its reduced echelon form, each weight is w = sum_k w[p_k] R_k, so its
    entries at p are its coordinates c in the basis R.  The rank x rank
    moment matrix sum mult w w^T has the kernel of the weight matrix, so its
    columns depend on each other as the weights' columns do: p is read off
    it, and M = sum mult c c^T is its block on p.  For a faithful character
    p is every column, C is the weights themselves and M is in fundamental
    coordinates.
    """
    rank = fc.algebra.rank
    full = _moment_matrix(fc.weights, rank)
    pivots = linalg.pivot_columns(full)
    coords = (list(fc.distinct()) if len(pivots) == rank
              else [tuple(w[p] for p in pivots) for w, _ in fc.weights])
    det, adj = linalg.det_adjugate([[full[i][j] for j in pivots] for i in pivots])
    return det, adj, coords, [_form_entry(adj, c, c) for c in coords]


def _faithful_form(fc: FormalCharacter) -> tuple[int, Mat, list[int]]:
    """det(M), adj(M) in fundamental coordinates and the integer norms of
    `_form`; raises DegenerateFormError unless the character is faithful."""
    det, adj, _, norms = _form(fc)
    alg = fc.algebra
    if len(adj) != alg.rank:
        split = [alg.split_coords(w) for w, _ in fc.weights]
        trivial = [str(st) for i, st in enumerate(alg.factors)
                   if not any(any(parts[i]) for parts in split)]
        detail = f"; factors acting trivially: {', '.join(trivial)}" if trivial else ""
        raise DegenerateFormError(f"character of {alg} is not faithful{detail}")
    return det, adj, norms


def _basis(ws: list[Coords], rank: int) -> tuple[list[int], int, Mat, dict[int, Coords]]:
    """The positions of ws whose weight is independent of the weights before
    it; det(B) > 0 and adj(B) for the columns B of those weights, completed
    with unit vectors to a basis; and at every other position, the integer
    coefficients a = adj(B) w of its weight over the basis positions before
    it, so w = sum a_k B_k / det(B).

    One elimination picks both: a column of ws followed by the unit vectors
    pivots exactly when it is independent of the columns before it, so the
    pivots below len(ws) are the independent weights, and the unit vectors
    that pivot complete them in extend_to_basis's order.
    """
    family = list(ws) + list(linalg.identity(rank))
    cols = linalg.pivot_columns(linalg.transpose(family))
    picked = [c for c in cols if c < len(ws)]
    det, adj = linalg.det_adjugate(linalg.transpose([family[c] for c in cols]))
    if det < 0:
        det, adj = -det, tuple(tuple(-x for x in row) for row in adj)
    coeffs = {p: linalg.matvec(adj[:sum(k < p for k in picked)], w)
              for p, w in enumerate(ws) if p not in picked}
    return picked, det, adj, coeffs


def same_formal_character(fc1: FormalCharacter, fc2: FormalCharacter):
    """Search for a linear bijection matching two weight multisets exactly.

    Returns a CharIsomorphism witness or None.  Characters that differ in
    size, rank, number of distinct weights, zero-weight multiplicity or the
    (m(w), m(-w)) pair list are rejected before any form data is built;
    each side's form data (one form when the sides are equal) and the
    source's search basis are then computed once for the call.  Distinct
    source weights are placed in (norm, weight) order by an iterative
    depth-first search.  A weight independent of those before it is a basis
    weight: its candidates are the targets of its multiplicity and
    norm whose Gram entries against the basis targets placed so far are its
    own.  Each induced form is positive definite on its span, so the placed
    basis fixes a linear isometry T, and any other weight w can only go to
    T(w).  The first complete placement gives the witness T, and None proves
    that no witness exists.
    """
    if fc1.size != fc2.size or fc1.algebra.rank != fc2.algebra.rank:
        return None
    d1, d2 = fc1.distinct(), fc2.distinct()
    if len(d1) != len(d2) or _invariants(fc1.weights) != _invariants(fc2.weights):
        return None
    form1 = _form(fc1)
    det1, adj1, coords1, norms1 = form1
    # A self-dual character equals its negation: one form serves both sides.
    det2, adj2, coords2, norms2 = form1 if fc2 == fc1 else _form(fc2)
    # Norms and Gram entries are integers over each side's det(M): compare
    # them across the sides by cross-multiplying.
    keys1 = [(m, x * det2) for (_, m), x in zip(fc1.weights, norms1)]
    keys2 = [(m, x * det1) for (_, m), x in zip(fc2.weights, norms2)]
    if len(adj1) != len(adj2) or sorted(keys1) != sorted(keys2):
        return None

    rank = fc1.algebra.rank
    order1 = sorted(range(len(d1)), key=lambda i: (norms1[i], d1[i]))
    picked, det, adj, coeffs = _basis([d1[i] for i in order1], rank)
    targets: dict[tuple, list[int]] = {}
    for j in sorted(range(len(d2)), key=lambda j: (norms2[j], d2[j])):
        targets.setdefault(keys2[j], []).append(j)
    index2 = {w: j for j, w in enumerate(d2)}

    def fits(placed: list[int]):
        """Targets for the source weight at position p = len(placed)."""
        p = len(placed)
        i = order1[p]
        a = coeffs.get(p)
        if a is None:  # a basis position
            want = [(_form_entry(adj1, coords1[i], coords1[order1[k]]) * det2, coords2[placed[k]])
                    for k in picked[:picked.index(p)]]
            yield from (j for j in targets.get(keys1[i], ()) if j not in placed and all(
                _form_entry(adj2, coords2[j], c) * det1 == g for g, c in want))
            return
        # The forced image T(w); only the zero weight precedes every basis weight.
        cols = list(zip(*(d2[placed[k]] for k in picked[:len(a)]))) or [()] * rank
        sums = [linalg.dot(a, col) for col in cols]
        if any(x % det for x in sums):
            return
        j = index2.get(tuple(x // det for x in sums))
        if j is not None and fc2.weights[j][1] == fc1.weights[i][1]:
            yield j

    placed = first_placement(len(d1), fits)
    if placed is None:
        return None
    full = linalg.extend_to_basis([d2[placed[p]] for p in picked], rank)
    witness = CharIsomorphism(source=fc1, target=fc2,
                              scaled=linalg.matmul(linalg.transpose(full), adj), den=det)
    if not witness.validate():
        raise AssertionError("a Gram-compatible bijection did not extend to a witness")
    return witness


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
    det, _, norms = _faithful_form(fc)
    # det(M) > 0, so the integer norms w^T adj(M) w order as the norms do.
    top = max(norms)
    winners = tuple(w for (w, _), x in zip(fc.weights, norms) if x == top)
    spans = linalg.rank(winners) == fc.algebra.rank
    bound_ok = (not spans) or len(winners) >= fc.algebra.rank + 1
    return MaxNormRecord(weights=winners, norm2=Fraction(top, det), spans=spans,
                         bound_ok=bound_ok)


def _permuted_counts(fc: FormalCharacter, perm: Coords, sign: int) -> dict[Coords, int]:
    """The counts of sign * perm(w) over the weights w, after checking that
    perm is an involutive permutation of fc's coordinates, so w -> perm(w) is 1-1."""
    if len(perm) != fc.algebra.rank:
        raise NonCompatibleInvolutionError("involution rank does not match the algebra")
    if sorted(perm) != list(range(len(perm))) or any(perm[p] != i for i, p in enumerate(perm)):
        raise NonCompatibleInvolutionError(f"{perm} is not an involutive coordinate permutation")
    return {tuple(sign * w[p] for p in perm): m for w, m in fc.weights}


def conjugation_sums(fc: FormalCharacter, perm: Coords) -> FormalCharacter:
    """Multiset {w + perm(w)} for a diagram involution perm of the fundamental
    coordinates; perm must carry the multiset onto itself or its negation."""
    counts, image = fc.counts(), _permuted_counts(fc, perm, 1)
    if image != counts and image != {tuple(map(neg, w)): m for w, m in counts.items()}:
        raise NonCompatibleInvolutionError(
            "involution maps the weight multiset neither to itself nor to its negation")
    sums: dict[Coords, int] = {}
    for w, m in fc.weights:
        s = tuple(w[i] + w[p] for i, p in enumerate(perm))
        sums[s] = sums.get(s, 0) + m
    return FormalCharacter.from_counts(fc.algebra, sums)


def fixed_point_exists(fc: FormalCharacter, perm: Coords) -> bool:
    """Whether w = -perm(w) for some weight; the map w -> -perm(w) must permute the multiset."""
    if _permuted_counts(fc, perm, -1) != fc.counts():
        raise NonCompatibleInvolutionError(
            "the map w -> -inv(w) does not permute the weight multiset")
    return any(all(w[i] == -w[p] for i, p in enumerate(perm)) for w, _ in fc.weights)


__all__ = [
    "AltPowerStats",
    "CharIsomorphism",
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
