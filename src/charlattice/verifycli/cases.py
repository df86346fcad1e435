"""Named verification cases.

Each case replays one finite argument from the classification of matching
formal characters: an exact computation with a frozen expected outcome, broken
into steps so a failure points at the precise claim that broke.  _CASES
declares each case's parameter domain; run_case checks it, runs the case and
adds the case id and inputs to its steps.  default_suite lists the cases that
make up the full verification run.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .. import linalg
from .._record import record
from ..abmultiset import (AbGroup, GroupMultiset, factorization_count_bound,
                          factorizations, multiset_product)
from ..charmatch import (alt_power_stats, conjugation_sums, fixed_point_exists,
                         max_norm_weights, same_formal_character)
from ..goursat import verify_goursat_lemma
from ..reps import (HighestWeight, SemisimpleAlgebra, direct_sum, dual_highest_weight,
                    enumerate_irreps_up_to_dim, irreducible_character,
                    multiplicity_free_catalog, restrict_to_subsystem, trivial_character,
                    weight_multiset, weyl_dimension)
from ..rootsys import (SimpleType, build_root_system, diagram_automorphisms,
                       type_a_equal_rank, weyl_orbit)

Coords = tuple[int, ...]


class CaseError(ValueError):
    """Unknown case id or a parameter outside its documented range."""


def fmt(value) -> str:
    """Deterministic rendering of exact values for reports."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    return str(value)


@record
class Step:
    claim: str
    computed: str
    expected: str
    passed: bool
    provenance: str

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "computed": self.computed,
            "expected": self.expected,
            "pass": self.passed,
            "provenance": self.provenance,
        }


@record
class CaseReport:
    case_id: str
    inputs: tuple[tuple[str, str], ...]
    steps: tuple[Step, ...]
    notes: tuple[tuple[str, str], ...] = ()

    @property
    def verdict(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "inputs": dict(self.inputs),
            "steps": [s.to_dict() for s in self.steps],
            "notes": dict(self.notes),
            "verdict": "pass" if self.verdict else "fail",
        }


Outcome = tuple[tuple[Step, ...], dict]


class _Steps:
    """Collects steps; check() compares exact values, hold() takes a bool."""

    def __init__(self) -> None:
        self.items: list[Step] = []

    def check(self, claim: str, computed, expected, provenance: str) -> None:
        self.items.append(Step(claim, fmt(computed), fmt(expected),
                               computed == expected, provenance))

    def hold(self, claim: str, condition: bool, provenance: str) -> None:
        self.check(claim, bool(condition), True, provenance)

    def done(self, **notes) -> Outcome:
        """The steps and the notes; run_case adds the case id and inputs."""
        return tuple(self.items), notes


# ---------------------------------------------------------------------------
# Type A self-dual exclusions.

def case_sl2k_selfdual(k: int) -> Outcome:
    """No pair of alternating powers of sl_2k reproduces the inner-product
    ratio of the middle alternating power, for integer degree below k."""
    st = _Steps()
    stats = alt_power_stats(2 * k - 1, k)
    st.check("all middle-alternating-power weights share squared norm k/2",
             stats.norm2, Fraction(k, 2),
             "closed-form alternating-power statistics")
    st.check("the extreme inner-product ratio is 1 - 2/k",
             stats.max_ip / stats.norm2, 1 - Fraction(2, k),
             "closed-form alternating-power statistics")
    same_orbit = [a for a in range(1, k)
                  if Fraction(2, k) == Fraction(2 * k, a * (2 * k - a))]
    st.check("no integer a < k solves 2/k = 2k/(a(2k-a))",
             same_orbit, [],
             "exact rational sweep; equality would force a = k")
    repeats_ok = True
    by_value: dict[int, set[int]] = {}
    for a in range(1, 2 * k):
        by_value.setdefault(a * (2 * k - a), set()).add(a)
    for value, where in by_value.items():
        if where != {min(where), 2 * k - min(where)}:
            repeats_ok = False
    st.hold("a(2k-a) takes repeated values only at a and 2k-a",
            repeats_ok, "quadratic symmetry about a = k")
    a_sol = Fraction(2 * k * (2 * k - 2) - 2 * k * k, 2 * k - 2)
    st.check("the cross-orbit equation 1 - 2/k = 2k/(2k-a) - 1 solves to "
             "a = k - 1 - 1/(k-1)",
             a_sol, Fraction(k - 1) - Fraction(1, k - 1),
             "exact linear solve")
    st.check("that solution is an integer",
             a_sol.denominator == 1, False,
             "k - 1 >= 4 makes the correction term a proper fraction")
    bad_pairs = [
        a for a in range(1, k)
        if max(1 - Fraction(2 * k, a * (2 * k - a)), Fraction(a, 2 * k - a))
        == 1 - Fraction(2, k)
    ]
    st.check("no degree a < k matches the ratio through either branch",
             bad_pairs, [],
             "exhaustive check over both inner-product branches")
    return st.done()


def case_sl2k_selfdual_exclusions() -> Outcome:
    """The two low-degree middle alternating powers fall to divisibility."""
    st = _Steps()
    a5 = SemisimpleAlgebra.parse("A5")
    d20 = weyl_dimension(a5, HighestWeight.from_flat(a5, (0, 0, 1, 0, 0)))
    st.check("the middle alternating power of sl6 has dimension 20",
             d20, 20, "Weyl dimension formula")
    st.hold("20 is excluded by the 4-divisibility gate", d20 % 4 == 0,
            "4 | 20")
    a7 = SemisimpleAlgebra.parse("A7")
    d70 = weyl_dimension(a7, HighestWeight.from_flat(a7, (0, 0, 0, 1, 0, 0, 0)))
    st.check("the middle alternating power of sl8 has dimension 70",
             d70, 70, "Weyl dimension formula")
    st.hold("70 is excluded by the 7-divisibility gate", d70 % 7 == 0,
            "7 | 70")
    return st.done()


def case_sl2k_nonselfdual_dims() -> Outcome:
    """Alternating powers of sl8 in degrees 2..4 all hit a divisibility gate."""
    st = _Steps()
    a7 = SemisimpleAlgebra.parse("A7")
    expected = {2: 28, 3: 56, 4: 70}
    for degree, dim in expected.items():
        hw = tuple(1 if i == degree - 1 else 0 for i in range(7))
        computed = weyl_dimension(a7, HighestWeight.from_flat(a7, hw))
        st.check(f"alternating degree {degree} of sl8 has dimension {dim}",
                 computed, dim, "Weyl dimension formula")
        st.hold(f"{dim} is divisible by 7 or by 4",
                computed % 7 == 0 or computed % 4 == 0,
                "integer divisibility")
    return st.done()


# ---------------------------------------------------------------------------
# Exceptional and orthogonal cases.

def case_e6_parity() -> Outcome:
    """Parity argument on the 27-dimensional minuscule character."""
    st = _Steps()
    alg = SemisimpleAlgebra.parse("E6")
    fc = irreducible_character(alg, (1, 0, 0, 0, 0, 0))
    st.check("the minuscule character has 27 weights", fc.size, 27,
             "Weyl dimension formula and orbit count")
    st.check("27 is odd", fc.size % 2, 1, "integer parity")
    delta = diagram_automorphisms(SimpleType("E", 6))[1]
    negated = {tuple(-c for c in w): m for w, m in fc.weights}
    image = {tuple(w[p] for p in delta): m for w, m in fc.weights}
    st.check("the diagram involution carries the multiset onto its negation",
             image == negated, True,
             "dual pairing of the two minuscule orbits")
    st.hold("the self-conjugacy map w -> -delta(w) has a fixed point",
            fixed_point_exists(fc, delta),
            "an involution of an odd finite set fixes a point")
    st.check("zero is not a weight", fc.multiplicity((0,) * 6), 0,
             "minuscule orbit avoids the origin")
    sums = conjugation_sums(fc, delta)
    st.hold("zero occurs among the conjugation sums w + delta(w)",
            sums.multiplicity((0,) * 6) >= 1,
            "each fixed point of the self-conjugacy map contributes zero")
    return st.done()


# The orthogonal standard characters of the low-rank coincidences, where
# B_r or D_r does not exist; _so_standard reads every other m off the type.
_SO_STD = {
    3: ("A1", (2,)),
    4: ("A1+A1", (1, 1)),
    6: ("A3", (0, 1, 0)),
}


def _so_standard(m: int) -> tuple[str, Coords]:
    """The algebra and highest weight of the standard character of so(m):
    _SO_STD at m = 3, 4, 6, else B_r omega_1 for odd m = 2r + 1 and D_r
    omega_1 for even m = 2r."""
    if m in _SO_STD:
        return _SO_STD[m]
    r = m // 2
    return f"{'B' if m % 2 else 'D'}{r}", (1,) + (0,) * (r - 1)


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as descending tuples, with no part above largest
    (n when None)."""
    if n == 0:
        yield ()
        return
    for part in range(n if largest is None else min(n, largest), 0, -1):
        for tail in _partitions(n - part, part):
            yield (part,) + tail


def _faithful_sums(alg: SemisimpleAlgebra, irreps, total: int) -> list[tuple[int, ...]]:
    """All multisets of irreducibles of total dimension `total` whose joint
    support covers every factor; repeats allowed, trivial summands allowed.
    irreps is enumerate_irreps_up_to_dim(alg, total), sorted by dimension.
    A sum is the ascending tuple of its summands' indices into irreps.

    Each level of the recursion picks the next irreducible to use, after the
    last one used, and its number of copies, from the most down to one; so
    more copies of earlier irreducibles come first, and no node stands for an
    irreducible left out.  Two cuts drop only nodes with no sum below them:
    an irreducible acting on a factor A_r has dimension at least r + 1 (a
    product of such bounds is at least their sum), so a choice must leave
    that much room for each factor still uncovered; and once the supports of
    the irreducibles from i on cannot cover the factors still missing, no
    later choice can.  The first cut depends on the position only through
    the factors covered and the dimension remaining, so the irreducibles
    that pass it are listed once per such pair, and a level walks only
    those."""
    n = len(alg.factors)
    full = (1 << n) - 1
    dims = [d for _, d in irreps]
    support = [sum(1 << j for j, coords in enumerate(hw.by_factor) if any(coords))
               for hw, _ in irreps]
    reach = support + [0]  # reach[i]: the union of support[i:]
    for i in range(len(irreps) - 1, -1, -1):
        reach[i] |= reach[i + 1]
    # need[mask]: the least dimension that covers the factors in mask
    need = [sum(alg.factors[j].rank + 1 for j in range(n) if mask >> j & 1)
            for mask in range(full + 1)]
    # fits[covered, remaining]: the indices i, ascending, with room for
    # one copy of irreps[i] and the factors it leaves uncovered
    fits: dict[tuple[int, int], list[int]] = {}
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []  # the sum so far, as a stack of indices

    def rec(start: int, remaining: int, covered: int):
        if remaining == 0:
            if covered == full:
                out.append(tuple(chosen))
            return
        fitting = fits.get((covered, remaining))
        if fitting is None:
            fitting = fits[covered, remaining] = [
                i for i in range(bisect_right(dims, remaining))
                if dims[i] + need[full ^ (covered | support[i])] <= remaining]
        for k in range(bisect_left(fitting, start), len(fitting)):
            i = fitting[k]
            # reach shrinks as i grows: none from here on covers what is missing
            if covered | reach[i] != full:
                return
            d = dims[i]
            now = covered | support[i]
            most = (remaining - need[full ^ now]) // d
            chosen.extend([i] * most)
            for copies in range(most, 0, -1):
                rec(i + 1, remaining - copies * d, now)
                chosen.pop()

    rec(0, total, 0)
    del rec  # it holds itself through its closure; this breaks the cycle
    return out


def _signed_basis(weights: frozenset[Coords] | set[Coords], m: int,
                  negated: frozenset[Coords] | set[Coords] | None = None) -> bool:
    """Whether the set weights, of rank r = m // 2, is +-v_1, ..., +-v_r plus
    zero exactly when m is odd, with v_1, ..., v_r a basis.  negated is the
    set of the weights' negatives, built here when not given."""
    r = m // 2
    zero = (0,) * r
    if negated is None:
        negated = {tuple(-c for c in w) for w in weights}
    return (len(weights) == m and (zero in weights) == (m % 2 == 1)
            and negated == weights
            and linalg.rank([w for w in weights if w > zero]) == r)


class _SoSweep:
    """What so-selfdual reads of one all-type-A algebra of rank r for both
    m = 2r and m = 2r + 1: the irreducibles of dimension at most 2r + 1, in
    enumerate_irreps_up_to_dim's order, so those of dimension at most m are
    a prefix; the indices of those that break the dimension chain; and, on
    first use, each irreducible's weight set with its negation (None when a
    weight has multiplicity above 1) and whether it is self-dual.  The
    weight set is the distinct weights of weight_multiset, the library's one
    character builder, which checks the size against the Weyl dimension."""

    def __init__(self, alg: SemisimpleAlgebra, ceiling: int) -> None:
        self.alg = alg
        self.irreps = enumerate_irreps_up_to_dim(alg, ceiling)
        self.dims = [d for _, d in self.irreps]
        ranks = [f.rank for f in alg.factors]
        self.chain_breaks: list[int] = []
        for i, (hw, d) in enumerate(self.irreps):
            support = [rank for rank, coords in zip(ranks, hw.by_factor) if any(coords)]
            if support and not 1 + sum(support) <= math.prod(1 + k for k in support) <= d:
                self.chain_breaks.append(i)
        self._sets: dict[int, tuple[frozenset[Coords], frozenset[Coords]] | None] = {}
        self._self_dual: dict[int, bool] = {}

    def _signed_sets(self, i: int):
        if i not in self._sets:
            fc = weight_multiset(self.alg, self.irreps[i][0])
            weights = frozenset(fc.distinct())
            self._sets[i] = (None if len(weights) < fc.size else
                             (weights, frozenset(tuple(-c for c in w) for w in weights)))
        return self._sets[i]

    def matches(self, combo: tuple[int, ...], m: int) -> bool:
        """Whether the sum of the irreducibles at the indices combo, of
        dimension m, has the weights +-v_1, ..., +-v_r and 0 when m is odd,
        each once, with v a basis: each summand has multiplicity-free
        weights, no two summands share one, and their union has the
        signed-basis shape, its negation being the union of the summands'
        negations.  The dimensions add up to m, so every early False is one
        that _signed_basis would give on the union of the weights too; a
        repeated irreducible fails as two summands sharing every weight.  A
        summand's sets are not built when an earlier summand fails."""
        weights: set[Coords] = set()
        negated: set[Coords] = set()
        for i in combo:
            got = self._signed_sets(i)
            if got is None or not weights.isdisjoint(got[0]):
                return False
            weights |= got[0]
            negated |= got[1]
        return _signed_basis(weights, m, negated)

    def self_dual(self, i: int) -> bool:
        got = self._self_dual.get(i)
        if got is None:
            hw = self.irreps[i][0]
            got = self._self_dual[i] = dual_highest_weight(self.alg, hw) == hw
        return got


# One sweep per algebra and ceiling 2r + 1, kept for the life of the process;
# the so-selfdual domain, m <= 16, bounds them to the 66 algebras of rank <= 8.
_so_sweep = lru_cache(maxsize=None)(_SoSweep)


def case_so_selfdual(m: int) -> Outcome:
    """Exhaustive check that any equal-rank type A character sum matching the
    odd/even orthogonal standard character has only self-dual summands.

    The reference's weights are +-e_1, ..., +-e_r, each once, plus 0 when m is
    odd, with e a basis (r = m // 2); a character C of rank r matches it
    exactly when C has the same shape, +-v_1, ..., +-v_r and 0 when m is odd,
    each once, with v a basis (_signed_basis).  If it has, T(e_i) = v_i is a
    linear bijection carrying the reference onto C; conversely, any linear
    bijection T sends +-e_i to +-T(e_i), each once, and T(e) is a basis.  The
    case checks the shape of its reference first, then decides every sum
    from _faithful_sums over each all-type-A algebra of rank r, as indices,
    with _SoSweep.matches, which reads a sum from its summands' weight sets:
    they must be multiplicity-free, pairwise disjoint, and together of the
    reference's shape.  The Gram search same_formal_character gives the same
    verdict on every sum; it is the tests' oracle for this case.

    m = 2r and m = 2r + 1 share one _SoSweep per algebra, kept for the life
    of the process.  Sharing changes nothing they read: the irreducibles of
    dimension at most m are a prefix of those up to 2r + 1, in the same
    order, so _faithful_sums lists the same sums by the same indices; an
    irreducible's weight sets, self-duality and dimension chain do not
    depend on m, and the chain is reported only for dimensions up to m.
    Self-duality is checked once per distinct summand of a match."""
    st = _Steps()
    ref_name, ref_hw = _so_standard(m)
    ref_alg = SemisimpleAlgebra.parse(ref_name)
    ref = irreducible_character(ref_alg, ref_hw)
    st.check(f"the orthogonal standard character in {m} variables has {m} weights",
             ref.size, m, "Weyl dimension formula")
    # m weights with multiplicity and m distinct ones: each has multiplicity 1
    if not (ref.size == m and _signed_basis(frozenset(ref.distinct()), m)):
        raise AssertionError(f"{ref_name} {ref_hw} is not a signed basis")

    algebras = [
        SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
        for part in _partitions(m // 2)
    ]
    n_candidates = 0
    n_matches = 0
    dual_violations: set[str] = set()
    chain_violations: set[str] = set()

    for alg in algebras:
        sweep = _so_sweep(alg, m | 1)
        irreps = sweep.irreps[:bisect_right(sweep.dims, m)]
        chain_violations.update(f"{alg}:{irreps[i][0]}"
                                for i in sweep.chain_breaks if i < len(irreps))
        matched: set[int] = set()  # indices of the summands of matches
        for combo in _faithful_sums(alg, irreps, m):
            n_candidates += 1
            if sweep.matches(combo, m):
                n_matches += 1
                matched.update(combo)
        dual_violations.update(f"{alg}:{irreps[i][0]}"
                               for i in matched if not sweep.self_dual(i))

    st.hold("at least one equal-rank type A character sum matches",
            n_matches >= 1, "exhaustive sweep over faithful character sums")
    st.check("every matched sum has only self-dual summands",
             sorted(dual_violations), [],
             "dual highest weight comparison on each summand")
    st.check("the dimension chain 1 + sum(m_i) <= prod(1 + m_i) <= dim holds "
             "for every faithful irreducible on its support",
             sorted(chain_violations), [],
             "minimal faithful dimension of a type A product")
    return st.done(algebras=len(algebras), candidates=n_candidates,
                   matches=n_matches)


def case_so2m_conj_zero(m: int) -> Outcome:
    """Conjugation sums of the even orthogonal standard character under the
    fork-swapping involution contain zero exactly twice."""
    st = _Steps()
    alg = SemisimpleAlgebra.parse(f"D{m}")
    fc = irreducible_character(alg, tuple(1 if i == 0 else 0 for i in range(m)))
    st.check("the standard character has 2m weights", fc.size, 2 * m,
             "Weyl dimension formula")
    swap = tuple(range(m - 2)) + (m - 1, m - 2)
    st.hold("the coordinate swap is a diagram automorphism",
            swap in diagram_automorphisms(SimpleType("D", m)),
            "fork symmetry of the even orthogonal diagram")
    sums = conjugation_sums(fc, swap)
    st.check("zero appears among the sums with multiplicity exactly 2",
             sums.multiplicity((0,) * m), 2,
             "only the swapped coordinate pair cancels")
    st.check("the sum multiset has 2m members", sums.size, 2 * m,
             "one sum per weight")
    return st.done()


def case_g2_sl3_coincidence() -> Outcome:
    """The 7-dimensional exceptional character agrees with std + dual + trivial
    of sl3, and the sl3 side has no nontrivial self-dual summand."""
    st = _Steps()
    g2 = SemisimpleAlgebra.parse("G2")
    fc7 = irreducible_character(g2, (1, 0))
    st.check("the short fundamental character has 7 weights", fc7.size, 7,
             "Weyl dimension formula")
    a2 = SemisimpleAlgebra.parse("A2")
    sl3_sum = direct_sum(
        irreducible_character(a2, (1, 0)),
        irreducible_character(a2, (0, 1)),
        trivial_character(a2),
    )
    witness = same_formal_character(fc7, sl3_sum)
    st.hold("a linear witness matches the two characters",
            witness is not None, "exact Gram-matching search")
    st.hold("the witness carries the weight multiset exactly",
            witness is not None and witness.validate(),
            "multiset image check")
    nontrivial_selfdual = []
    for hw_flat in [(1, 0), (0, 1)]:
        hw = HighestWeight.from_flat(a2, hw_flat)
        if dual_highest_weight(a2, hw) == hw:
            nontrivial_selfdual.append(hw_flat)
    st.check("no nontrivial summand on the sl3 side is self-dual",
             nontrivial_selfdual, [],
             "dual highest weight comparison")
    sub = type_a_equal_rank(SimpleType("G", 2))
    st.check("the long-root subsystem is a full-rank A2",
             tuple(str(t) for t in sub.component_types), ("A2",),
             "extended-diagram node deletion")
    restricted = restrict_to_subsystem(fc7, sub)
    st.check("restriction to the long-root subsystem equals the sl3 sum",
             restricted == sl3_sum, True,
             "coroot pairing against the subsystem's simple roots")
    return st.done()


# ---------------------------------------------------------------------------
# Max-norm weight arguments.

def _parse_flat(text: str) -> Coords:
    try:
        return tuple(int(tok) for tok in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise CaseError(f"cannot parse weight coordinates {text!r}") from exc


def case_max_norm_bound(algebra: str, hw: str) -> Outcome:
    """Spanning maximal-norm weight sets have more members than the rank."""
    alg = SemisimpleAlgebra.parse(algebra)
    coords = _parse_flat(hw)
    fc = irreducible_character(alg, coords)
    record = max_norm_weights(fc)
    st = _Steps()
    st.hold("the maximal-norm weights span the weight space",
            record.spans, "exact rank computation")
    st.hold("spanning forces #W_max >= rank + 1",
            record.bound_ok, "orbit size bound under the symmetric group")
    return st.done(count=len(record.weights), rank=alg.rank, norm2=record.norm2)


def case_sym_power_rigidity(n: int, a: int) -> Outcome:
    """Symmetric powers have exactly n+1 maximal-norm weights, spanning, and
    meet the count bound with equality, which pins the algebra to one simple
    type A factor."""
    alg = SemisimpleAlgebra.parse(f"A{n}")
    hw = tuple(a if i == 0 else 0 for i in range(n))
    fc = irreducible_character(alg, hw)
    record = max_norm_weights(fc)
    st = _Steps()
    st.check("exactly n+1 weights reach the maximal norm",
             len(record.weights), n + 1,
             "scaled extreme coordinates a*e_i")
    rs = build_root_system(SimpleType("A", n))
    orbit = weyl_orbit(rs, hw)
    st.check("the maximal-norm weights are the orbit of the highest weight",
             sorted(record.weights), sorted(orbit),
             "Weyl orbit enumeration")
    st.hold("the maximal-norm weights span", record.spans,
            "exact rank computation")
    st.check("the spanning bound is met with equality",
             len(record.weights), alg.rank + 1,
             "equality admits no nontrivial tensor splitting")
    return st.done()


# ---------------------------------------------------------------------------
# Structural lemmas.

def _parse_factors(text: str) -> tuple[SimpleType, ...]:
    parts = [p for p in text.replace("+", ",").split(",") if p.strip()]
    return tuple(SimpleType.parse(p) for p in parts)


def case_goursat(factors: str) -> Outcome:
    fac = _parse_factors(factors)
    report = verify_goursat_lemma(fac)
    st = _Steps()
    st.check("rank equality occurs only at the all-singleton partition",
             [str(blocks) for blocks in report.counterexamples], [],
             "exhaustive sweep over type-compatible partitions")
    st.hold("at least one partition was examined", report.specs_checked >= 1,
            "partition enumeration")
    return st.done(partitions=report.specs_checked)


def case_factorization_bound(a: int, b: int, seed: int) -> Outcome:
    """A seeded random planar product of sizes (a, b) factors back, and the
    number of inequivalent factorizations respects the counting bound."""
    rng = random.Random(seed)
    group = AbGroup(torsion=1, free_rank=2)

    def random_factor(size: int) -> GroupMultiset:
        return GroupMultiset.from_iterable(
            group,
            [(0, (rng.randrange(-3, 4), rng.randrange(-3, 4)))
             for _ in range(size)])

    left, right = random_factor(a), random_factor(b)
    product = multiset_product(left, right)
    decs = factorizations(product, (left.size, right.size))
    bound = factorization_count_bound(left.size, right.size)
    st = _Steps()
    st.hold("the constructed product admits a factorization",
            len(decs) >= 1, "the generating pair is one")
    st.hold("every factorization multiplies back to the input",
            all(d.product() == product for d in decs),
            "exact multiset product")
    st.hold("the count respects (ab)!/(a!b!)", len(decs) <= bound,
            "bound on inequivalent binary splittings")
    st.hold("every factorization has the requested sizes",
            all(d.sizes == (left.size, right.size) for d in decs),
            "profile bookkeeping")
    return st.done(count=len(decs), bound=bound, product_size=product.size)


# ---------------------------------------------------------------------------
# The catalog gate.

_CATALOG_NOTES = {
    "std": "standard family; handled by the self-dual or count comparison",
    "std*": "dual standard family; handled with its dual partner",
    "alt": "alternating power; equal-norm weight analysis",
    "sym": "symmetric power; maximal-norm rigidity",
    "spin": "spin; conjugation parity analysis",
    "half-spin": "half-spin; conjugation parity analysis",
    "minuscule": "27-dimensional minuscule pair; parity argument",
    "alt^3(std)-primitive": "14-dimensional symplectic fundamental; "
                            "self-dual summand analysis",
    "short-fundamental": "7-dimensional short fundamental; excluded by the "
                         "7-divisibility gate",
}


def _note_for(label: str) -> str:
    if label in _CATALOG_NOTES:
        return _CATALOG_NOTES[label]
    if label.startswith("alt^"):
        return _CATALOG_NOTES["alt"]
    if label.startswith("sym^"):
        return _CATALOG_NOTES["sym"]
    return "catalog entry"


@record
class AllowedPair:
    stype: SimpleType
    hw: Coords
    dim: int
    label: str
    note: str


@record
class AllowedPairsReport:
    n: int
    gate_reasons: tuple[str, ...]
    pairs: tuple[AllowedPair, ...]

    @property
    def gate_passed(self) -> bool:
        return not self.gate_reasons


def allowed_pairs(n: int) -> AllowedPairsReport:
    """All catalog entries of dimension exactly n, behind divisibility gates.

    When 7 | n or 4 | n the report carries the violated gates and the pairs
    that would otherwise be admitted, so callers can surface a diagnostic
    instead of silently filtering.  n above 6000 raises CaseError: the scan
    reads the catalog of every classical rank up to about n and builds the
    coordinates of each entry of dimension at most n, so its time grows like
    n^2 (1.7 s cold at n = 6000 on a 2-core host, 8.6 s at n = 16000).
    """
    if n < 1:
        raise CaseError("n must be positive")
    if n > 6000:
        raise CaseError(f"n must be at most 6000, got {n}")
    reasons = []
    if n % 7 == 0:
        reasons.append("7 divides n")
    if n % 4 == 0:
        reasons.append("4 divides n")

    pairs = []

    def admit(stype: SimpleType) -> bool:
        """Add stype's entries of dimension n; whether it has any up to n."""
        entries = multiplicity_free_catalog(stype, max_dim=n)
        pairs.extend(AllowedPair(stype, e.hw, e.dim, e.label, _note_for(e.label))
                     for e in entries if e.dim == n)
        return bool(entries)

    # Each family's smallest catalog dimension grows with the rank, so the
    # first rank with no entry up to n ends the family.
    for family, m in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        while admit(SimpleType(family, m)):
            m += 1
    for stype in (SimpleType("E", 6), SimpleType("E", 7), SimpleType("G", 2)):
        admit(stype)
    pairs.sort(key=lambda p: (p.stype.family, p.stype.rank, p.hw))
    return AllowedPairsReport(n=n, gate_reasons=tuple(reasons),
                              pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# Dispatch.

class Domain(NamedTuple):
    """A case and the documented range of its parameters, which run_case
    checks before the case runs: ints maps each int parameter to (lo, default,
    hi), the closed range lo..hi; free maps each parameter without a range (a
    text, or a seed) to its default; joint, if given, is (label, closed form
    of the parameters, limit)."""

    run: Callable[..., Outcome]
    ints: dict[str, tuple[int, int, int]] = {}
    free: dict[str, str | int] = {}
    joint: tuple[str, Callable[..., int], int] | None = None


# Case id -> its domain.  Times are in process on a 2-core host.
_CASES: dict[str, Domain] = {
    # The sweeps are linear in k: 0.15 s at k = 10000, 1.1 s at 50000.
    "sl2k-selfdual": Domain(case_sl2k_selfdual, {"k": (5, 5, 10000)}),
    "sl2k-selfdual-exclusions": Domain(case_sl2k_selfdual_exclusions),
    "sl2k-nonselfdual-dims": Domain(case_sl2k_nonselfdual_dims),
    "e6-parity": Domain(case_e6_parity),
    # m = 16 takes 0.13-0.18 s, and 0.09 s again in one process, where its
    # sweeps are kept: 8160 sums, 792 matches.
    "so-selfdual": Domain(case_so_selfdual, {"m": (3, 5, 16)}),
    # D_m starts at m = 4; m = 16 takes 0.02 s.
    "so2m-conj-zero": Domain(case_so2m_conj_zero, {"m": (4, 4, 16)}),
    "g2-sl3-coincidence": Domain(case_g2_sl3_coincidence),
    # A rank above 20 is refused before any work (A150 ran 10 s cold).  Up to
    # it the dimension bound 100000 of weight_multiset governs: A16 (1,0,0,0,1,
    # 0,...), dimension 92820, takes 1.3-1.6 s (2.0-2.1 s when its rank
    # eliminated all 30940 maximal-norm weights), where A40 (2,0,...,0,1),
    # dimension 35260, took 8.4 s.  A1 (k) is linear in k now that
    # Freudenthal sums each root string once: k = 99999 takes 0.83-0.92 s cold
    # (22 s at k = 8000 when every string was walked afresh).
    "max-norm-bound": Domain(
        case_max_norm_bound, free={"algebra": "A2", "hw": "1,1"},
        joint=("rank of algebra",
               lambda algebra, hw: SemisimpleAlgebra.parse(algebra).rank, 20)),
    # sym^a of A_n has C(n+a, a) weights, and the root datum, the weights and
    # the Weyl orbit all grow steeply in n (n = 300, a = 1 took 132 s).  In
    # process at n = 40: a = 1 takes 0.07-0.10 s, a = 2 0.10-0.13 s, and a = 3
    # (12341 weights, the joint bound) 0.56-1.04 s; n = 3, a = 40 takes
    # 0.16-0.22 s and n = 9, a = 7 0.28-0.37 s.
    "sym-power-rigidity": Domain(
        case_sym_power_rigidity, {"n": (1, 3, 40), "a": (1, 2, 40)},
        joint=("C(n+a, a)", lambda n, a: math.comb(n + a, a), 12341)),
    # verify_goursat_lemma refuses more than goursat.MAX_FACTORS factors.
    "goursat": Domain(case_goursat, free={"factors": "A2+A2+A2"}),
    "factorization-bound": Domain(
        case_factorization_bound, {"a": (2, 2, 8), "b": (2, 3, 8)}, {"seed": 0},
        joint=("a*b", lambda a, b, seed: a * b, 16)),
}


# The one wording of every refusal by a domain: label, side, limit.
_OUTSIDE = "{} {} {} exceeds the documented range"


def known_cases() -> tuple[str, ...]:
    return tuple(sorted(_CASES))


def run_case(case_id: str, params: dict[str, str] | None = None,
             seed: int | None = None) -> CaseReport:
    """Run one case with string-valued parameters as they arrive from a CLI;
    a seed applies to a case that takes one unless params set it.  Every
    value is checked against the case's domain before the case runs."""
    if case_id not in _CASES:
        raise CaseError(f"unknown case {case_id!r}; known: {', '.join(known_cases())}")
    domain = _CASES[case_id]
    params = dict(params or {})
    values = {name: default for name, (_, default, _) in domain.ints.items()} | domain.free
    if seed is not None and "seed" in values:
        params.setdefault("seed", str(seed))
    for key, raw in params.items():
        if key not in values:
            raise CaseError(f"case {case_id} takes no parameter {key!r}")
        try:
            values[key] = type(values[key])(raw)
        except (TypeError, ValueError) as exc:
            raise CaseError(f"bad value for {key}: {raw!r}") from exc
    for name, (lo, _, hi) in domain.ints.items():
        if not lo <= values[name] <= hi:
            side, limit = ("below", lo) if values[name] < lo else ("above", hi)
            raise CaseError(_OUTSIDE.format(name, side, limit))
    if domain.joint is not None:
        label, form, limit = domain.joint
        if form(**values) > limit:
            raise CaseError(_OUTSIDE.format(label, "above", limit))
    steps, notes = domain.run(**values)
    return CaseReport(case_id, tuple(sorted((k, fmt(v)) for k, v in values.items())),
                      steps, tuple(sorted((k, fmt(v)) for k, v in notes.items())))


def default_suite(seed: int = 0) -> list[tuple[str, dict]]:
    """The full verification run, in canonical order."""
    suite: list[tuple[str, dict]] = []
    for k in range(5, 13):
        suite.append(("sl2k-selfdual", {"k": str(k)}))
    suite.append(("sl2k-selfdual-exclusions", {}))
    suite.append(("sl2k-nonselfdual-dims", {}))
    suite.append(("e6-parity", {}))
    for m in range(3, 10):
        suite.append(("so-selfdual", {"m": str(m)}))
    for m in range(4, 8):
        suite.append(("so2m-conj-zero", {"m": str(m)}))
    suite.append(("g2-sl3-coincidence", {}))
    suite.append(("max-norm-bound", {"algebra": "A2", "hw": "1,1"}))
    suite.append(("max-norm-bound", {"algebra": "G2", "hw": "1,0"}))
    suite.append(("sym-power-rigidity", {"n": "3", "a": "2"}))
    suite.append(("sym-power-rigidity", {"n": "6", "a": "3"}))
    suite.append(("goursat", {"factors": "A1+A1+A2"}))
    suite.append(("goursat", {"factors": "A2+A2+A2"}))
    suite.append(("factorization-bound", {"a": "2", "b": "3", "seed": str(seed)}))
    return suite
