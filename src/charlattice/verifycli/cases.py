"""Named verification cases.

Each case replays one finite argument from the classification of matching
formal characters: an exact computation with a frozen expected outcome, broken
into steps so a failure points at the precise claim that broke.  run_case
dispatches by case id; default_suite lists the cases that make up the full
verification run.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from .._record import record
from ..abmultiset import (AbGroup, GroupMultiset, factorization_count_bound,
                          factorizations, multiset_product)
from ..charmatch import (alt_power_stats, conjugation_sums, fixed_point_exists,
                         max_norm_weights, same_formal_character)
from ..goursat import verify_goursat_lemma
from ..reps import (FormalCharacter, HighestWeight, SemisimpleAlgebra,
                    direct_sum, dual_highest_weight, enumerate_irreps_up_to_dim,
                    irreducible_character, multiplicity_free_catalog,
                    restrict_to_subsystem, trivial_character, weight_multiset,
                    weyl_dimension)
from ..rootsys import (LatticeInvolution, SimpleType, build_root_system,
                       diagram_automorphisms, type_a_equal_rank, weyl_orbit)

Coords = tuple[int, ...]


class CaseError(ValueError):
    """Unknown case id or a parameter outside its documented range."""


def fmt(value) -> str:
    """Deterministic rendering of exact values for reports."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, str):
        return value
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


class _Steps:
    """Collects steps; check() compares exact values, hold() takes a bool."""

    def __init__(self) -> None:
        self.items: list[Step] = []

    def check(self, claim: str, computed, expected, provenance: str) -> None:
        self.items.append(Step(claim, fmt(computed), fmt(expected),
                               computed == expected, provenance))

    def hold(self, claim: str, condition: bool, provenance: str) -> None:
        self.check(claim, bool(condition), True, provenance)

    def done(self) -> tuple[Step, ...]:
        return tuple(self.items)


def _report(case_id: str, inputs: dict, steps: _Steps, notes: dict | None = None) -> CaseReport:
    return CaseReport(
        case_id=case_id,
        inputs=tuple(sorted((k, fmt(v)) for k, v in inputs.items())),
        steps=steps.done(),
        notes=tuple(sorted((k, fmt(v)) for k, v in (notes or {}).items())),
    )


# ---------------------------------------------------------------------------
# Type A self-dual exclusions.

def case_sl2k_selfdual(k: int = 5) -> CaseReport:
    """No pair of alternating powers of sl_2k reproduces the inner-product
    ratio of the middle alternating power, for integer degree below k."""
    if k < 5:
        raise CaseError("k must be at least 5")
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
    return _report("sl2k-selfdual", {"k": k}, st)


def case_sl2k_selfdual_exclusions() -> CaseReport:
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
    return _report("sl2k-selfdual-exclusions", {}, st)


def case_sl2k_nonselfdual_dims() -> CaseReport:
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
    return _report("sl2k-nonselfdual-dims", {}, st)


# ---------------------------------------------------------------------------
# Exceptional and orthogonal cases.

def _nontrivial_involution(stype: SimpleType) -> LatticeInvolution:
    for inv in diagram_automorphisms(stype):
        if inv.order == 2:
            return inv
    raise CaseError(f"{stype} has no nontrivial diagram involution")


def case_e6_parity() -> CaseReport:
    """Parity argument on the 27-dimensional minuscule character."""
    st = _Steps()
    alg = SemisimpleAlgebra.parse("E6")
    fc = irreducible_character(alg, (1, 0, 0, 0, 0, 0))
    st.check("the minuscule character has 27 weights", fc.size, 27,
             "Weyl dimension formula and orbit count")
    st.check("27 is odd", fc.size % 2, 1, "integer parity")
    delta = _nontrivial_involution(SimpleType("E", 6))
    negated = {tuple(-c for c in w): m for w, m in fc.weights}
    image = {delta.apply(w): 0 for w, _ in fc.weights}
    for w, m in fc.weights:
        image[delta.apply(w)] += m
    st.check("the diagram involution carries the multiset onto its negation",
             image == negated, True,
             "dual pairing of the two minuscule orbits")
    st.hold("the self-conjugacy map w -> -delta(w) has a fixed point",
            fixed_point_exists(fc, delta),
            "an involution of an odd finite set fixes a point")
    st.check("zero is not a weight", fc.multiplicity((0,) * 6), 0,
             "minuscule orbit avoids the origin")
    sums = conjugation_sums(fc, delta).sums
    st.hold("zero occurs among the conjugation sums w + delta(w)",
            sums.multiplicity((0,) * 6) >= 1,
            "each fixed point of the self-conjugacy map contributes zero")
    return _report("e6-parity", {}, st)


_SO_STD = {
    3: ("A1", (2,)),
    4: ("A1+A1", (1, 1)),
    5: ("B2", (1, 0)),
    6: ("A3", (0, 1, 0)),
    7: ("B3", (1, 0, 0)),
    8: ("D4", (1, 0, 0, 0)),
    9: ("B4", (1, 0, 0, 0)),
}


def _partitions(n: int):
    """Partitions of n as descending tuples."""
    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for tail in rec(remaining - part, part):
                yield (part,) + tail
    yield from rec(n, n)


def _faithful_sums(alg: SemisimpleAlgebra, irreps, total: int):
    """All multisets of irreducibles of total dimension `total` whose joint
    support covers every factor; repeats allowed, trivial summands allowed.
    irreps is enumerate_irreps_up_to_dim(alg, total), sorted by dimension.

    Each level of the recursion picks the next irreducible to use, after the
    last one used, and its number of copies, from the most down to one; so
    more copies of earlier irreducibles come first, and no node stands for an
    irreducible left out."""
    full = (1 << len(alg.factors)) - 1
    support = [sum(1 << j for j, coords in enumerate(hw.by_factor) if any(coords))
               for hw, _ in irreps]
    out: list[tuple[tuple[HighestWeight, int], ...]] = []

    def rec(start: int, remaining: int, covered: int, chosen: list[tuple[HighestWeight, int]]):
        if remaining == 0:
            if covered == full:
                out.append(tuple(chosen))
            return
        for i in range(start, len(irreps)):
            d = irreps[i][1]
            if d > remaining:  # irreps are sorted by dimension: no later one fits
                return
            for copies in range(remaining // d, 0, -1):
                rec(i + 1, remaining - copies * d, covered | support[i],
                    chosen + [irreps[i]] * copies)

    rec(0, total, 0, [])
    return out


def case_so_selfdual(m: int = 5) -> CaseReport:
    """Exhaustive check that any equal-rank type A character sum matching the
    odd/even orthogonal standard character has only self-dual summands.

    Every sum from _faithful_sums over each all-type-A algebra of rank m // 2
    goes to same_formal_character against the one reference character, whose
    match data is computed once.  Most sums are rejected there on their
    number of distinct weights, zero-weight multiplicity or (m(w), m(-w))
    pair list (130 of 193 for m = 3..9), so only the matches build Gram data.
    Self-duality is checked once per distinct nontrivial summand of a match."""
    if not 3 <= m <= 9:
        raise CaseError("m must lie in 3..9")
    st = _Steps()
    ref_name, ref_hw = _SO_STD[m]
    ref_alg = SemisimpleAlgebra.parse(ref_name)
    ref = irreducible_character(ref_alg, ref_hw)
    st.check(f"the orthogonal standard character in {m} variables has {m} weights",
             ref.size, m, "Weyl dimension formula")

    rank = m // 2
    algebras = [
        SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
        for part in _partitions(rank)
    ]
    n_candidates = 0
    n_matches = 0
    matched: set[tuple[SemisimpleAlgebra, HighestWeight]] = set()  # nontrivial summands
    chain_violations: list[str] = []
    char_cache: dict[tuple, FormalCharacter] = {}

    for alg in algebras:
        ranks = [f.rank for f in alg.factors]
        irreps = enumerate_irreps_up_to_dim(alg, m)
        for hw, d in irreps:
            support = [j for j in range(len(ranks))
                       if any(hw.by_factor[j])]
            if not support:
                continue
            lower = 1 + sum(ranks[j] for j in support)
            middle = 1
            for j in support:
                middle *= 1 + ranks[j]
            if not lower <= middle <= d:
                chain_violations.append(f"{alg}:{hw}")
        for combo in _faithful_sums(alg, irreps, m):
            n_candidates += 1
            parts = []
            for hw, _ in combo:
                key = (alg, hw)
                if key not in char_cache:
                    char_cache[key] = weight_multiset(alg, hw)
                parts.append(char_cache[key])
            candidate = direct_sum(*parts)
            witness = same_formal_character(ref, candidate)
            if witness is None:
                continue
            n_matches += 1
            matched.update((alg, hw) for hw, _ in combo if any(hw.flat()))

    dual_violations = {f"{alg}:{hw}" for alg, hw in matched
                       if dual_highest_weight(alg, hw) != hw}
    st.hold("at least one equal-rank type A character sum matches",
            n_matches >= 1, "exhaustive sweep over faithful character sums")
    st.check("every matched sum has only self-dual summands",
             sorted(dual_violations), [],
             "dual highest weight comparison on each summand")
    st.check("the dimension chain 1 + sum(m_i) <= prod(1 + m_i) <= dim holds "
             "for every faithful irreducible on its support",
             sorted(set(chain_violations)), [],
             "minimal faithful dimension of a type A product")
    return _report("so-selfdual", {"m": m}, st, notes={
        "algebras": len(algebras),
        "candidates": n_candidates,
        "matches": n_matches,
    })


def case_so2m_conj_zero(m: int = 4) -> CaseReport:
    """Conjugation sums of the even orthogonal standard character under the
    fork-swapping involution contain zero exactly twice."""
    if m < 4:
        raise CaseError("m must be at least 4")
    if m > 16:
        raise CaseError("m above 16 exceeds the documented range")
    st = _Steps()
    alg = SemisimpleAlgebra.parse(f"D{m}")
    fc = irreducible_character(alg, tuple(1 if i == 0 else 0 for i in range(m)))
    st.check("the standard character has 2m weights", fc.size, 2 * m,
             "Weyl dimension formula")
    swap = LatticeInvolution.from_node_permutation({m - 2: m - 1, m - 1: m - 2}, m)
    st.hold("the coordinate swap is a diagram automorphism",
            swap in diagram_automorphisms(SimpleType("D", m)),
            "fork symmetry of the even orthogonal diagram")
    record = conjugation_sums(fc, swap)
    st.check("zero appears among the sums with multiplicity exactly 2",
             record.sums.multiplicity((0,) * m), 2,
             "only the swapped coordinate pair cancels")
    st.check("the sum multiset has 2m members", record.sums.size, 2 * m,
             "one sum per weight")
    return _report("so2m-conj-zero", {"m": m}, st)


def case_g2_sl3_coincidence() -> CaseReport:
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
    sub = type_a_equal_rank(build_root_system(SimpleType("G", 2)))
    st.check("the long-root subsystem is a full-rank A2",
             tuple(str(t) for t in sub.component_types), ("A2",),
             "extended-diagram node deletion")
    restricted = restrict_to_subsystem(fc7, sub)
    st.check("restriction to the long-root subsystem equals the sl3 sum",
             restricted == sl3_sum, True,
             "coroot pairing against the subsystem's simple roots")
    return _report("g2-sl3-coincidence", {}, st)


# ---------------------------------------------------------------------------
# Max-norm weight arguments.

def _parse_flat(text: str) -> Coords:
    try:
        return tuple(int(tok) for tok in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise CaseError(f"cannot parse weight coordinates {text!r}") from exc


def case_max_norm_bound(algebra: str = "A2", hw: str = "1,1") -> CaseReport:
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
    return _report("max-norm-bound", {"algebra": algebra, "hw": hw}, st, notes={
        "count": len(record.weights),
        "rank": alg.rank,
        "norm2": record.norm2,
    })


def case_sym_power_rigidity(n: int = 3, a: int = 2) -> CaseReport:
    """Symmetric powers have exactly n+1 maximal-norm weights, spanning, and
    meet the count bound with equality, which pins the algebra to one simple
    type A factor."""
    if n < 1 or a < 1:
        raise CaseError("need n >= 1 and a >= 1")
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
    return _report("sym-power-rigidity", {"n": n, "a": a}, st)


# ---------------------------------------------------------------------------
# Structural lemmas.

def _parse_factors(text: str) -> tuple[SimpleType, ...]:
    parts = [p for p in text.replace("+", ",").split(",") if p.strip()]
    return tuple(SimpleType.parse(p) for p in parts)


def case_goursat(factors: str = "A2+A2+A2") -> CaseReport:
    fac = _parse_factors(factors)
    report = verify_goursat_lemma(fac)
    st = _Steps()
    st.check("rank equality occurs only at the all-singleton partition",
             [str(s.blocks) for s in report.counterexamples], [],
             "exhaustive sweep over type-compatible partitions")
    st.hold("at least one partition was examined", report.specs_checked >= 1,
            "partition enumeration")
    return _report("goursat", {"factors": factors}, st,
                   notes={"partitions": report.specs_checked})


def case_factorization_bound(a: int = 2, b: int = 3, seed: int = 0) -> CaseReport:
    """A seeded random planar product of sizes (a, b) factors back, and the
    number of inequivalent factorizations respects the counting bound."""
    if a < 2 or b < 2:
        raise CaseError("factor sizes must be at least 2")
    if a * b > 16:
        raise CaseError("product size above 16 exceeds the documented range")
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
    return _report("factorization-bound", {"a": a, "b": b, "seed": seed}, st,
                   notes={"count": len(decs), "bound": bound,
                          "product_size": product.size})


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

    stypes: list[SimpleType] = []
    stypes += [SimpleType("A", m) for m in range(1, max(n, 2))]
    half = (n - 1) // 2
    log2 = n.bit_length()
    stypes += [SimpleType("B", m) for m in range(2, max(half, log2) + 1)]
    stypes += [SimpleType("C", m) for m in range(3, n // 2 + 1)]
    stypes += [SimpleType("D", m) for m in range(4, max(n // 2, log2 + 1) + 1)]
    stypes += [SimpleType("E", 6), SimpleType("E", 7), SimpleType("G", 2)]

    pairs = []
    for stype in stypes:
        for entry in multiplicity_free_catalog(stype, max_dim=n):
            if entry.dim == n:
                pairs.append(AllowedPair(stype, entry.hw, entry.dim,
                                         entry.label, _note_for(entry.label)))
    pairs.sort(key=lambda p: (p.stype.family, p.stype.rank, p.hw))
    return AllowedPairsReport(n=n, gate_reasons=tuple(reasons),
                              pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# Dispatch.

# Case id -> (function, type of each parameter it takes).
_CASES: dict[str, tuple[Callable[..., CaseReport], dict[str, type]]] = {
    "sl2k-selfdual": (case_sl2k_selfdual, {"k": int}),
    "sl2k-selfdual-exclusions": (case_sl2k_selfdual_exclusions, {}),
    "sl2k-nonselfdual-dims": (case_sl2k_nonselfdual_dims, {}),
    "e6-parity": (case_e6_parity, {}),
    "so-selfdual": (case_so_selfdual, {"m": int}),
    "so2m-conj-zero": (case_so2m_conj_zero, {"m": int}),
    "g2-sl3-coincidence": (case_g2_sl3_coincidence, {}),
    "max-norm-bound": (case_max_norm_bound, {"algebra": str, "hw": str}),
    "sym-power-rigidity": (case_sym_power_rigidity, {"n": int, "a": int}),
    "goursat": (case_goursat, {"factors": str}),
    "factorization-bound": (case_factorization_bound, {"a": int, "b": int, "seed": int}),
}


def known_cases() -> tuple[str, ...]:
    return tuple(sorted(_CASES))


def run_case(case_id: str, params: dict[str, str] | None = None,
             seed: int | None = None) -> CaseReport:
    """Run one case with string-valued parameters as they arrive from a CLI;
    a seed applies to a case that takes one unless params set it."""
    if case_id not in _CASES:
        raise CaseError(f"unknown case {case_id!r}; known: {', '.join(known_cases())}")
    func, types = _CASES[case_id]
    params = dict(params or {})
    if seed is not None and "seed" in types:
        params.setdefault("seed", str(seed))
    kwargs = {}
    for key, raw in params.items():
        if key not in types:
            raise CaseError(f"case {case_id} takes no parameter {key!r}")
        conv = types[key]
        try:
            kwargs[key] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise CaseError(f"bad value for {key}: {raw!r}") from exc
    return func(**kwargs)


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
