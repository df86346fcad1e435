"""Root system construction against the frozen classical tables."""

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_oracle import (all_roots, ambient_root_system, dot, gram,
                            reflection_closure, simple_roots_for)
from ambient_oracle import pairing as ambient_pairing
from charlattice import rootsys, subsystems
from charlattice.catalog import enumerate_irreps_up_to_dim
from charlattice.reps import (HighestWeight, SemisimpleAlgebra, irreducible_character,
                              weyl_dimension)
from charlattice.rootsys import (MAX_ROOT_DATUM_RANK, CartanTypeError, SimpleType,
                                 build_root_system, coroot, dominant_representative, pairing,
                                 reflect_coords, weyl_orbit)
from charlattice.subsystems import (ClassificationError, classify_simple_system,
                                    diagram_automorphisms, equal_rank_subsystems,
                                    type_a_equal_rank)
import subsystem_oracle
from weyl_character_oracle import orbit_closure, reflect, weyl_group_order

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "G2",
]


def _root_count(st: SimpleType) -> int:
    n = st.rank
    if st.family == "A":
        return n * (n + 1)
    if st.family in ("B", "C"):
        return 2 * n * n
    if st.family == "D":
        return 2 * n * (n - 1)
    if st.family == "F":
        return 48
    if st.family == "G":
        return 12
    return {6: 72, 7: 126, 8: 240}[n]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_counts_and_weyl_orders(name):
    st = SimpleType.parse(name)
    rs = build_root_system(st)
    assert 2 * len(rs.positive_roots) == _root_count(st)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_fundamental_weights_dual_to_coroots(name):
    rs = ambient_root_system(SimpleType.parse(name))
    for i, w in enumerate(rs.fundamental_weights):
        for j, alpha in enumerate(rs.simple_roots):
            dot = sum(a * b for a, b in zip(w, alpha))
            norm = sum(a * a for a in alpha)
            assert Fraction(2) * dot / norm == (1 if i == j else 0)


# Criterion 12's universe plus E8 and F4.
ORACLE_TYPES = ([f"A{n}" for n in range(1, 20)] + [f"B{n}" for n in range(2, 13)]
                + [f"C{n}" for n in range(3, 13)] + [f"D{n}" for n in range(4, 13)]
                + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_integer_datum_matches_ambient_oracle(name):
    st = SimpleType.parse(name)
    rs = build_root_system(st)
    amb = ambient_root_system(st)
    assert rs.cartan_matrix == amb.cartan_matrix
    vectors = [_ambient(amb, beta) for beta in rs.positive_roots]
    assert len(vectors) == len(amb.positive_roots)
    assert set(vectors) == amb.positive_roots
    for beta, vector in zip(rs.positive_roots, vectors):
        assert coroot(rs, beta) == tuple(ambient_pairing(w, vector)
                                         for w in amb.fundamental_weights)
    # row i of the Cartan matrix is alpha_i in fundamental coordinates
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    assert [[pairing(rs, row, unit) for unit in units] for row in rs.cartan_matrix] == [
        [2 * x for x in row] for row in gram(amb.simple_roots)]


def _ambient(amb, beta):
    """A vector in simple-root coordinates, in the oracle's realization."""
    return tuple(sum((c * a[k] for c, a in zip(beta, amb.simple_roots)), Fraction(0))
                 for k in range(len(amb.simple_roots[0])))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_weyl_dimension_matches_ambient_product(name):
    """Weyl's product of (lambda + rho, beta) / (rho, beta) in the oracle's
    Fractions, for every fundamental weight and for rho."""
    st = SimpleType.parse(name)
    amb = ambient_root_system(st)
    n = st.rank
    rho = tuple(sum(col, Fraction(0)) for col in zip(*amb.fundamental_weights))
    alg = SemisimpleAlgebra((st,))
    for coords in [tuple(int(i == k) for i in range(n)) for k in range(n)] + [(1,) * n]:
        shifted = tuple(sum((c * w[k] for c, w in zip(coords, amb.fundamental_weights)), r)
                        for k, r in enumerate(rho))
        product = Fraction(1)
        for beta in amb.positive_roots:
            product *= dot(shifted, beta) / dot(rho, beta)
        assert weyl_dimension(alg, HighestWeight((coords,))) == product


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                  "B5", "C3", "C4", "C5", "D4", "D5"])
def test_oracle_closed_form_roots_match_reflection_closure(name):
    st = SimpleType.parse(name)
    assert all_roots(st) == reflection_closure(simple_roots_for(st)[1])


def test_cartan_matrices_frozen():
    def cartan(name):
        return build_root_system(SimpleType.parse(name)).cartan_matrix

    assert cartan("A3") == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert cartan("B3") == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert cartan("C3") == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan("G2") == ((2, -1), (-3, 2))
    assert cartan("D4") == ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0),
                            (0, -1, 0, 2))
    assert cartan("F4") == ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1),
                            (0, 0, -1, 2))
    # the E6 pattern with the branch node in position 2
    assert cartan("E6") == (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    )


def test_rank_bounds_rejected():
    with pytest.raises(CartanTypeError):
        SimpleType("B", 1)
    with pytest.raises(CartanTypeError):
        SimpleType("C", 2)
    with pytest.raises(CartanTypeError):
        SimpleType("D", 3)
    with pytest.raises(CartanTypeError):
        SimpleType("E", 9)
    with pytest.raises(CartanTypeError):
        SimpleType("H", 3)


def test_root_datum_rank_limit():
    for name in (f"A{MAX_ROOT_DATUM_RANK + 1}", "D1000"):
        st = SimpleType.parse(name)  # the type itself is valid
        with pytest.raises(CartanTypeError, match=f"limit {MAX_ROOT_DATUM_RANK}"):
            build_root_system(st)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_classification_recovers_each_type(name):
    st = SimpleType.parse(name)
    rs = build_root_system(st)
    # feed the simple roots in scrambled order; classification must not depend
    # on the presentation
    simple_roots = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    scrambled = tuple(reversed(simple_roots))
    components = classify_simple_system(rs, scrambled)
    assert tuple(t for t, _ in components) == (st,)


# Every type through rank 8.
RANK8_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
               + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])


def _simple_roots(rs):
    return tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))


@pytest.mark.parametrize("name", RANK8_TYPES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_classification_ignores_root_order(name, data):
    st_ = SimpleType.parse(name)
    rs = build_root_system(st_)
    simple = _simple_roots(rs)
    expected = classify_simple_system(rs, simple)
    assert tuple(t for t, _ in expected) == (st_,)
    shuffled = tuple(data.draw(st.permutations(simple)))
    assert classify_simple_system(rs, shuffled) == expected


def _typed_blocks(sub):
    """(type, roots) per component: selected_roots cut at the component ranks."""
    ends = itertools.accumulate(ct.rank for ct in sub.component_types)
    return tuple((ct, sub.selected_roots[end - ct.rank:end])
                 for ct, end in zip(sub.component_types, ends))


@pytest.mark.parametrize("name", ["B5", "E7"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_subsystem_classification_ignores_root_order(name, data):
    rs = build_root_system(SimpleType.parse(name))
    subs = equal_rank_subsystems(rs.stype)
    sub = subs[data.draw(st.integers(0, len(subs) - 1))]
    shuffled = tuple(data.draw(st.permutations(sub.selected_roots)))
    assert classify_simple_system(rs, shuffled) == _typed_blocks(sub)


@pytest.mark.parametrize("name", RANK8_TYPES)
def test_extended_diagram_is_not_a_simple_system(name):
    """The simple roots and -theta are dependent: no Cartan type matches them."""
    rs = build_root_system(SimpleType.parse(name))
    extended = _simple_roots(rs) + (tuple(-c for c in rs.positive_roots[-1]),)
    with pytest.raises(ClassificationError):
        classify_simple_system(rs, extended)


@pytest.mark.parametrize("roots", [((0,),), ((1,), (3,)), ((1,), (1,))])
def test_vectors_that_are_no_simple_system_are_rejected(roots):
    """A zero vector, a non-integral Cartan entry and a repeated root."""
    with pytest.raises(ClassificationError):
        classify_simple_system(build_root_system(SimpleType("A", 1)), roots)


@pytest.mark.parametrize("name", ["B5", "D6", "E7", "F4"])
def test_components_take_least_standard_order(name):
    """Each block of rank up to 6 is the least ordering of its roots, by brute
    force over permutations, whose oracle Cartan matrix is the standard one;
    in a D4 block the smallest fork tip comes first."""
    st_ = SimpleType.parse(name)
    amb = ambient_root_system(st_)
    for sub in equal_rank_subsystems(st_):
        for ctype, block in _typed_blocks(sub):
            if ctype.rank > 6:
                continue
            standard = ambient_root_system(ctype).cartan_matrix
            least = min(order for order in itertools.permutations(sorted(block))
                        if _oracle_cartan(amb, order) == standard)
            assert block == least, (sub, ctype)


def _oracle_cartan(amb, roots):
    vectors = [_ambient(amb, beta) for beta in roots]
    return tuple(tuple(int(ambient_pairing(x, y)) for y in vectors) for x in vectors)


TYPE_A_PINS = json.loads((Path(__file__).parent / "golden" / "type_a_equal_rank.json")
                         .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TYPE_A_PINS))
def test_type_a_equal_rank_roots_pinned(name):
    sub = type_a_equal_rank(SimpleType.parse(name))
    assert [str(t) for t in sub.component_types] == TYPE_A_PINS[name]["component_types"]
    assert [list(r) for r in sub.selected_roots] == TYPE_A_PINS[name]["selected_roots"]


SUBSYSTEM_DIGESTS = json.loads((Path(__file__).parent / "golden" / "equal_rank_subsystems.json")
                               .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SUBSYSTEM_DIGESTS))
def test_equal_rank_subsystems_pinned(name):
    """SHA-256 of the canonical JSON of every subsystem's types and roots,
    written when every candidate was classified whole."""
    subs = equal_rank_subsystems(SimpleType.parse(name))
    doc = [[[str(t) for t in s.component_types], [list(r) for r in s.selected_roots]]
           for s in subs]
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SUBSYSTEM_DIGESTS[name]


@pytest.mark.parametrize("name,calls", [("E8", 206), ("B10", 799)])
def test_subsystem_search_types_only_the_changed_block(monkeypatch, name, calls):
    # Classifying each candidate whole, kept components included, made 546
    # and 2,711 component matches; the counts are deterministic.
    match = subsystems._match_component
    made = []

    def counted(*args):
        made.append(args)
        return match(*args)

    monkeypatch.setattr(subsystems, "_match_component", counted)
    equal_rank_subsystems(SimpleType.parse(name))
    assert len(made) == calls


def test_weyl_orbit_and_dominant_representative():
    rs = build_root_system(SimpleType.parse("A2"))
    orbit = weyl_orbit(rs, (1, 0))
    assert orbit == {(1, 0), (-1, 1), (0, -1)}
    for w in orbit:
        assert dominant_representative(rs, w) == (1, 0)

    rs2 = build_root_system(SimpleType.parse("B2"))
    assert len(weyl_orbit(rs2, (1, 0))) == 4  # short orbit of the std weight
    assert len(weyl_orbit(rs2, (1, 1))) == 8


ORBIT_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
               + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])


def orbit_size(rs, hw) -> int:
    """|W| / |W_J| for a dominant hw, with W_J generated by the simple
    reflections that fix hw."""
    fixed = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank) if not hw[i])
    stabilizer = math.prod(weyl_group_order(ct.family, ct.rank)
                           for ct, _ in classify_simple_system(rs, fixed))
    return weyl_group_order(rs.stype.family, rs.rank) // stabilizer


@pytest.mark.parametrize("name", ORBIT_TYPES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_weyl_orbit_matches_a_closure_oracle(name, data):
    """A dominant weight with entries up to 2, zeroed in a drawn order until
    its orbit has at most 1,000 points, and its image under a word of simple
    reflections: the orbit is the oracle's closure, and every point of it
    has the one dominant representative."""
    rs = build_root_system(SimpleType.parse(name))
    hw = data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank))
    for i in data.draw(st.permutations(range(rs.rank))):
        if orbit_size(rs, hw) <= 1000:
            break
        hw[i] = 0
    w = tuple(hw)
    for i in data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=12)):
        w = reflect(rs.cartan_matrix, w, i)
    orbit = weyl_orbit(rs, w)
    assert orbit == set(orbit_closure(rs.cartan_matrix, w))
    assert len(orbit) == orbit_size(rs, hw)
    assert {dominant_representative(rs, v) for v in orbit} == {tuple(hw)}


@pytest.mark.parametrize("hw,calls", [((1, 0, 0, 0, 0, 0, 0, 0), 5616),
                                      ((0, 0, 0, 0, 0, 0, 1, 0), 18592)])
def test_weyl_orbit_reflects_only_down_the_descent_tree(monkeypatch, hw, calls):
    # A closure under all eight reflections made rank x |orbit| = 17,280 and
    # 53,760 reflections for these orbits of 2,160 and 6,720 points; the tree
    # reflects v in s_i only where v_i > 0.
    plain = rootsys.reflect_coords
    made = []

    def counted(*args):
        made.append(args)
        return plain(*args)

    monkeypatch.setattr(rootsys, "reflect_coords", counted)
    rs = build_root_system(SimpleType("E", 8))
    orbit = weyl_orbit(rs, hw)
    assert len(made) == calls == sum(c > 0 for v in orbit for c in v)
    assert orbit == set(orbit_closure(rs.cartan_matrix, hw))


def test_reflect_coords_is_involution():
    rs = build_root_system(SimpleType.parse("G2"))
    w = (2, -1)
    for i in range(2):
        assert reflect_coords(rs, reflect_coords(rs, w, i), i) == w


SUBSYSTEM_TABLES = {
    "B3": {"B3", "A3", "A1+A1+A1"},
    "G2": {"G2", "A2", "A1+A1"},
    "E6": {"E6", "A1+A5", "A2+A2+A2"},
    "E7": {"E7", "A7", "A1+D6", "A2+A5", "A1+A3+A3", "A1+A1+A1+D4",
           "A1+A1+A1+A1+A1+A1+A1"},
    "E8": {"E8", "D8", "A8", "A1+E7", "A2+E6", "A4+A4", "A3+D5", "D4+D4",
           "A1+A7", "A1+A1+D6", "A1+A2+A5", "A1+A1+A3+A3", "A2+A2+A2+A2",
           "A1+A1+A1+A1+D4", "A1+A1+A1+A1+A1+A1+A1+A1"},
}


@pytest.mark.parametrize("name", sorted(SUBSYSTEM_TABLES))
def test_equal_rank_subsystem_signatures(name):
    rs = build_root_system(SimpleType.parse(name))
    subs = equal_rank_subsystems(rs.stype)
    sigs = {"+".join(str(t) for t in s.component_types) for s in subs}
    assert sigs == SUBSYSTEM_TABLES[name]
    for s in subs:
        assert sum(t.rank for t in s.component_types) == rs.rank


CLASSICAL_SUBSYSTEM_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 15)]
    + [f"C{n}" for n in range(3, 15)] + [f"D{n}" for n in range(4, 15)])


@pytest.mark.parametrize("name", CLASSICAL_SUBSYSTEM_TYPES)
def test_classical_subsystems_match_the_closed_form(name):
    stype = SimpleType.parse(name)
    expected = subsystem_oracle.signatures(stype)
    assert len(set(expected)) == len(expected)
    found = [s.signature for s in equal_rank_subsystems(stype)]
    assert len(set(found)) == len(found)
    assert set(found) == set(expected)


def test_closed_form_gives_the_recorded_subsystem_counts():
    counts = {"B16": 231, "B20": 627, "C20": 627, "B24": 1575}
    assert {name: len(set(subsystem_oracle.signatures(SimpleType.parse(name))))
            for name in counts} == counts


@pytest.mark.parametrize("name", ALL_TYPES)
def test_subsystem_blocks_have_standard_cartan_matrices(name):
    """Each block of selected_roots is in the standard numbering of its type,
    which equal_rank_subsystems relies on to read off its highest root."""
    st = SimpleType.parse(name)
    amb = ambient_root_system(st)
    for sub in equal_rank_subsystems(st):
        for ctype, block in _typed_blocks(sub):
            vectors = [_ambient(amb, beta) for beta in block]
            cartan = tuple(tuple(int(ambient_pairing(x, y)) for y in vectors)
                           for x in vectors)
            assert cartan == ambient_root_system(ctype).cartan_matrix, (sub, ctype)


def test_subsystems_have_full_rank_root_sets():
    from charlattice import linalg
    for name in ("B3", "G2", "E7"):
        rs = build_root_system(SimpleType.parse(name))
        for s in equal_rank_subsystems(rs.stype):
            assert linalg.rank(s.selected_roots) == rs.rank


@pytest.mark.parametrize("name,expect", [
    ("B3", "A3"), ("B4", "A1+A3"), ("G2", "A2"), ("E7", "A7"),
    ("D4", "A1+A1+A1+A1"), ("C3", "A1+A1+A1"),
])
def test_type_a_equal_rank_pick(name, expect):
    sub = type_a_equal_rank(SimpleType.parse(name))
    assert "+".join(str(t) for t in sub.component_types) == expect


def test_diagram_automorphism_counts():
    counts = {"A1": 1, "A4": 2, "B3": 1, "D5": 2, "E6": 2, "E7": 1,
              "D4": 4}  # identity plus three tip swaps
    for name, count in counts.items():
        assert len(diagram_automorphisms(SimpleType.parse(name))) == count


def permuted(perm, w):
    return tuple(w[p] for p in perm)


def test_a3_flip_swaps_std_and_dual():
    auts = diagram_automorphisms(SimpleType.parse("A3"))
    flip = next(perm for perm in auts if perm != (0, 1, 2))
    assert permuted(flip, (1, 0, 0)) == (0, 0, 1)
    assert permuted(flip, (0, 1, 0)) == (0, 1, 0)


def test_e6_flip_swaps_minuscule_pair():
    auts = diagram_automorphisms(SimpleType.parse("E6"))
    flip = next(perm for perm in auts if perm != tuple(range(6)))
    assert permuted(flip, (1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert permuted(flip, (0, 0, 1, 0, 0, 0)) == (0, 0, 0, 0, 1, 0)
    assert permuted(flip, (0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)


AUTOMORPHISM_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", AUTOMORPHISM_TYPES)
def test_diagram_automorphisms_are_involutions_preserving_the_cartan_matrix(name):
    stype = SimpleType.parse(name)
    n = stype.rank
    cartan = build_root_system(stype).cartan_matrix
    perms = diagram_automorphisms(stype)
    assert perms[0] == tuple(range(n))
    assert len(set(perms)) == len(perms)
    for perm in perms:
        assert sorted(perm) == list(range(n))
        assert permuted(perm, perm) == tuple(range(n))
        assert all(cartan[perm[i]][perm[j]] == cartan[i][j]
                   for i in range(n) for j in range(n))


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4", "D5", "E6"])
def test_diagram_automorphisms_carry_each_irreducible_to_its_image(name):
    """Permuting the weights of V(lambda) gives the weights of V(perm lambda),
    for every irreducible up to dimension 64."""
    alg = SemisimpleAlgebra.parse(name)
    irreps = enumerate_irreps_up_to_dim(alg, 64)
    assert len(irreps) >= 3  # E6: the trivial character, 27 and its dual
    for perm in diagram_automorphisms(alg.factors[0])[1:]:
        for hw, _ in irreps:
            fc = irreducible_character(alg, hw.flat())
            image = irreducible_character(alg, permuted(perm, hw.flat()))
            assert {permuted(perm, w): m for w, m in fc.weights} == image.counts()
