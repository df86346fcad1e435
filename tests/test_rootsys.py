"""Root system construction against the frozen classical tables."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_oracle import (all_roots, ambient_root_system, dot, gram,
                            reflection_closure, simple_roots_for)
from ambient_oracle import pairing as ambient_pairing
from charlattice.reps import HighestWeight, SemisimpleAlgebra, weyl_dimension
from charlattice.rootsys import (MAX_ROOT_DATUM_RANK, CartanTypeError, ClassificationError,
                                 LatticeInvolution, SimpleType, build_root_system,
                                 classify_simple_system, coroot,
                                 diagram_automorphisms, dominant_representative,
                                 equal_rank_subsystems, pairing, reflect_coords,
                                 type_a_equal_rank, weyl_orbit)

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


@pytest.mark.parametrize("name", ["B5", "E7"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_subsystem_classification_ignores_root_order(name, data):
    rs = build_root_system(SimpleType.parse(name))
    subs = equal_rank_subsystems(rs)
    sub = subs[data.draw(st.integers(0, len(subs) - 1))]
    shuffled = tuple(data.draw(st.permutations(sub.selected_roots)))
    assert classify_simple_system(rs, shuffled) == tuple(
        zip(sub.component_types, sub.component_root_blocks()))


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
    for sub in equal_rank_subsystems(build_root_system(st_)):
        for ctype, block in zip(sub.component_types, sub.component_root_blocks()):
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
    sub = type_a_equal_rank(build_root_system(SimpleType.parse(name)))
    assert [str(t) for t in sub.component_types] == TYPE_A_PINS[name]["component_types"]
    assert [list(r) for r in sub.selected_roots] == TYPE_A_PINS[name]["selected_roots"]


def test_weyl_orbit_and_dominant_representative():
    rs = build_root_system(SimpleType.parse("A2"))
    orbit = weyl_orbit(rs, (1, 0))
    assert orbit == {(1, 0), (-1, 1), (0, -1)}
    for w in orbit:
        assert dominant_representative(rs, w) == (1, 0)

    rs2 = build_root_system(SimpleType.parse("B2"))
    assert len(weyl_orbit(rs2, (1, 0))) == 4  # short orbit of the std weight
    assert len(weyl_orbit(rs2, (1, 1))) == 8


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
    subs = equal_rank_subsystems(rs)
    sigs = {"+".join(str(t) for t in s.component_types) for s in subs}
    assert sigs == SUBSYSTEM_TABLES[name]
    for s in subs:
        assert sum(t.rank for t in s.component_types) == rs.rank


@pytest.mark.parametrize("name", ALL_TYPES)
def test_subsystem_blocks_have_standard_cartan_matrices(name):
    """Each block of selected_roots is in the standard numbering of its type,
    which equal_rank_subsystems relies on to read off its highest root."""
    st = SimpleType.parse(name)
    amb = ambient_root_system(st)
    for sub in equal_rank_subsystems(build_root_system(st)):
        for ctype, block in zip(sub.component_types, sub.component_root_blocks()):
            vectors = [_ambient(amb, beta) for beta in block]
            cartan = tuple(tuple(int(ambient_pairing(x, y)) for y in vectors)
                           for x in vectors)
            assert cartan == ambient_root_system(ctype).cartan_matrix, (sub, ctype)


def test_subsystems_have_full_rank_root_sets():
    from charlattice import linalg
    for name in ("B3", "G2", "E7"):
        rs = build_root_system(SimpleType.parse(name))
        for s in equal_rank_subsystems(rs):
            assert linalg.rank([linalg.vec(r) for r in s.selected_roots]) == rs.rank


@pytest.mark.parametrize("name,expect", [
    ("B3", "A3"), ("B4", "A1+A3"), ("G2", "A2"), ("E7", "A7"),
    ("D4", "A1+A1+A1+A1"), ("C3", "A1+A1+A1"),
])
def test_type_a_equal_rank_pick(name, expect):
    rs = build_root_system(SimpleType.parse(name))
    sub = type_a_equal_rank(rs)
    assert "+".join(str(t) for t in sub.component_types) == expect


def test_diagram_automorphism_counts():
    counts = {"A1": 1, "A4": 2, "B3": 1, "D5": 2, "E6": 2, "E7": 1,
              "D4": 4}  # identity plus three tip swaps
    for name, count in counts.items():
        assert len(diagram_automorphisms(SimpleType.parse(name))) == count


def test_a3_flip_swaps_std_and_dual():
    auts = diagram_automorphisms(SimpleType.parse("A3"))
    flip = next(inv for inv in auts if inv.order == 2)
    assert flip.apply((1, 0, 0)) == (0, 0, 1)
    assert flip.apply((0, 1, 0)) == (0, 1, 0)


def test_e6_flip_swaps_minuscule_pair():
    auts = diagram_automorphisms(SimpleType.parse("E6"))
    flip = next(inv for inv in auts if inv.order == 2)
    assert flip.apply((1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert flip.apply((0, 0, 1, 0, 0, 0)) == (0, 0, 0, 0, 1, 0)
    assert flip.apply((0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)


def test_lattice_involution_validation():
    with pytest.raises(ValueError):
        LatticeInvolution(((1, 1), (0, 1)))  # squares to a shear, not identity
    neg = LatticeInvolution.negation(3)
    assert neg.apply((1, -2, 5)) == (-1, 2, -5)
    assert neg.order == 2
    assert LatticeInvolution.identity(2).order == 1
