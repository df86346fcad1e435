"""Root system construction against the frozen classical tables."""

from fractions import Fraction

import pytest

from ambient_oracle import ambient_root_system, gram, pairing
from charlattice.rootsys import (CartanTypeError, LatticeInvolution, SimpleType,
                                 build_root_system, classify_simple_system,
                                 diagram_automorphisms, dominant_representative,
                                 equal_rank_subsystems, reflect_coords,
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
    dim = len(amb.simple_roots[0])
    vectors = [
        tuple(sum((c * a[k] for c, a in zip(beta, amb.simple_roots)), Fraction(0))
              for k in range(dim))
        for beta in rs.positive_roots
    ]
    assert len(vectors) == len(amb.positive_roots)
    assert set(vectors) == amb.positive_roots
    for vector, co in zip(vectors, rs.positive_coroots):
        assert co == tuple(pairing(w, vector) for w in amb.fundamental_weights)
    assert rs.symmetrized_form == tuple(
        tuple(2 * x for x in row) for row in gram(amb.simple_roots))


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
    assert diagram_automorphisms(SimpleType.parse("A1")).group_order == 1
    assert diagram_automorphisms(SimpleType.parse("A4")).group_order == 2
    assert diagram_automorphisms(SimpleType.parse("B3")).group_order == 1
    assert diagram_automorphisms(SimpleType.parse("D5")).group_order == 2
    assert diagram_automorphisms(SimpleType.parse("E6")).group_order == 2
    assert diagram_automorphisms(SimpleType.parse("E7")).group_order == 1
    d4 = diagram_automorphisms(SimpleType.parse("D4"))
    assert d4.group_order == 6
    assert len(d4.involutions) == 4  # identity plus three tip swaps
    assert len(d4.order3) == 2


def test_a3_flip_swaps_std_and_dual():
    auts = diagram_automorphisms(SimpleType.parse("A3"))
    flip = next(inv for inv in auts.involutions if inv.order == 2)
    assert flip.apply((1, 0, 0)) == (0, 0, 1)
    assert flip.apply((0, 1, 0)) == (0, 1, 0)


def test_e6_flip_swaps_minuscule_pair():
    auts = diagram_automorphisms(SimpleType.parse("E6"))
    flip = next(inv for inv in auts.involutions if inv.order == 2)
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
