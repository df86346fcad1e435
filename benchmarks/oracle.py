"""Answers the benchmark checks charlattice against, computed without it.

Dimensions come from closed forms (the type-A hook-content product, the
rank-two Weyl products, tabulated fundamental dimensions); weight multisets
are checked by size and by invariance under the simple reflections of a
Cartan matrix written out here; sumset products, translation classes and
witness images are recomputed from scratch.  Nothing here imports charlattice.
"""

from __future__ import annotations

import json
from math import comb, gcd

Weights = dict[tuple[int, ...], int]
Elem = tuple[int, tuple[int, ...]]

# Dimensions of the fundamental irreducibles of the exceptional types,
# Bourbaki numbering (E8 w8 is the adjoint 248, G2 w1 the 7).
EXCEPTIONAL_FUNDAMENTAL_DIMS = {
    ("E", 6): (27, 78, 351, 2925, 351, 27),
    ("E", 7): (133, 912, 8645, 365750, 27664, 1539, 56),
    ("E", 8): (3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248),
    ("F", 4): (52, 1274, 273, 26),
    ("G", 2): (7, 14),
}


def parse_type(text: str) -> tuple[str, int]:
    return text[0], int(text[1:])


def dim_type_a(coords: tuple[int, ...]) -> int:
    """Weyl dimension of A_n from fundamental coordinates, via the partition
    l_i = a_i + ... + a_n and prod_{i<j} (l_i - l_j + j - i) / (j - i)."""
    n = len(coords)
    parts = [sum(coords[i:]) for i in range(n)] + [0]
    num = den = 1
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    return num // den


def dim_fundamental(family: str, rank: int, k: int) -> int:
    """Dimension of the k-th fundamental irreducible (1-based, Bourbaki)."""
    n = rank
    if family == "A":
        return comb(n + 1, k)
    if family == "B":
        return 2**n if k == n else comb(2 * n + 1, k)
    if family == "C":
        return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
    if family == "D":
        return 2 ** (n - 1) if k >= n - 1 else comb(2 * n, k)
    return EXCEPTIONAL_FUNDAMENTAL_DIMS[(family, n)][k - 1]


def dim(type_text: str, coords: tuple[int, ...]) -> int | None:
    """Oracle dimension, or None when no closed form here covers the weight."""
    family, n = parse_type(type_text)
    if family == "A":
        return dim_type_a(coords)
    a, b = (coords + (0, 0))[:2]
    if (family, n) == ("B", 2):
        return (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3) // 6
    if (family, n) == ("G", 2):
        return ((a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3)
                * (a + 3 * b + 4) * (2 * a + 3 * b + 5) // 120)
    if sorted(coords) == [0] * (n - 1) + [1]:
        return dim_fundamental(family, n, coords.index(1) + 1)
    if not any(coords):
        return 1
    return None


def cartan(type_text: str) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with row i the simple root alpha_i in fundamental
    coordinates (entry j is <alpha_i, alpha_j^vee>), Bourbaki numbering."""
    family, n = parse_type(type_text)
    if (family, n) == ("G", 2):
        return ((2, -1), (-3, 2))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n - 1 if family == "D" else n
    for i in range(chain - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    if family == "B":
        m[n - 2][n - 1] = -2
    elif family == "C":
        m[n - 1][n - 2] = -2
    elif family == "D":
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    elif family != "A":
        raise ValueError(f"no Cartan matrix written out for {type_text}")
    return tuple(tuple(r) for r in m)


def reflection_invariant(type_text: str, weights: Weights) -> bool:
    """Whether the multiset is fixed by every simple reflection
    s_i(w) = w - w_i * alpha_i."""
    for i, alpha in enumerate(cartan(type_text)):
        image: Weights = {}
        for w, m in weights.items():
            v = tuple(wj - w[i] * aj for wj, aj in zip(w, alpha))
            image[v] = image.get(v, 0) + m
        if image != weights:
            return False
    return True


def weights_a1(k: int) -> Weights:
    return {(k - 2 * i,): 1 for i in range(k + 1)}


def apply_matrix(matrix, weights: Weights) -> Weights:
    out: Weights = {}
    for w, m in weights.items():
        v = tuple(sum(r * c for r, c in zip(row, w)) for row in matrix)
        out[v] = out.get(v, 0) + m
    return out


def line_profile(weights: Weights) -> tuple:
    """A linear invariant: the multiplicity at 0 and, for every line through
    0 that holds weights, (distinct weights on it, total multiplicity)."""
    lines: dict[tuple[int, ...], list[int]] = {}
    zero = 0
    for w, m in weights.items():
        g = 0
        for c in w:
            g = gcd(g, c)
        if g == 0:
            zero += m
            continue
        d = tuple(c // g for c in w)
        if next(c for c in d if c) < 0:
            d = tuple(-c for c in d)
        slot = lines.setdefault(d, [0, 0])
        slot[0] += 1
        slot[1] += m
    return zero, tuple(sorted(tuple(v) for v in lines.values()))


# -- finite multisets in Z/t x Z^d ------------------------------------------

def add(torsion: int, x: Elem, y: Elem) -> Elem:
    return ((x[0] + y[0]) % torsion, tuple(a + b for a, b in zip(x[1], y[1])))


def sumset(torsion: int, *factors: dict[Elem, int]) -> dict[Elem, int]:
    out = factors[0]
    for f in factors[1:]:
        nxt: dict[Elem, int] = {}
        for x, mx in out.items():
            for y, my in f.items():
                s = add(torsion, x, y)
                nxt[s] = nxt.get(s, 0) + mx * my
        out = nxt
    return out


def translation_class(torsion: int, factor: dict[Elem, int]) -> tuple:
    """The least sorted translate that puts one element at 0."""
    best = None
    for e in factor:
        neg = (-e[0] % torsion, tuple(-c for c in e[1]))
        moved = tuple(sorted((add(torsion, x, neg), m) for x, m in factor.items()))
        if best is None or moved < best:
            best = moved
    return best


def decomposition_class(torsion: int, factors) -> tuple:
    """Factors up to translation, with equal-size factors unordered."""
    return tuple(sorted((sum(f.values()), translation_class(torsion, f))
                        for f in factors))


def check_factorizations(torsion: int, target: dict[Elem, int], shape, decs,
                         planted=None) -> str | None:
    """Every returned decomposition has the requested sizes and multiplies
    back to the target; the planted one, when given, is among them."""
    for factors in decs:
        sizes = tuple(sum(f.values()) for f in factors)
        if sizes != tuple(shape):
            return f"factor sizes {sizes} for profile {tuple(shape)}"
        if sumset(torsion, *factors) != target:
            return "a returned factorization does not multiply back"
    if planted is not None:
        want = decomposition_class(torsion, planted)
        if want not in {decomposition_class(torsion, f) for f in decs}:
            return "the planted factorization is missing"
    return None



# -- CLI answers -------------------------------------------------------------

# Complete lists of full-rank subsystems (by extended-diagram deletion) for
# the types the query mix asks about.  Type A has only itself.
SUBSYSTEMS = {
    "B2": {"B2", "A1+A1"},
    "B3": {"B3", "A3", "A1+A1+A1"},
    "C3": {"C3", "A1+B2", "A1+A1+A1"},
    "D4": {"D4", "A1+A1+A1+A1"},
    "G2": {"G2", "A2", "A1+A1"},
}


def _mset(factor_doc) -> dict[Elem, int]:
    return {(e["torsion"], tuple(e["free"])): e["mult"] for e in factor_doc}


def check_query(kind: str, expect: dict, code: int, out: str, err: str) -> str | None:
    """Why a CLI answer is wrong, or None.  `kind` and `expect` come from the
    generator; `out` is the --format structured document."""
    if "Traceback" in err:
        return "traceback on stderr: " + err.strip().splitlines()[-1]
    if kind == "malformed":
        return None if code == 2 and "error" in err else f"exit {code}, expected 2 with a message"
    if kind == "weights.over_bound":
        return None if code != 0 and err.strip() else f"exit {code}, expected a refusal"
    command = kind.split(".")[0]
    if command == "allowed-pairs":
        n = expect["n"]
        gate = n % 7 != 0 and n % 4 != 0
        if code != (0 if gate else 1):
            return f"exit {code} with gate {'open' if gate else 'closed'}"
    elif code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    if command == "dim":
        want = dim(expect["algebra"], expect["coords"])
        return None if doc["dim"] == want else f"dim {doc['dim']}, expected {want}"
    if command == "weights":
        got = {tuple(e["coords"]): e["mult"] for e in doc["weights"]}
        algebra, coords = expect["algebra"], tuple(expect["coords"])
        if algebra == "A1":
            return None if got == weights_a1(coords[0]) else "A1 weights differ"
        if sum(got.values()) != dim(algebra, coords):
            return f"total multiplicity {sum(got.values())} is not the dimension"
        if got.get(coords) != 1:
            return "highest weight missing or repeated"
        return None if reflection_invariant(algebra, got) else "not Weyl invariant"
    if command == "samechar":
        if not expect["match"]:
            if doc["match"]:
                return "a witness for characters with different line profiles"
            return None
        if not doc["match"]:
            return "no witness for a matching pair"
        if apply_matrix(doc["witness"], expect["source"]) != expect["target"]:
            return "the witness does not carry source onto target"
        return None
    if command == "factorize":
        decs = [[_mset(f) for f in dec] for dec in doc["factorizations"]]
        if doc["count"] != len(decs):
            return "count disagrees with the listed factorizations"
        return check_factorizations(expect["torsion"], expect["product"],
                                    expect["shape"], decs, expect["planted"])
    if command == "subsystems":
        stype, got = expect["type"], doc["subsystems"]
        want = {stype} if stype[0] == "A" else SUBSYSTEMS[stype]
        return None if sorted(got) == sorted(want) else f"subsystems {got}"
    if command == "multfree":
        for e in doc["entries"]:
            want = dim(expect["type"], tuple(e["hw"]))
            if e["dim"] != want:
                return f"entry {e['hw']} has dim {e['dim']}, expected {want}"
            if expect["max_dim"] and e["dim"] > expect["max_dim"]:
                return f"entry {e['hw']} above --max-dim"
        return None if doc["entries"] or expect["type"] in ("E8", "F4") else "empty catalog"
    if command == "allowed-pairs":
        for p in doc["pairs"]:
            want = dim(p["type"], tuple(p["hw"]))
            if p["dim"] != expect["n"] or want != expect["n"]:
                return f"pair {p['type']} {p['hw']} has dim {want}, not {expect['n']}"
        return None
    raise ValueError(f"no check for {kind}")
