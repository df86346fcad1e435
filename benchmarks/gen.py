"""Seeded inputs for the `query` and `factor` workloads.

Inputs come in blocks.  Every block of a workload has the same composition
(the same number of queries of each class, the same factorization shapes),
and the parameters that set an input's cost (type and rank of a `dim`, k of
an A1 `weights`) are drawn from fixed strata that a seeded permutation deals
out to the blocks.  Runs with different seeds therefore get different inputs
with the same cost profile, and a whole number of blocks keeps the
percentiles inside a cost class instead of on the edge between two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import oracle

QUERY_BLOCK = 20


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def dealt(seed: int, name: str, strata: list, block: int):
    """The stratum a seeded permutation deals to this block."""
    order = list(range(len(strata)))
    rng_for("deal", name, seed).shuffle(order)
    return strata[order[block % len(strata)]]


# -- type A characters from subsets of {0..n} (no library code) --------------

def fundamental_coords(eps: list[int]) -> tuple[int, ...]:
    """sum e_i eps_i of A_n in fundamental coordinates: c_j = e_j - e_(j+1)."""
    return tuple(eps[j] - eps[j + 1] for j in range(len(eps) - 1))


def alt_power(n: int, k: int) -> oracle.Weights:
    out: oracle.Weights = {}
    for subset in combinations(range(n + 1), k):
        eps = [1 if i in subset else 0 for i in range(n + 1)]
        w = fundamental_coords(eps)
        out[w] = out.get(w, 0) + 1
    return out


def sym_square(n: int) -> oracle.Weights:
    out: oracle.Weights = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            eps = [0] * (n + 1)
            eps[i] += 1
            eps[j] += 1
            w = fundamental_coords(eps)
            out[w] = out.get(w, 0) + 1
    return out


def char_sum(*chars: oracle.Weights) -> oracle.Weights:
    out: oracle.Weights = {}
    for c in chars:
        for w, m in c.items():
            out[w] = out.get(w, 0) + m
    return out


def unimodular(rng: random.Random, r: int) -> list[list[int]]:
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(r):
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if i != j:
            s = rng.choice((-1, 1))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    if rng.random() < 0.5:
        m[0] = [-a for a in m[0]]
    return m


def char_file(rank: int, weights: oracle.Weights) -> str:
    lines = [f"algebra: A{rank}", "weights:"]
    lines += [" ".join(map(str, w)) + f" {m}" for w, m in sorted(weights.items())]
    return "\n".join(lines) + "\n"


def perturbed(rng: random.Random, weights: oracle.Weights) -> oracle.Weights:
    """Move one weight onto the line of another, changing the line profile
    (so no linear map can match the two) while keeping size and count."""
    base = oracle.line_profile(weights)
    nonzero = sorted(w for w in weights if any(w))
    while True:
        u, v = rng.sample(nonzero, 2)
        for scale in (2, 3, -2, -3):
            target = tuple(scale * c for c in v)
            if target in weights:
                continue
            out = dict(weights)
            out[target] = out.pop(u)
            if oracle.line_profile(out) != base:
                return out


# -- queries ------------------------------------------------------------------

@dataclass
class Query:
    """One CLI call: its arguments, the files it reads, and what the oracle
    needs to know.  `kind` names the class the query is reported under."""

    kind: str
    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)


# Strata for the heavy and mid-cost queries: dim by (family, rank), where
# root-datum construction grows steeply with rank, or weights of A1 by k,
# where Freudenthal grows like k^2.  The strata of one tier cost about the
# same (about 1.3 s and 0.45 s on the reference machine), so a tier is one
# class whichever strata a run is dealt.
HEAVY = [("dim", "A", 15), ("dim", "B", 13), ("dim", "C", 13), ("dim", "D", 13),
         ("weights", "A1", 800)]
DIM_MID = [("A", 10), ("A", 11), ("B", 9), ("C", 9), ("D", 10)]
K_MID = 400
DIM_LIGHT = [("A", 2), ("A", 5), ("B", 4), ("C", 5), ("D", 6), ("E", 6),
             ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
SMALL_WEIGHTS = ["A2", "A3", "B2", "G2", "B3", "C3", "D4"]
SUBSYSTEM_TYPES = ["A3", "A5", "B2", "B3", "C3", "D4", "G2"]
MULTFREE = [("A3", 20), ("A4", 30), ("B5", None), ("C3", None), ("D5", None),
            ("E6", None), ("E7", None), ("G2", None)]


def _fundamental(rng: random.Random, rank: int) -> tuple[int, ...]:
    k = rng.randrange(rank)
    return tuple(int(i == k) for i in range(rank))


def _dim_query(rng: random.Random, family: str, rank: int, tier: str) -> Query:
    algebra = f"{family}{rank}"
    if family == "A":
        coords = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(rank))
    else:
        coords = _fundamental(rng, rank)
    return Query(f"dim.{tier}", ["dim", algebra, ",".join(map(str, coords))],
                 {"algebra": algebra, "coords": coords})


def _weights_query(algebra: str, coords: tuple[int, ...], tier: str) -> Query:
    return Query(f"weights.{tier}", ["weights", algebra, ",".join(map(str, coords))],
                 {"algebra": algebra, "coords": coords})


def _small_weight(rng: random.Random, algebra: str) -> tuple[int, ...]:
    family, rank = oracle.parse_type(algebra)
    if family == "A" or (family, rank) in (("B", 2), ("G", 2)):
        budget = {1: 60, 2: 6, 3: 3}.get(rank, 3) if family == "A" else 3
        while True:
            coords = tuple(rng.randrange(budget + 1) for _ in range(rank))
            if any(coords) and sum(coords) <= budget:
                return coords
    return _fundamental(rng, rank)


def _samechar(rng: random.Random, tag: str, variant: str) -> Query:
    n = rng.choice((3, 4, 5))
    k = rng.randrange(2, n)
    if variant == "dual":
        source, target = alt_power(n, k), alt_power(n, n + 1 - k)
    else:
        pick = rng.randrange(3)
        source = (alt_power(n, k) if pick == 0 else sym_square(n) if pick == 1
                  else char_sum(alt_power(n, 1), alt_power(n, n), {(0,) * n: 1}))
        shape = source if variant == "match" else perturbed(rng, source)
        target = oracle.apply_matrix(unimodular(rng, n), shape)
    match = variant != "nomatch"
    first, second = f"{tag}a.char", f"{tag}b.char"
    return Query(f"samechar.{variant}", ["samechar", first, second],
                 {"source": source, "target": target, "match": match},
                 {first: char_file(n, source), second: char_file(n, target)})


def planted_product(rng: random.Random, torsion: int, free_rank: int,
                    shape: tuple[int, ...], spread: int):
    """Random factors of the given sizes whose sums are pairwise distinct,
    so that every instance of a shape costs the search the same."""
    size = 1
    for s in shape:
        size *= s
    while True:
        factors = []
        for s in shape:
            elems = set()
            while len(elems) < s:
                elems.add((rng.randrange(torsion),
                           tuple(rng.randrange(-spread, spread + 1)
                                 for _ in range(free_rank))))
            factors.append({e: 1 for e in elems})
        product = oracle.sumset(torsion, *factors)
        if len(product) == size:
            return factors, product


def perturb_product(rng: random.Random, torsion: int, product, spread: int):
    """Replace one element by a new one: same size, almost never a product."""
    out = dict(product)
    del out[rng.choice(sorted(out))]
    free_rank = len(next(iter(out))[1])
    while True:
        e = (rng.randrange(torsion),
             tuple(rng.randrange(-spread, spread + 1) for _ in range(free_rank)))
        if e not in out:
            out[e] = 1
            return out


def _factorize(rng: random.Random, tag: str) -> Query:
    shape = rng.choice(((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 2, 2)))
    torsion = rng.choice((1, 1, 3, 5))
    free_rank = 2 if torsion == 1 else 1
    factors, product = planted_product(rng, torsion, free_rank, shape, 6)
    name = f"{tag}.mset"
    rows = []
    for (t, free), m in sorted(product.items()):
        rows += [" ".join(map(str, ((t,) if torsion > 1 else ()) + free))] * m
    argv = ["factorize", name, "--profile", ",".join(map(str, shape))]
    if torsion > 1:
        argv += ["--torsion", str(torsion)]
    return Query("factorize", argv,
                 {"torsion": torsion, "shape": shape, "product": product,
                  "planted": factors},
                 {name: "\n".join(rows) + "\n"})


def _malformed(rng: random.Random, tag: str) -> Query:
    bad = f"{tag}.char"
    choices = [
        (["dim", "X3", "1,0,0"], {}),
        (["dim", "A2", "1,2,3"], {}),
        (["dim", "A3", "w7"], {}),
        (["weights", "B2", "x,y"], {}),
        (["dim", "C3", "-1,0,0"], {}),
        (["multfree", "A3"], {}),
        (["samechar", bad, bad], {bad: "algebra: A2\nweights:\n1 0\n"}),
        (["allowed-pairs", "0"], {}),
    ]
    argv, files = rng.choice(choices)
    return Query("malformed", argv, {}, files)


def _over_bound(rng: random.Random) -> Query:
    algebra = rng.choice(("A2", "B2", "G2"))
    coords = _small_weight(rng, algebra)
    d = oracle.dim(algebra, coords)
    bound = rng.randrange(1, d)
    return Query("weights.over_bound",
                 ["weights", algebra, ",".join(map(str, coords)), "--bound", str(bound)],
                 {"algebra": algebra, "coords": coords, "bound": bound})


def query_block(seed: int, block: int, workdir: str) -> list[Query]:
    """QUERY_BLOCK CLI queries: 1 heavy, 3 mid-cost, 16 light, in seeded order.

    Heavy and mid queries carry the root-datum (dim, by rank) and Freudenthal
    (weights of A1, by k) tails; the light ones cover every other command,
    malformed input and one over-bound weights request.
    """
    rng = rng_for("query", seed, block)
    tag = f"{workdir}/q{block}_"
    command, first, second = dealt(seed, "heavy", HEAVY, block)
    if command == "weights":
        heavy = _weights_query(first, (second + rng.randrange(-20, 21),), "heavy")
    else:
        heavy = _dim_query(rng, first, second, "heavy")
    queries = [
        heavy,
        _dim_query(rng, *dealt(seed, "dim_mid0", DIM_MID, block), "mid"),
        _dim_query(rng, *dealt(seed, "dim_mid1", DIM_MID, block), "mid"),
        _weights_query("A1", (K_MID + rng.randrange(-20, 21),), "mid"),
    ]
    for i in range(2):
        queries.append(_dim_query(rng, *rng.choice(DIM_LIGHT), "light"))
    for i in range(3):
        algebra = rng.choice(SMALL_WEIGHTS)
        queries.append(_weights_query(algebra, _small_weight(rng, algebra), "light"))
    for variant in ("match", "dual", "nomatch"):
        queries.append(_samechar(rng, f"{tag}{variant}", variant))
    queries.append(_factorize(rng, f"{tag}f0"))
    queries.append(_factorize(rng, f"{tag}f1"))
    stype = rng.choice(SUBSYSTEM_TYPES)
    queries.append(Query("subsystems", ["subsystems", stype], {"type": stype}))
    mtype, max_dim = rng.choice(MULTFREE)
    queries.append(Query("multfree", ["multfree", mtype]
                         + (["--max-dim", str(max_dim)] if max_dim else []),
                         {"type": mtype, "max_dim": max_dim}))
    n = rng.randrange(5, 41)
    queries.append(Query("allowed-pairs", ["allowed-pairs", str(n)], {"n": n}))
    queries.append(_malformed(rng, f"{tag}bad0"))
    queries.append(_malformed(rng, f"{tag}bad1"))
    queries.append(_over_bound(rng))
    rng.shuffle(queries)
    return queries


# -- factorization sweep -------------------------------------------------------

TWO_FACTOR = [(a, b) for a in range(2, 9) for b in range(2, 9) if a * b <= 16]
THREE_FACTOR = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
# Non-products made from planted products of these shapes.  (3,5) and (2,5)
# appear twice per block so that p90 and p50 of a block of 30 fall inside a
# class of equal-cost instances rather than between two classes.
PERTURBED = [(3, 5), (4, 4), (3, 4), (4, 3), (2, 5), (5, 2), (2, 2, 3)]


def group_of(shape: tuple[int, ...]) -> tuple[int, int, int]:
    """(torsion, free rank, coordinate spread) for a shape: every other shape
    lives in Z/m x Z, the rest in Z^2, the same in every block."""
    i = (TWO_FACTOR + THREE_FACTOR).index(shape)
    if i % 2:
        return (3, 5, 7)[i % 3], 1, 40
    return 1, 2, 12


@dataclass
class FactorCase:
    kind: str
    torsion: int
    free_rank: int
    shape: tuple[int, ...]
    product: dict
    planted: list | None


def factor_block(seed: int, block: int) -> list[FactorCase]:
    """Every two-factor shape with a*b <= 16 in both orders, four
    three-factor profiles, and seven perturbed non-products, in seeded
    order.  Sums within a product are distinct, so an instance's cost
    depends on its shape and group, not on the seed."""
    rng = rng_for("factor", seed, block)
    cases = []
    for kind, shapes in (("two", TWO_FACTOR), ("three", THREE_FACTOR),
                         ("perturbed", PERTURBED)):
        for shape in shapes:
            torsion, free_rank, spread = group_of(shape)
            factors, product = planted_product(rng, torsion, free_rank, shape, spread)
            if kind == "perturbed":
                product = perturb_product(rng, torsion, product, spread)
                factors = None
            cases.append(FactorCase(kind, torsion, free_rank, shape, product, factors))
    rng.shuffle(cases)
    return cases
