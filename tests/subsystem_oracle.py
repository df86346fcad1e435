"""Closed-form signatures of the equal-rank subsystems of the classical types.

Iterated extended-diagram deletion reaches, up to Weyl conjugacy (the
Borel-de Siebenthal classification):
- A_n: A_n only;
- C_n: one C_k per part of a partition of n;
- D_n: one D_k per part of a partition of n into parts >= 2;
- B_n: one B_m with 0 <= m <= n (m = 0 means no B part), plus one D_k per
  part of a partition of n - m into parts >= 2.
Small ranks take the name the library gives them: B_1 = C_1 = A1, C_2 = B2,
D_2 = A1 + A1 and D_3 = A3.  Nothing here calls the library's search; only
SimpleType is shared, so that signatures compare.
"""

from charlattice.rootsys import SimpleType

_SMALL = {("B", 1): ("A1",), ("C", 1): ("A1",), ("C", 2): ("B2",),
          ("D", 2): ("A1", "A1"), ("D", 3): ("A3",)}


def partitions(n: int, least: int = 1):
    """The partitions of n into parts >= least, as non-decreasing tuples."""
    stack = [((), n)]
    while stack:
        parts, rest = stack.pop()
        if rest == 0:
            yield parts
            continue
        low = max(least, parts[-1] if parts else least)
        stack += [(parts + (k,), rest - k) for k in range(low, rest + 1)]


def _factor(family: str, k: int) -> list[SimpleType]:
    return [SimpleType.parse(name) for name in _SMALL.get((family, k), (f"{family}{k}",))]


def signatures(stype: SimpleType) -> list[tuple[SimpleType, ...]]:
    """The sorted component types of each equal-rank subsystem of a classical
    type, one entry per term of the closed form."""
    family, n = stype.family, stype.rank
    if family == "A":
        shapes = [[("A", n)]]
    elif family == "C":
        shapes = [[("C", k) for k in p] for p in partitions(n)]
    elif family == "D":
        shapes = [[("D", k) for k in p] for p in partitions(n, least=2)]
    elif family == "B":
        shapes = [[("B", m)] * (m > 0) + [("D", k) for k in p]
                  for m in range(n + 1) for p in partitions(n - m, least=2)]
    else:
        raise ValueError(f"no closed form for {stype}")
    return [tuple(sorted(t for f, k in shape for t in _factor(f, k))) for shape in shapes]
