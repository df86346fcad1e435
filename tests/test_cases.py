"""Helpers of the verification cases against their unpruned references."""

import pytest

from charlattice.reps import SemisimpleAlgebra, enumerate_irreps_up_to_dim
from charlattice.rootsys import SimpleType
from charlattice.verifycli.cases import _faithful_sums, _partitions


def reference_faithful_sums(alg, total):
    """The case's recursion without its early exit: every irreducible, in
    dimension order, is offered remaining // d copies down to 0, however large
    d is.  It is tabulated bottom-up: suffixes[r] lists, in the recursion's
    depth-first order, the choices from irreducible i on that use up r
    (unmemoized, A1^6 at total 12 takes about 10 s)."""
    irreps = enumerate_irreps_up_to_dim(alg, total)
    k = len(alg.factors)
    suffixes = [((),)] + [()] * total  # past the last irreducible
    for hw, d in reversed(irreps):
        suffixes = [tuple(((hw, d),) * copies + tail
                          for copies in range(r // d, -1, -1)
                          for tail in suffixes[r - copies * d])
                    for r in range(total + 1)]
    return [s for s in suffixes[total]
            if len({j for hw, _ in s for j in range(k) if any(hw.by_factor[j])}) == k]


@pytest.mark.parametrize("m", range(3, 13))
def test_faithful_sums_match_unpruned_recursion(m):
    # _faithful_sums takes any total; the case's m <= 9 cap does not apply here
    for part in _partitions(m // 2):
        alg = SemisimpleAlgebra(tuple(SimpleType("A", p) for p in part))
        irreps = enumerate_irreps_up_to_dim(alg, m)
        assert _faithful_sums(alg, irreps, m) == reference_faithful_sums(alg, m)
