"""Self-tests for the benchmark's own parts: oracles on hand values, seeded
generators, the percentile rule, span bookkeeping and the span installation.

    python3 -m unittest discover -s benchmarks      # from the repository root
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SRC = os.path.join(os.path.dirname(BENCH), "src")


def det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


class OracleHandValues(unittest.TestCase):
    def test_type_a_dimensions(self):
        self.assertEqual(oracle.dim("A2", (1, 1)), 8)
        self.assertEqual(oracle.dim("A5", (0, 0, 1, 0, 0)), 20)
        self.assertEqual(oracle.dim("A7", (0, 0, 0, 1, 0, 0, 0)), 70)
        self.assertEqual(oracle.dim("A1", (26,)), 27)
        self.assertEqual(oracle.dim("A3", (2, 0, 0)), 10)

    def test_rank_two_and_tabulated_dimensions(self):
        self.assertEqual([oracle.dim("B2", c) for c in ((1, 0), (0, 1), (1, 1))], [5, 4, 16])
        self.assertEqual([oracle.dim("G2", c) for c in ((1, 0), (0, 1), (1, 1))], [7, 14, 64])
        self.assertEqual(oracle.dim("B3", (0, 0, 1)), 8)
        self.assertEqual(oracle.dim("C3", (0, 0, 1)), 14)
        self.assertEqual(oracle.dim("C4", (0, 1, 0, 0)), 27)
        self.assertEqual(oracle.dim("D5", (0, 1, 0, 0, 0)), 45)
        self.assertEqual(oracle.dim("D5", (0, 0, 0, 0, 1)), 16)
        self.assertEqual(oracle.dim("E6", (1, 0, 0, 0, 0, 0)), 27)
        self.assertEqual(oracle.dim("E7", (0,) * 6 + (1,)), 56)
        self.assertEqual(oracle.dim("E8", (0,) * 7 + (1,)), 248)
        self.assertIsNone(oracle.dim("B3", (1, 1, 0)))

    def test_cartan_matrices(self):
        self.assertEqual(oracle.cartan("B3"), ((2, -1, 0), (-1, 2, -2), (0, -1, 2)))
        self.assertEqual(oracle.cartan("C3"), ((2, -1, 0), (-1, 2, -1), (0, -2, 2)))
        self.assertEqual(oracle.cartan("D4"), ((2, -1, 0, 0), (-1, 2, -1, -1),
                                               (0, -1, 2, 0), (0, -1, 0, 2)))

    def test_reflection_invariance(self):
        adjoint = {(2, -1): 1, (-1, 2): 1, (1, 1): 1, (-2, 1): 1, (1, -2): 1,
                   (-1, -1): 1, (0, 0): 2}
        self.assertTrue(oracle.reflection_invariant("A2", adjoint))
        del adjoint[(1, 1)]
        self.assertFalse(oracle.reflection_invariant("A2", adjoint))
        self.assertEqual(oracle.weights_a1(2), {(2,): 1, (0,): 1, (-2,): 1})

    def test_line_profile_and_matrix_image(self):
        w = {(1, 0): 1, (2, 0): 1, (0, -1): 2, (0, 0): 1}
        self.assertEqual(oracle.line_profile(w), (1, ((1, 2), (2, 2))))
        self.assertEqual(oracle.apply_matrix([[0, 1], [1, 0]], {(1, 2): 3}), {(2, 1): 3})

    def test_sumsets_and_translation_classes(self):
        a = {(0, (0,)): 1, (0, (1,)): 1}
        b = {(0, (0,)): 1, (0, (10,)): 1}
        product = oracle.sumset(1, a, b)
        self.assertEqual(sorted(e[1][0] for e in product), [0, 1, 10, 11])
        shifted = {(0, (5,)): 1, (0, (15,)): 1}
        self.assertEqual(oracle.decomposition_class(1, [a, shifted]),
                         oracle.decomposition_class(1, [b, a]))
        self.assertEqual(oracle.sumset(3, {(2, ()): 1}, {(2, ()): 1}), {(1, ()): 1})
        self.assertIsNone(oracle.check_factorizations(1, product, (2, 2), [[a, b]], [a, b]))
        self.assertIn("missing", oracle.check_factorizations(1, product, (2, 2), [], [a, b]))
        self.assertIn("multiply", oracle.check_factorizations(1, product, (2, 2), [[a, a]]))

    def test_cli_answers(self):
        check = oracle.check_query
        self.assertIsNone(check("dim.light", {"algebra": "A2", "coords": (1, 1)}, 0,
                                json.dumps({"dim": 8}), ""))
        self.assertIn("expected 8", check("dim.light", {"algebra": "A2", "coords": (1, 1)},
                                          0, json.dumps({"dim": 9}), ""))
        self.assertIsNone(check("malformed", {}, 2, "", "error: bad\n"))
        self.assertIsNotNone(check("malformed", {}, 2, "", "Traceback (most recent call)\nX\n"))
        refused = {"algebra": "A2", "coords": (1, 1), "bound": 3}
        self.assertIsNone(check("weights.over_bound", refused, 2, "", "error: too big\n"))
        self.assertIn("traceback", check("weights.over_bound", refused, 1, "",
                                         "Traceback (most recent call last):\nE: big\n"))
        self.assertIsNone(check("allowed-pairs", {"n": 28}, 1, json.dumps({"pairs": []}), ""))
        self.assertIsNotNone(check("allowed-pairs", {"n": 28}, 0, json.dumps({"pairs": []}), ""))


class Generators(unittest.TestCase):
    def test_query_blocks_repeat_for_a_seed(self):
        one = gen.query_block(7, 2, "W")
        two = gen.query_block(7, 2, "W")
        self.assertEqual([(q.kind, q.argv, q.files) for q in one],
                         [(q.kind, q.argv, q.files) for q in two])
        other = gen.query_block(8, 2, "W")
        self.assertNotEqual([q.argv for q in one], [q.argv for q in other])

    def test_query_blocks_share_one_composition(self):
        def composition(block):
            return sorted("heavy" if q.kind.endswith(".heavy") else q.kind for q in block)
        blocks = [gen.query_block(s, b, "W") for s in (1, 2) for b in range(5)]
        self.assertTrue(all(len(b) == gen.QUERY_BLOCK for b in blocks))
        self.assertEqual(len({tuple(composition(b)) for b in blocks}), 1)
        self.assertEqual(composition(blocks[0]).count("weights.over_bound"), 1)
        heavy = {tuple(q.argv[:2]) for b in blocks[:5] for q in b
                 if q.kind.endswith(".heavy")}
        self.assertEqual(len(heavy), 5)  # five blocks deal out the five strata

    def test_factor_blocks_repeat_and_are_generic(self):
        one = gen.factor_block(3, 1)
        self.assertEqual([(c.shape, c.product) for c in one],
                         [(c.shape, c.product) for c in gen.factor_block(3, 1)])
        self.assertEqual(sorted(c.shape for c in one),
                         sorted(gen.TWO_FACTOR + gen.THREE_FACTOR + gen.PERTURBED))
        for c in one:
            size = 1
            for s in c.shape:
                size *= s
            self.assertEqual(sum(c.product.values()), size)
            if c.planted is not None:
                self.assertEqual(oracle.sumset(c.torsion, *c.planted), c.product)
                self.assertEqual(len(c.product), size)

    def test_character_pairs(self):
        self.assertEqual(sum(gen.alt_power(4, 2).values()), 10)
        self.assertEqual(sum(gen.sym_square(2).values()), 6)
        self.assertEqual(gen.alt_power(1, 1), {(1,): 1, (-1,): 1})
        rng = gen.rng_for("t")
        for r in (1, 3, 5):
            self.assertIn(det(gen.unimodular(rng, r)), (1, -1))
        src = gen.alt_power(4, 2)
        moved = gen.perturbed(rng, src)
        self.assertEqual(sum(moved.values()), sum(src.values()))
        self.assertNotEqual(oracle.line_profile(moved), oracle.line_profile(src))


class Percentiles(unittest.TestCase):
    def test_ten_samples_beyond(self):
        data = [float(x) for x in range(1, 101)]
        self.assertAlmostEqual(run.percentile(data, 90), 90.9)
        self.assertEqual(run.percentile(data[:20], 50), 10.5)
        with self.assertRaises(ValueError):
            run.percentile(data[:99], 90)
        with self.assertRaises(ValueError):
            run.percentile(data[:19], 50)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        s = [["a.f", 0.0, 10.0, -1, 0, None, None],
             ["b.g", 1.0, 4.0, 0, 0, None, None],
             ["b.g", 5.0, 6.0, 0, 0, None, None],
             ["c.h", 2.0, 3.0, 1, 0, None, None]]
        self.assertEqual(spans.self_times(s), [6.0, 2.0, 1.0, 1.0])

    def test_layer_metrics_ratios(self):
        s = [["abmultiset.factorizations", 0.0, 2.0, -1, 0, None, [1, -1]],
             ["abmultiset.factorizations", 2.0, 3.0, -1, 1, None, [0, 1]],
             ["rootsys.build_root_system", 3.0, 3.5, -1, 2, 0, None],
             ["rootsys.build_root_system", 3.5, 3.75, -1, 2, 1, None]]
        m = spans.layer_metrics([s])
        self.assertEqual(m["abmultiset.factorizations.calls"], (2, "count"))
        self.assertEqual(m["abmultiset.factorizations.found_ratio"], (0.5, "ratio"))
        self.assertEqual(m["abmultiset.factorizations.asc_self_s"], (2.0, "s"))
        self.assertEqual(m["abmultiset.factorizations.desc_self_s"], (1.0, "s"))
        self.assertEqual(m["rootsys.build_root_system.repeat_ratio"], (0.5, "ratio"))
        self.assertEqual(m["abmultiset.self_share"], (0.8, "ratio"))
        self.assertEqual(m["goursat.verify_goursat_lemma.calls"], (0, "count"))

    def test_cli_child_traces_calls_between_layers(self):
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            path = os.path.join(tmp, "spans.json")
            env = dict(os.environ, PYTHONPATH=SRC, BENCH_SPANS=path, BENCH_REQUEST="4")
            code = run.HOOKED.format(bench=BENCH, mode="trace")
            p = subprocess.run([sys.executable, "-c", code, "--format", "structured",
                                "weights", "A2", "1,1"], env=env, capture_output=True,
                               text=True, timeout=120)
            self.assertEqual(p.returncode, 0, p.stderr)
            got = spans.load(path)
        names = [s[0] for s in got]
        # cli -> reps.irreducible_character -> reps.weight_multiset ->
        # reps.weyl_dimension -> rootsys.build_root_system: each name bound by
        # `from .x import y` is rebound, so the nested calls are all traced.
        for name in ("verifycli.main", "reps.irreducible_character",
                     "reps.weight_multiset", "reps.weyl_dimension",
                     "rootsys.build_root_system"):
            self.assertIn(name, names)
        self.assertTrue(all(s[4] == 4 for s in got))
        self.assertEqual(got[0][3], -1)
        self.assertTrue(all(0 <= s[3] < i for i, s in enumerate(got) if i))


if __name__ == "__main__":
    unittest.main()
