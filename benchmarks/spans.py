"""Spans around charlattice's layer functions, installed from outside.

The library is not edited: `install` replaces each listed function with a
wrapper in its home module *and* in every charlattice module that bound the
same object with `from .x import y`, so calls between layers are traced too.
Spans stay in memory and are written out once, when the process ends.

A span is `[name, start, end, parent, request, seen, outcome]`: `parent` is
the index of the enclosing span or -1, `request` the id of the operation the
benchmark issued, `seen` whether the same arguments were passed before in
this process (for `TRACK_REPEATS`, else None) and `outcome` a value read off
the result (for `OUTCOMES`, else None).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

# Wrapped functions per layer.  Hot helpers (linalg.dot, reflect_coords, ...)
# are left out on purpose: a span costs about a microsecond, and wrapping
# them would measure the wrapper instead of the library.
LAYERS = {
    "rootsys": ("charlattice.rootsys", (
        "build_root_system", "equal_rank_subsystems", "type_a_equal_rank",
        "weyl_orbit", "diagram_automorphisms")),
    "reps": ("charlattice.reps", (
        "weyl_dimension", "weight_multiset", "irreducible_character",
        "enumerate_irreps_up_to_dim", "multiplicity_free_catalog",
        "restrict_to_subsystem", "dual_highest_weight", "direct_sum")),
    "charmatch": ("charlattice.charmatch", (
        "same_formal_character", "max_norm_weights", "conjugation_sums",
        "char_inner_product", "alt_power_stats", "fixed_point_exists")),
    "linalg": ("charlattice.linalg", (
        "rank", "invert", "solve_columns", "extend_to_basis")),
    "abmultiset": ("charlattice.abmultiset", (
        "factorizations", "multiset_product")),
    "goursat": ("charlattice.goursat", ("verify_goursat_lemma",)),
    "verifycli": ("charlattice.verifycli", (
        "cli.main", "charfile.read_character_file", "cases.run_case")),
}

# Functions whose calls record whether their arguments were seen before in
# this process (the share that a cache could serve).
TRACK_REPEATS = {"rootsys.build_root_system", "reps.weight_multiset"}


def _profile_order(args) -> int:
    profile = args[1]
    return (profile[0] > profile[-1]) - (profile[0] < profile[-1])


# name -> function(args, result) giving the span's outcome.
OUTCOMES = {
    "reps.weight_multiset": lambda args, res: len(res.weights),
    "charmatch.same_formal_character": lambda args, res: int(res is not None),
    "abmultiset.factorizations":
        lambda args, res: [int(bool(res)), _profile_order(args)],
}


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Collects spans for one process."""

    def __init__(self, request: int = 0) -> None:
        self.spans: list[list] = []
        self.request = request
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        outcome = OUTCOMES.get(name)
        seen = self._seen.setdefault(name, set()) if name in TRACK_REPEATS else None

        def traced(*args, **kwargs):
            repeat = None
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                repeat = int(key in seen)
                seen.add(key)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                   repeat, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if outcome is not None:
                rec[6] = outcome(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer, only: set[str] | None = None) -> None:
    """Wrap the layer functions (or the names in `only`) and rebind every
    charlattice module attribute that refers to an original."""
    import charlattice  # noqa: F401  (loads every submodule)

    replaced: dict[int, object] = {}
    for layer, (modname, attrs) in LAYERS.items():
        for attr in attrs:
            name = span_name(layer, attr)
            if only is not None and name not in only:
                continue
            owner_name, _, fname = f"{modname}.{attr}".rpartition(".")
            owner = importlib.import_module(owner_name)
            original = getattr(owner, fname)
            replaced[id(original)] = tracer.wrap(name, original)
    for modname, module in list(sys.modules.items()):
        if modname != "charlattice" and not modname.startswith("charlattice."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- child processes ---------------------------------------------------------

_child: Tracer | None = None


def begin(mode: str) -> None:
    """Install spans in a CLI child: mode 'trace' wraps every layer function,
    mode 'cases' only the CLI entry and run_case (timing, no layer detail)."""
    global _child
    _child = Tracer(int(os.environ.get("BENCH_REQUEST", "0")))
    install(_child, None if mode == "trace" else {"verifycli.main", "verifycli.run_case"})


def end() -> None:
    """Write the child's spans to $BENCH_SPANS."""
    if _child is not None:
        _child.dump(os.environ["BENCH_SPANS"])


# -- per-layer metrics -------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[2] - span[1] for span in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(span_lists) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and ratios over the spans of one run.

    Every metric is present even when its function was never called (count
    and time 0, ratio 0), so that a workload that bypasses a layer says so.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    repeats: dict[str, int] = {}
    outcomes: dict[str, list] = {}
    n_spans = 0
    for spans in span_lists:
        n_spans += len(spans)
        for span, own in zip(spans, self_times(spans)):
            name, repeat, outcome = span[0], span[5], span[6]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + own
            if repeat is not None:
                repeats[name] = repeats.get(name, 0) + repeat
            if outcome is not None:
                outcomes.setdefault(name, []).append((outcome, own))

    def repeat_ratio(name: str) -> float:
        return _ratio(repeats.get(name, 0), calls.get(name, 0))

    def outcome_ratio(name: str, pick=lambda o: o) -> float:
        items = outcomes.get(name, [])
        return _ratio(sum(pick(o) for o, _ in items), len(items))

    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (value, unit)

    def fn(name: str, *what: str) -> None:
        for w in what:
            if w == "calls":
                put(f"{name}.calls", calls.get(name, 0), "count")
            else:
                put(f"{name}.self_s", busy.get(name, 0.0), "s")

    fn("rootsys.build_root_system", "calls", "self_s")
    put("rootsys.build_root_system.repeat_ratio",
        repeat_ratio("rootsys.build_root_system"), "ratio")
    fn("rootsys.equal_rank_subsystems", "self_s")
    fn("rootsys.weyl_orbit", "self_s")
    fn("reps.weyl_dimension", "calls", "self_s")
    fn("reps.weight_multiset", "calls", "self_s")
    wm = "reps.weight_multiset"
    put(f"{wm}.weights_out", sum(o for o, _ in outcomes.get(wm, [])), "count")
    put(f"{wm}.repeat_ratio", repeat_ratio(wm), "ratio")
    fn("reps.enumerate_irreps_up_to_dim", "calls", "self_s")
    fn("charmatch.same_formal_character", "calls", "self_s")
    put("charmatch.same_formal_character.match_ratio",
        outcome_ratio("charmatch.same_formal_character"), "ratio")
    fn("charmatch.max_norm_weights", "self_s")
    fn("charmatch.conjugation_sums", "self_s")
    for f in ("rank", "invert", "solve_columns", "extend_to_basis"):
        fn(f"linalg.{f}", "calls", "self_s")
    fz = "abmultiset.factorizations"
    fn(fz, "calls", "self_s")
    put(f"{fz}.found_ratio", outcome_ratio(fz, lambda o: o[0]), "ratio")
    put(f"{fz}.asc_self_s",
        sum(own for o, own in outcomes.get(fz, []) if o[1] < 0), "s")
    put(f"{fz}.desc_self_s",
        sum(own for o, own in outcomes.get(fz, []) if o[1] > 0), "s")
    fn("abmultiset.multiset_product", "self_s")
    fn("goursat.verify_goursat_lemma", "calls", "self_s")
    for f in ("main", "read_character_file", "run_case"):
        fn(f"verifycli.{f}", "self_s")

    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, own in busy.items():
        per_layer[name.split(".", 1)[0]] += own
    total = sum(per_layer.values())
    for layer, own in per_layer.items():
        put(f"{layer}.self_s", own, "s")
        put(f"{layer}.self_share", _ratio(own, total), "ratio")
    put("trace.spans", n_spans, "count")
    return m
