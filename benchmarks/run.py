"""charlattice benchmark: paper replay, cold CLI queries, factorization sweeps.

Run from the root of a charlattice checkout (standard library only):

    python3 benchmarks/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every metric, every workload

Workloads (see README.md in this directory for why each exists):
  paper   the 30-case `verify-paper` battery in a fresh process, repeated
  query   a closed loop, one client, of single CLI queries, each its own process
  factor  in-process `factorizations` over seeded planted and perturbed products

With --trace 0 the last line of output holds the end-to-end metrics, with
--trace 1 the per-layer metrics from spans around each layer's functions.
Every answer is checked against oracle.py; failures are listed with their
input above the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT = 150
SETUP_SAMPLES = 9
MIN_SAMPLES = 100  # p90 needs ten samples beyond it

# The reference machine is shared, and its speed drifts by 10-30% over tens
# of seconds.  Each run therefore also times a fresh interpreter that
# imports only standard modules (no charlattice), a few times after every
# unit of work, and scales its end-to-end times by REFERENCE_CALIBRATION_S /
# (median calibration time of the run): what the run would have taken at
# the reference speed.  A change to charlattice leaves the calibration
# alone, so it shows in full.
CALIBRATION = "import argparse, dataclasses, fractions, functools, itertools, json, random"
CALIBRATION_SAMPLES = 5
REFERENCE_CALIBRATION_S = 0.080
# The in-process workload calibrates in process instead, after every
# operation, with a job of the same kind as the factorization search.
REFERENCE_IN_PROCESS_S = 0.0007


def in_process_sample() -> float:
    """Seconds for a fixed job of tuple-keyed dict updates, sorting and
    translated copies, like the sumset search but sharing no code with it."""
    start = perf_counter()
    counts: dict[tuple, int] = {}
    for i in range(300):
        key = (i % 7, (i * 13 % 41, i * 17 % 43))
        counts[key] = counts.get(key, 0) + 1
    items = sorted(counts.items())
    for d in range(6):
        moved = {(k[0], (k[1][0] + d, k[1][1])): m for k, m in items}
        all(k in counts for k in moved)
    return perf_counter() - start

# The CLI through its entry point charlattice.verifycli.cli:main; `-m` would
# warn on every call, and the console script need not be installed.
PLAIN = "import sys; from charlattice.verifycli.cli import main; sys.exit(main())"
HOOKED = ("import sys; sys.path.insert(0, {bench!r}); import spans; spans.begin({mode!r})\n"
          "from charlattice.verifycli.cli import main\n"
          "try:\n    code = main()\nfinally:\n    spans.end()\nsys.exit(code)")

PAPER_SUITE = (
    [("sl2k-selfdual", {"k": str(k)}) for k in range(5, 13)]
    + [("sl2k-selfdual-exclusions", {}), ("sl2k-nonselfdual-dims", {}), ("e6-parity", {})]
    + [("so-selfdual", {"m": str(m)}) for m in range(3, 10)]
    + [("so2m-conj-zero", {"m": str(m)}) for m in range(4, 8)]
    + [("g2-sl3-coincidence", {}),
       ("max-norm-bound", {"algebra": "A2", "hw": "1,1"}),
       ("max-norm-bound", {"algebra": "G2", "hw": "1,0"}),
       ("sym-power-rigidity", {"n": "3", "a": "2"}),
       ("sym-power-rigidity", {"n": "6", "a": "3"}),
       ("goursat", {"factors": "A1+A1+A2"}),
       ("goursat", {"factors": "A2+A2+A2"})]
)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (exclusive method), refused unless at least ten
    samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        raise ValueError(f"p{q} of {len(samples)} samples has fewer than 10 beyond it")
    return statistics.quantiles(samples, n=100)[q - 1]


class Run:
    """What one run measured: latencies, failures, spans, machine speed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_answer = False
        self.span_lists: list[list] = []
        self.unit_seconds: list[float] = []
        self.unit_medians: list[float] = []
        self._unit_start = 0
        self.calibration: list[float] = []
        self.in_process: list[float] = []
        self.peak_rss_mb = 0.0
        self.overhead_s = 0.0  # traced minus untraced time of one unit of work

    def op(self, seconds: float | None, kind: str, problem: str | None = None,
           what: str = "", wrong: bool = True) -> None:
        """One operation.  A failure is a wrong answer unless `wrong` is False
        (a crash, a traceback, an unexpected exit code); either way it counts
        as failed.  `seconds` is None for an operation that never ran."""
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
            self.by_kind.setdefault(kind, []).append(seconds)
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            self.wrong_answer |= wrong

    def end_unit(self, seconds: float) -> None:
        """Close a block (a battery for paper): keep its time and the median
        of its operations, then take calibration samples."""
        ops = self.latencies[self._unit_start:]
        self._unit_start = len(self.latencies)
        self.unit_seconds.append(seconds)
        if ops:
            self.unit_medians.append(statistics.median(ops))
        self.calibrate()

    def calibrate(self, samples: int = CALIBRATION_SAMPLES) -> None:
        for _ in range(samples):
            seconds, code, _, err = child([], CALIBRATION)
            if code != 0:
                raise RuntimeError(f"calibration interpreter failed: {err.strip()}")
            self.calibration.append(seconds)

    def speed_scale(self) -> float:
        """Factor that turns this run's times into reference-speed times."""
        if self.in_process:
            return REFERENCE_IN_PROCESS_S / statistics.median(self.in_process)
        return REFERENCE_CALIBRATION_S / statistics.median(self.calibration)


def child(args: list[str], code: str, env_extra: dict | None = None):
    """Run one fresh interpreter; seconds from spawn to exit, exit code, output."""
    env = dict(os.environ, PYTHONPATH=SRC, **(env_extra or {}))
    start = perf_counter()
    try:
        p = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, None, "", f"timed out after {CHILD_TIMEOUT} s"
    return perf_counter() - start, p.returncode, p.stdout, p.stderr


def measure_setup(run: Run) -> float:
    """Time from interpreter start to `import charlattice` done, at the
    reference speed: the median over fresh processes of each import's time
    over the calibration interpreter's right after it.  One unmeasured
    import first writes the bytecode cache."""
    child([], "import charlattice")
    ratios = []
    for _ in range(SETUP_SAMPLES):
        seconds, code, _, err = child([], "import charlattice")
        if code != 0:
            raise RuntimeError(f"import charlattice failed: {err.strip()}")
        run.calibrate(1)
        ratios.append(seconds / run.calibration[-1])
    return statistics.median(ratios) * REFERENCE_CALIBRATION_S


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# -- paper ---------------------------------------------------------------------

def paper_suite(seed: int) -> list[tuple[str, dict]]:
    return PAPER_SUITE + [("factorization-bound", {"a": "2", "b": "3", "seed": str(seed)})]


def check_battery(suite, code, out: str, err: str) -> tuple[str | None, list]:
    """A problem with the battery as a whole (crash, wrong case list), and
    the verdict of each case."""
    if code is None or "Traceback" in err:
        return (err.strip().splitlines()[-1] if err.strip() else f"exit {code}"), []
    try:
        doc = json.loads(out)
        got = [(c["case"], c["inputs"]) for c in doc["cases"]]
        verdicts = [c["verdict"] == "pass" for c in doc["cases"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({exc!r})", []
    if got != suite:
        return f"battery ran {got}, expected the 30 paper cases", []
    if code != (0 if all(verdicts) else 1):
        return f"exit {code}", verdicts
    return None, verdicts


def paper_battery(run: Run, seed: int, mode: str, index: int, outputs: set) -> float:
    """One verify-paper run in a fresh process, one operation per case.
    Returns the battery's wall time after import (the CLI entry's span)."""
    path = os.path.join(WORK, f"paper{index}.json")
    args = ["--format", "structured", "--seed", str(seed), "verify-paper"]
    _, code, out, err = child(args, HOOKED.format(bench=BENCH, mode=mode),
                              {"BENCH_SPANS": path, "BENCH_REQUEST": str(index)})
    battery = spans.load(path) if os.path.exists(path) else []
    suite = paper_suite(seed)
    problem, verdicts = check_battery(suite, code, out, err)
    outputs.add(out)
    if problem is None and len(outputs) > 1:
        problem = "structured output differs between identical runs"
    cases = [s[2] - s[1] for s in battery if s[0] == "verifycli.run_case"]
    crash = code is None or "Traceback" in err or (problem or "").startswith("exit")
    for i, (case_id, inputs) in enumerate(suite):
        what = f"paper battery {index} case {case_id} {inputs} (seed {seed})"
        seconds = cases[i] if i < len(cases) else None
        case_problem = problem or (None if verdicts[i] else "verdict fail")
        run.op(seconds, case_id, case_problem, what, wrong=not crash)
    if mode == "trace":
        run.span_lists.append(battery)
    return sum(s[2] - s[1] for s in battery if s[0] == "verifycli.main")


def run_paper(run: Run, seed: int, seconds: float, trace: bool) -> None:
    if trace:
        untraced = paper_battery(Run("paper"), seed, "cases", -1, set())
    start = perf_counter()
    outputs: set = set()
    while perf_counter() - start < seconds or len(run.latencies) < MIN_SAMPLES:
        run.end_unit(paper_battery(run, seed, "trace" if trace else "cases",
                                   len(run.unit_seconds), outputs))
    if trace:
        run.overhead_s = statistics.median(run.unit_seconds) - untraced
    run.peak_rss_mb = rss_mb(resource.RUSAGE_CHILDREN)


# -- query ---------------------------------------------------------------------

def query_once(q: gen.Query, trace: bool, request: int):
    for name, text in q.files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    args = ["--format", "structured", *q.argv]
    if not trace:
        seconds, code, out, err = child(args, PLAIN)
        return seconds, code, out, err, None
    path = os.path.join(WORK, f"q{request}.json")
    seconds, code, out, err = child(args, HOOKED.format(bench=BENCH, mode="trace"),
                                    {"BENCH_SPANS": path, "BENCH_REQUEST": str(request)})
    return seconds, code, out, err, spans.load(path) if os.path.exists(path) else []


def query_block(run: Run, seed: int, block: int, trace: bool) -> float:
    """One block of CLI queries in sequence; returns their summed time."""
    total = 0.0
    for i, q in enumerate(gen.query_block(seed, block, WORK)):
        request = block * gen.QUERY_BLOCK + i
        seconds, code, out, err, trace_spans = query_once(q, trace, request)
        total += seconds
        if code is None:
            problem = err
        else:
            try:
                problem = oracle.check_query(q.kind, q.expect, code, out, err)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable answer ({exc!r})"
        crash = code is None or "Traceback" in err or (problem or "").startswith("exit")
        run.op(seconds, q.kind, problem, f"query {' '.join(q.argv)} (seed {seed})",
               wrong=not crash)
        if trace_spans is not None:
            run.span_lists.append(trace_spans)
    return total


def run_query(run: Run, seed: int, seconds: float, trace: bool) -> None:
    if trace:
        untraced = query_block(Run("query"), seed, 0, False)
    start = perf_counter()
    while perf_counter() - start < seconds or len(run.latencies) < MIN_SAMPLES:
        run.end_unit(query_block(run, seed, len(run.unit_seconds), trace))
    if trace:
        run.overhead_s = run.unit_seconds[0] - untraced
    run.peak_rss_mb = rss_mb(resource.RUSAGE_CHILDREN)


# -- factor --------------------------------------------------------------------

def factor_block(run: Run, seed: int, block: int, tracer: spans.Tracer | None) -> float:
    """One sweep of factorization instances; returns the summed call time.
    The oracle runs outside the timed span."""
    from charlattice import abmultiset as ab

    total = 0.0
    for i, case in enumerate(gen.factor_block(seed, block)):
        mset = ab.GroupMultiset.from_counts(ab.AbGroup(case.torsion, case.free_rank),
                                            case.product)
        kind = f"{case.kind} {'x'.join(map(str, case.shape))}"
        what = (f"factorizations {case.kind} {case.shape} torsion {case.torsion} "
                f"(seed {seed} block {block})")
        if tracer is not None:
            tracer.request = block * 1000 + i
        t0 = perf_counter()
        try:
            decs = ab.factorizations(mset, case.shape)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            run.op(perf_counter() - t0, kind, repr(exc), what, wrong=False)
            continue
        elapsed = perf_counter() - t0
        total += elapsed
        run.in_process.append(in_process_sample())
        found = [[dict(f.elems) for f in d.factors] for d in decs]
        run.op(elapsed, kind,
               oracle.check_factorizations(case.torsion, case.product, case.shape,
                                           found, case.planted), what)
    return total


def run_factor(run: Run, seed: int, seconds: float, trace: bool) -> None:
    sys.path.insert(0, SRC)
    tracer = spans.Tracer()
    if trace:
        untraced = factor_block(Run("factor"), seed, 0, None)
        spans.install(tracer)
    start = perf_counter()
    while perf_counter() - start < seconds or len(run.latencies) < MIN_SAMPLES:
        run.end_unit(factor_block(run, seed, len(run.unit_seconds),
                                  tracer if trace else None))
    if trace:
        run.span_lists.append(tracer.spans)
        run.overhead_s = run.unit_seconds[0] - untraced
    run.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)


# -- reporting -----------------------------------------------------------------

WORKLOADS = {"paper": run_paper, "query": run_query, "factor": run_factor}


def environment(seed: int, workload: str, trace: bool) -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "charlattice"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def end_to_end(run: Run, setup: float) -> dict[str, tuple[float, str]]:
    """The user-facing metrics, times at the reference speed.

    The median is taken over blocks of each block's median operation: a
    block has a fixed composition, and in a `paper` battery the middle falls
    between two millisecond cases, where the pooled median would follow the
    single slowest sample of the cheaper one."""
    lat = run.latencies
    scale = run.speed_scale()
    return {
        "setup_s": (setup, "s"),
        "op_p50_ms": (statistics.median(run.unit_medians) * 1000 * scale, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1000 * scale, "ms"),
        "ops_per_s": (len(lat) / sum(lat) / scale, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


# The names the issue tracker uses for the same numbers, per workload.
ALIASES = {
    "paper": {"op_p50_ms": "case_p50_ms", "op_p90_ms": "case_p90_ms",
              "ops_per_s": "cases_per_s"},
    "query": {"op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms",
              "ops_per_s": "queries_per_s"},
    "factor": {"op_p50_ms": "factor_p50_ms", "op_p90_ms": "factor_p90_ms",
               "ops_per_s": "factor_per_s"},
}


def report(run: Run, metrics: dict, env: dict) -> dict:
    """Print the run in readable form and return the result object."""
    print("# " + json.dumps(env, sort_keys=True))
    for line in run.failures:
        print("FAIL " + line)
    failed = len(run.failures)
    shown = dict(metrics)
    if not env["trace"]:
        for name, alias in ALIASES[run.workload].items():
            shown[alias] = metrics[name]
        if run.workload == "paper":
            shown["paper_s"] = (statistics.median(run.unit_seconds) * run.speed_scale(), "s")
        shown["fail_frac"] = (failed / run.attempted, "ratio")
    for name, (value, unit) in shown.items():
        print(f"{run.workload:7s} {name:48s} {value:14.6g} {unit}")
    print(f"{run.workload:7s} {'operations':48s} {run.attempted:14d} attempted, "
          f"{failed} failed, {len(run.unit_seconds)} blocks")
    samples, reference = ((run.in_process, REFERENCE_IN_PROCESS_S) if run.in_process
                          else (run.calibration, REFERENCE_CALIBRATION_S))
    print(f"# speed: calibration median {statistics.median(samples) * 1000:.3f} ms over "
          f"{len(samples)} (reference {reference * 1000:.3f} ms); "
          f"end-to-end times scaled by {run.speed_scale():.4f}; unscaled below")
    for kind, times in sorted(run.by_kind.items()):
        print(f"# {kind:24s} n={len(times):4d} median {statistics.median(times) * 1000:10.2f} ms"
              f"  max {max(times) * 1000:10.2f} ms")
    return {"correct": not run.wrong_answer, "attempted": run.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    run = Run(name)
    setup = measure_setup(run)
    WORKLOADS[name](run, seed, seconds, trace)
    if trace:
        metrics = spans.layer_metrics(run.span_lists)
        metrics["trace.overhead_s"] = (run.overhead_s, "s")
    else:
        metrics = end_to_end(run, setup)
    return report(run, metrics, environment(seed, name, trace))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "charlattice", "__init__.py")):
        print(f"error: no charlattice sources under {SRC}; run from the root of "
              "a charlattice checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
