"""The benchmark keeps working against the library.

benchmarks/spans.py lists the traced functions in LAYERS as (module,
attribute) pairs and looks each one up with getattr in every traced run, so a
renamed or deleted name would crash `benchmarks/run.py --trace 1` without
failing any other test.  The benchmark's own unittest suite is run here too,
since pytest does not collect it.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmarks" / "spans.py"


def load_spans() -> types.ModuleType:
    """Run spans.py from its source, so no bytecode is written next to it."""
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    layers = load_spans().LAYERS
    assert layers
    missing = []
    for modname, attrs in layers.values():
        for attr in attrs:
            owner_name, _, fname = f"{modname}.{attr}".rpartition(".")
            owner = importlib.import_module(owner_name)
            if not callable(getattr(owner, fname, None)):
                missing.append(f"{owner_name}.{fname}")
    assert missing == []


TRACED = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import spans
tracer = spans.Tracer()
spans.install(tracer)
from charlattice.verifycli.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["samechar", sys.argv[2], sys.argv[2]])
    main(["factorize", sys.argv[3], "--profile", "2,3"])
    main(["subsystems", "B3"])
    main(["multfree", "A3", "--max-dim", "20"])
print(" ".join(sorted({span[0] for span in tracer.spans})))
"""


def test_traced_commands_record_their_layers(tmp_path):
    """Names a command imports when it runs still resolve to the wrappers
    spans.install put on their home modules, also where LAYERS names a
    function under the module it moved out of (rootsys.equal_rank_subsystems
    lives in subsystems, reps.multiplicity_free_catalog in catalog)."""
    char = tmp_path / "a1.char"
    char.write_text("algebra: A1\nweights:\n-1 1\n1 1\n", encoding="utf-8")
    grid = tmp_path / "grid.mset"
    grid.write_text("".join(f"{x} {y}\n" for x in range(2) for y in range(3)),
                    encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED, str(SPANS.parent), str(char), str(grid)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {"verifycli.main", "verifycli.read_character_file",
            "charmatch.same_formal_character",
            "abmultiset.factorizations", "rootsys.equal_rank_subsystems",
            "reps.multiplicity_free_catalog"} <= set(proc.stdout.split())


def test_benchmark_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "discover", "-s", "benchmarks"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
