"""The benchmark keeps working against the library.

benchmarks/spans.py lists the traced functions in LAYERS as (module,
attribute) pairs and looks each one up with getattr in every traced run, so a
renamed or deleted name would crash `benchmarks/run.py --trace 1` without
failing any other test.  The benchmark's own unittest suite is run here too,
since pytest does not collect it.
"""

import importlib
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


def test_benchmark_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "discover", "-s", "benchmarks"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
