"""What a cold CLI query imports.

A single query runs in a fresh interpreter, and its time is mostly import
time.  `dataclasses` pulls in `inspect` (about 12 ms together), `fractions`
about 4 ms more, `json` about 3 ms and `charlattice.linalg` about 3 ms, so
none of them is on the path of a query that does not need it.  Each check
compares against a bare interpreter's modules, so a module that `site`
already loads does not count against the library.

A query that finds no bytecode also compiles every module it loads, so each
command loads only its own code: the subsystem search (`subsystems`), the
catalog and the enumeration (`catalog`) and the other commands' handlers
(`verifycli.commands`) are off the path of a dim or weights query.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The module names go to stderr, one a line, so that the probe itself loads
# nothing and a command run in stmt keeps stdout to itself.
LOADED = "import sys{stmt}; print(*sorted(sys.modules), sep='\\n', file=sys.stderr)"


QUERY = 'from charlattice.verifycli.cli import main; assert main({argv!r}) == 0'
DIM_QUERY = QUERY.format(argv=["dim", "E8", "w1"])
WEIGHTS_QUERY = QUERY.format(argv=["weights", "A2", "1,1"])


@functools.cache
def modules_after(stmt: str) -> frozenset[str]:
    """The modules in sys.modules of a fresh interpreter after stmt."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(stmt=f"; {stmt}" if stmt else "")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stderr.split())


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    bare = modules_after("")
    cli = modules_after("from charlattice.verifycli.cli import main")
    assert "charlattice.verifycli.cli" in cli
    assert {"dataclasses", "inspect", "fractions"} & (cli - bare) == set()


def test_text_query_loads_no_json():
    bare = modules_after("")
    query = modules_after(DIM_QUERY)
    assert "charlattice.reps" in query
    assert "json" not in query - bare


def test_dim_query_loads_no_linear_algebra():
    query = modules_after(DIM_QUERY)
    assert "charlattice.rootsys" in query
    assert "charlattice.linalg" not in query


def test_dim_and_weights_queries_compile_only_their_own_code():
    for stmt in (DIM_QUERY, WEIGHTS_QUERY):
        query = modules_after(stmt)
        assert {"charlattice.rootsys", "charlattice.reps"} <= query
        assert {"charlattice.subsystems", "charlattice.catalog",
                "charlattice.verifycli.commands"} & query == set()


def test_factorize_query_loads_no_root_datum(tmp_path):
    grid = tmp_path / "grid.mset"
    grid.write_text("".join(f"{x} {y}\n" for x in range(2) for y in range(3)),
                    encoding="utf-8")
    query = modules_after(QUERY.format(argv=["factorize", str(grid), "--profile", "2,3"]))
    assert {"charlattice.abmultiset", "charlattice.verifycli.commands"} <= query
    assert {"charlattice.rootsys", "charlattice.reps"} & query == set()


def test_allowed_pairs_query_loads_no_verification_case():
    query = modules_after(QUERY.format(argv=["allowed-pairs", "27"]))
    assert "charlattice.catalog" in query
    assert {"charlattice.verifycli.cases", "charlattice.charmatch", "charlattice.linalg",
            "charlattice.abmultiset", "charlattice.goursat"} & query == set()


def test_every_module_loads_without_dataclasses():
    bare = modules_after("")
    everything = modules_after("import charlattice.verifycli.cases")
    assert {"charlattice.charmatch", "charlattice.goursat"} <= everything
    assert {"dataclasses", "inspect"} & (everything - bare) == set()


def test_no_source_file_imports_dataclasses():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(path.relative_to(ROOT).as_posix())
    assert offenders == []
