"""What a cold CLI query imports.

A single query runs in a fresh interpreter, and its time is mostly import
time.  `dataclasses` pulls in `inspect` (about 12 ms together) and `fractions`
about 4 ms more, so neither is on the path of a query that does not need it.
Each check compares against a bare interpreter's modules, so a module that
`site` already loads does not count against the library.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LOADED = "import json, sys{stmt}; print(json.dumps(sorted(sys.modules)))"


def modules_after(stmt: str) -> set[str]:
    """The modules in sys.modules of a fresh interpreter after stmt."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(stmt=f"; {stmt}" if stmt else "")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    bare = modules_after("")
    cli = modules_after("from charlattice.verifycli.cli import main")
    assert "charlattice.rootsys" in cli
    assert {"dataclasses", "inspect", "fractions"} & (cli - bare) == set()


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
