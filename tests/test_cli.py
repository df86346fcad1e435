"""Command-line behavior: exit codes, text and structured output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from charlattice import catalog, reps, rootsys, subsystems
from charlattice.goursat import MAX_FACTORS
from charlattice.reps import DEFAULT_DIMENSION_BOUND
from charlattice.verifycli import cli
from charlattice.verifycli.cases import _CASES, known_cases
from charlattice.verifycli.cli import _domain_terms, build_parser, main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_text(capsys):
    code, out, _ = run(capsys, "dim", "E7", "w7")
    assert code == 0
    assert out.strip() == "56"


def test_dim_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "dim", "A2", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"algebra": "A2", "weight": [1, 1], "dim": 8}


def test_structured_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "--format", "structured", "weights", "G2", "1,0")
    _, second, _ = run(capsys, "--format", "structured", "weights", "G2", "1,0")
    assert first == second
    doc = json.loads(first)
    assert sum(w["mult"] for w in doc["weights"]) == 7


def test_omega_shorthand_variants(capsys):
    for spec in ("w1", "omega1", "ω1"):
        code, out, _ = run(capsys, "dim", "B4", spec)
        assert code == 0
        assert out.strip() == "9"


def test_weights_text_lists_rows(capsys):
    code, out, _ = run(capsys, "weights", "A1", "2")
    assert code == 0
    assert out.splitlines() == ["-2 1", "0 1", "2 1"]


def test_multfree_catalog(capsys):
    code, out, _ = run(capsys, "multfree", "D5")
    assert code == 0
    assert len(out.splitlines()) == 3
    code, out, _ = run(capsys, "multfree", "E8")
    assert code == 0
    assert out.strip() == ""


def test_multfree_refuses_rank_above_cap_before_the_catalog(capsys, monkeypatch):
    code, out, _ = run(capsys, "multfree", "D6000")
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()] == [
        "dim=12000", f"dim={2 ** 5999}", f"dim={2 ** 5999}"]

    def refused(*args, **kwargs):
        raise AssertionError(f"catalog built for {args}")

    monkeypatch.setattr(catalog, "multiplicity_free_catalog", refused)
    for name in ("D6001", "D14400", "A100000000"):
        code, out, err = run(capsys, "multfree", name)
        assert (code, out) == (2, "")
        assert err == f"error: rank {name[1:]} of {name} exceeds the catalog limit 6000\n"


def test_multfree_refuses_max_dim_above_the_dimension_bound(capsys, monkeypatch):
    code, out, _ = run(capsys, "multfree", "A1", "--max-dim", str(DEFAULT_DIMENSION_BOUND))
    assert code == 0
    assert len(out.splitlines()) == DEFAULT_DIMENSION_BOUND - 1  # std, then sym^2..sym^99999
    # a cutoff of 10^4000 once grew A2000's sym^a list to 2.8 GB
    huge = "1" + "0" * 4000
    refusal = f"error: max-dim {huge} exceeds the dimension bound {DEFAULT_DIMENSION_BOUND}\n"

    def cold() -> float:
        start = time.perf_counter()
        proc = python("-m", "charlattice.verifycli.cli", "multfree", "A2000", "--max-dim", huge)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", refusal)
        return elapsed

    assert min(cold() for _ in range(2)) < 0.3

    def refused(*args, **kwargs):
        raise AssertionError(f"catalog built for {args}")

    monkeypatch.setattr(catalog, "multiplicity_free_catalog", refused)
    for name in ("A2000", "D5"):
        code, out, err = run(capsys, "multfree", name, "--max-dim", str(DEFAULT_DIMENSION_BOUND + 1))
        assert (code, out) == (2, "")
        assert err == f"error: max-dim 100001 exceeds the dimension bound {DEFAULT_DIMENSION_BOUND}\n"


def test_multfree_type_a_needs_bound(capsys):
    code, _, err = run(capsys, "multfree", "A3")
    assert code == 2
    assert "error" in err


def test_samechar_finds_witness(capsys, tmp_path):
    g2 = tmp_path / "g2.char"
    trip = tmp_path / "trip.char"
    code, out, _ = run(capsys, "weights", "G2", "1,0")
    g2.write_text("algebra: G2\nweights:\n" + out, encoding="utf-8")
    rows = []
    for hw in ("1,0", "0,1"):
        code, out, _ = run(capsys, "weights", "A2", hw)
        rows.append(out)
    trip.write_text("algebra: A2\nweights:\n" + rows[0] + rows[1] + "0 0 1\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "samechar", str(g2), str(trip))
    assert code == 0
    assert out.startswith("witness:")
    assert len(out.splitlines()) == 3  # header plus a 2x2 matrix


def test_samechar_prints_rational_witness(capsys, tmp_path):
    sym2 = tmp_path / "sym2.char"
    split = tmp_path / "split.char"
    sym2.write_text("algebra: A1\nweights:\n-2 1\n0 1\n2 1\n", encoding="utf-8")
    split.write_text("algebra: A1\nweights:\n-1 1\n0 1\n1 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "samechar", str(sym2), str(split))
    assert code == 0
    assert out == "witness:\n1/2\n"
    code, out, _ = run(capsys, "--format", "structured", "samechar", str(sym2), str(split))
    assert code == 0
    assert json.loads(out) == {"match": True, "witness": [["1/2"]]}
    code, out, _ = run(capsys, "--format", "structured", "samechar", str(split), str(sym2))
    assert json.loads(out) == {"match": True, "witness": [[2]]}


def test_samechar_reports_absence(capsys, tmp_path):
    a = tmp_path / "a.char"
    b = tmp_path / "b.char"
    a.write_text("algebra: A1\nweights:\n-1 1\n1 1\n", encoding="utf-8")
    b.write_text("algebra: A1\nweights:\n-2 1\n2 1\n0 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "samechar", str(a), str(b))
    assert code == 0
    assert out.strip() == "no witness"


def test_samechar_refuses_an_involution_section(capsys, tmp_path):
    f = tmp_path / "inv.char"
    f.write_text("algebra: A2\nweights:\n1 0 1\n-1 1 1\n0 -1 1\ninvolution:\n0 1\n1 0\n",
                 encoding="utf-8")
    assert run(capsys, "samechar", str(f), str(f)) == (2, "", "error: line 6: non-integer entry\n")


def test_factorize_grid(capsys, tmp_path):
    f = tmp_path / "grid.mset"
    rows = [f"{x} {y} 1" for x in range(2) for y in range(3)]
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "factorize", str(f), "--profile", "2,3")
    assert code == 0
    assert "1 factorization" in out or out.splitlines()[0].startswith("factorization")

    code, out, _ = run(capsys, "--format", "structured", "factorize", str(f),
                       "--profile", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["profile"] == [2, 3]


FACTORIZE_GOLDEN = json.loads((GOLDEN / "factorize_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(FACTORIZE_GOLDEN))
def test_factorize_golden(capsys, tmp_path, name):
    case = FACTORIZE_GOLDEN[name]
    f = tmp_path / f"{name}.mset"
    f.write_text(case["file"], encoding="utf-8")
    for fmt in ("text", "structured"):
        code, out, _ = run(capsys, "--format", fmt, "factorize", str(f),
                           "--profile", case["profile"], "--torsion", str(case["torsion"]))
        assert code == 0
        assert out == case[fmt]


def test_factorize_rejects_nonpositive_torsion(capsys, tmp_path):
    f = tmp_path / "line.mset"
    f.write_text("0\n1\n2\n3\n", encoding="utf-8")
    for torsion in ("0", "-3"):
        code, out, err = run(capsys, "factorize", str(f), "--profile", "2,2",
                             "--torsion", torsion)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--torsion" in err


@pytest.mark.parametrize("text,profile,message", [
    ("0 1\n1 x\n", "2,1", "{path}:2: non-integer entry"),
    ("# only a comment\n\n", "2,1", "{path}: no elements"),
    ("0 1\n2\n", "2,1", "{path}: rows of differing width"),
    ("0\n1\n", "2,x", "cannot parse profile '2,x'"),
])
def test_factorize_input_errors(capsys, tmp_path, text, profile, message):
    f = tmp_path / "bad.mset"
    f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "factorize", str(f), "--profile", profile)
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(path=f) + "\n"


def test_subsystems_b3(capsys):
    code, out, _ = run(capsys, "subsystems", "B3")
    assert code == 0
    assert set(out.split()) == {"B3", "A3", "A1+A1+A1"}


SUBSYSTEMS_GOLDEN = json.loads((GOLDEN / "subsystems_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SUBSYSTEMS_GOLDEN))
def test_subsystems_golden(capsys, name):
    for fmt in ("text", "structured"):
        code, out, _ = run(capsys, "--format", fmt, "subsystems", name)
        assert code == 0
        assert out == SUBSYSTEMS_GOLDEN[name][fmt]


def test_subsystems_refuses_rank_above_cap(capsys, monkeypatch):
    code, out, _ = run(capsys, "subsystems", "A20")
    assert (code, out) == (0, "A20\n")
    built, build = [], subsystems.build_root_system
    monkeypatch.setattr(subsystems, "build_root_system",
                        lambda stype: built.append(stype) or build(stype))
    for name in ("A21", "B21", "D300"):
        code, out, err = run(capsys, "subsystems", name)
        assert (code, out) == (2, "")
        assert err == f"error: rank {name[1:]} of {name} exceeds the subsystem-search limit 20\n"
    assert built == []  # refused before any root datum is built


def test_allowed_pairs_27(capsys):
    code, out, _ = run(capsys, "allowed-pairs", "27")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert sum("E6" in line for line in lines) == 2
    assert any("B13" in line for line in lines)


def test_allowed_pairs_gate_failure(capsys):
    code, out, err = run(capsys, "allowed-pairs", "20")
    assert code == 1
    assert "gate violated" in out
    assert "rejected n=20" in err
    code, _, err = run(capsys, "allowed-pairs", "21")
    assert code == 1
    assert "rejected n=21" in err  # 21 = 3 * 7


def test_allowed_pairs_refuses_n_above_cap(capsys):
    code, _, _ = run(capsys, "allowed-pairs", "6000")
    assert code == 1  # answered: 4 divides 6000
    for n in ("6001", "100000"):
        code, out, err = run(capsys, "allowed-pairs", n)
        assert code == 2
        assert out == ""
        assert err == f"error: n must be at most 6000, got {n}\n"


def test_allowed_pairs_structured_gate(capsys):
    code, out, _ = run(capsys, "--format", "structured", "allowed-pairs", "28")
    assert code == 1
    doc = json.loads(out)
    assert doc["gate_passed"] is False
    assert doc["gate_reasons"]


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "sl2k-selfdual", "-p", "k=6")
    assert code == 0
    assert "verdict: pass" in out
    assert "[FAIL]" not in out


def test_verify_structured_doc(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify", "e6-parity")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "e6-parity"
    assert doc["verdict"] == "pass"
    assert all(s["pass"] for s in doc["steps"])


def test_verify_forwards_seed_to_cases_that_take_one(capsys):
    code, out, _ = run(capsys, "--seed", "7", "verify", "factorization-bound")
    assert code == 0
    assert out.splitlines()[0] == "case factorization-bound a=2 b=3 seed=7"
    code, out, _ = run(capsys, "--seed", "7", "verify", "factorization-bound",
                       "-p", "seed=3")
    assert code == 0
    assert out.splitlines()[0] == "case factorization-bound a=2 b=3 seed=3"
    code, out, _ = run(capsys, "--seed", "7", "verify", "e6-parity")
    assert code == 0
    assert out.splitlines()[0] == "case e6-parity (no inputs)"


HELP_GOLDEN = json.loads((GOLDEN / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(HELP_GOLDEN))
def test_help_golden(capsys, monkeypatch, argv):
    """`--help`, each `<command> --help` and `verify -h`, byte for byte at a
    fixed width: main loads a command's handler only after parsing, so the
    parser alone writes these."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_GOLDEN[argv]


def test_verify_help_names_every_case(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = out.split()
    assert all(case in listed for case in known_cases())
    lines = {line.split()[0]: line for line in out.splitlines() if line.split()}
    for case_id, domain in _CASES.items():
        assert lines[case_id].endswith(", ".join(_domain_terms(domain)) or "no parameters")


def test_readme_table_lists_every_domain_and_cap():
    rows = {line.split("|")[1].strip(): line.split("|")[2].strip()
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| ")}
    for case_id, domain in _CASES.items():
        terms = _domain_terms(domain) or ["no parameters"]
        assert all(term in rows[f"`verify {case_id}`"] for term in terms), case_id
    assert f"rank <= {subsystems.MAX_SUBSYSTEM_RANK}" in rows["`subsystems`"]
    assert f"rank <= {cli.MAX_CATALOG_RANK}" in rows["`multfree`"]
    assert f"max-dim <= {DEFAULT_DIMENSION_BOUND}" in rows["`multfree --max-dim`"]
    assert f"default {DEFAULT_DIMENSION_BOUND}" in rows["`weights`"]
    assert f"at most {MAX_FACTORS} factors" in rows["`verify goursat`"]
    assert f"rank <= {rootsys.MAX_ROOT_DATUM_RANK}" in rows["any command that builds a root datum"]


def test_verify_rejects_unknown_case(capsys):
    code, _, err = run(capsys, "verify", "no-such-case")
    assert code == 2
    assert "error" in err


def test_verify_rejects_bad_param(capsys):
    code, _, err = run(capsys, "verify", "sl2k-selfdual", "-p", "k")
    assert code == 2
    code, _, err = run(capsys, "verify", "sl2k-selfdual", "-p", "bogus=3")
    assert code == 2


def test_verify_rejects_a_parameter_given_twice(capsys):
    code, out, err = run(capsys, "verify", "so-selfdual", "-p", "m=9", "-p", "m=3")
    assert code == 2
    assert out == ""
    assert err == "error: parameter m given twice\n"
    code, _, err = run(capsys, "verify", "so-selfdual", "-p", "m=5", "-p", " m = 5")
    assert code == 2 and "parameter m given twice" in err


@pytest.mark.parametrize("factors", ["factors=", "factors=+"])
def test_verify_goursat_refuses_no_factors(capsys, factors):
    code, out, err = run(capsys, "verify", "goursat", "-p", factors)
    assert (code, out, err) == (2, "", "error: the factor list is empty\n")


def test_verify_sl2k_selfdual_refuses_k_above_cap(capsys):
    code, out, _ = run(capsys, "verify", "sl2k-selfdual", "-p", "k=10000")
    assert code == 0 and "verdict: pass" in out
    code, out, err = run(capsys, "verify", "sl2k-selfdual", "-p", "k=10001")
    assert (code, out, err) == (2, "", "error: k above 10000 exceeds the documented range\n")


def test_verify_sym_power_rigidity_refuses_n_above_cap(capsys):
    code, out, _ = run(capsys, "verify", "sym-power-rigidity", "-p", "n=40", "-p", "a=1")
    assert code == 0 and "verdict: pass" in out
    code, out, err = run(capsys, "verify", "sym-power-rigidity", "-p", "n=41", "-p", "a=1")
    assert (code, out, err) == (2, "", "error: n above 40 exceeds the documented range\n")


@pytest.mark.parametrize("case,params,message", [
    ("sym-power-rigidity", ["n=1", "a=3000"], "a above 40"),
    ("sym-power-rigidity", ["n=15", "a=6"], "C(n+a, a) above 12341"),
    ("sym-power-rigidity", ["n=0"], "n below 1"),
    ("max-norm-bound", ["algebra=A150", "hw=" + ",".join(["1"] + ["0"] * 149)],
     "rank of algebra above 20"),
])
def test_verify_refuses_outside_the_domain(capsys, case, params, message):
    argv = [arg for p in params for arg in ("-p", p)]
    code, out, err = run(capsys, "verify", case, *argv)
    assert (code, out, err) == (2, "", f"error: {message} exceeds the documented range\n")


def test_verify_param_type_errors(capsys):
    code, _, err = run(capsys, "verify", "sl2k-selfdual", "-p", "k=x")
    assert code == 2


def test_verify_paper_suite(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "30/30 cases passed" in out


def test_verify_paper_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "--seed", "0", "verify-paper")
    assert code == 0
    assert out == (GOLDEN / "verify_paper_seed0.json").read_text(encoding="utf-8")


def test_usage_error_for_bad_weight(capsys):
    code, _, err = run(capsys, "dim", "A2", "1,2,3")
    assert code == 2
    assert "coordinates" in err


def test_weights_over_bound_is_refused(capsys):
    code, out, err = run(capsys, "weights", "A2", "1,1", "--bound", "5")
    assert code == 2
    assert out == ""
    assert err == "error: dimension 8 exceeds bound 5\n"  # no traceback


def test_weights_refuses_bound_above_the_dimension_bound(capsys, monkeypatch):
    code, out, _ = run(capsys, "weights", "A1", "2", "--bound", str(DEFAULT_DIMENSION_BOUND))
    assert (code, out.splitlines()) == (0, ["-2 1", "0 1", "2 1"])

    def refused(*args, **kwargs):
        raise AssertionError(f"weights built for {args}")

    monkeypatch.setattr(reps, "irreducible_character", refused)
    for weight in ("2", "99999", "1" + "0" * 4000):
        code, out, err = run(capsys, "weights", "A1", weight,
                             "--bound", str(DEFAULT_DIMENSION_BOUND + 1))
        assert (code, out) == (2, "")
        assert err == f"error: bound 100001 exceeds the dimension bound {DEFAULT_DIMENSION_BOUND}\n"


@pytest.mark.parametrize("command", ["dim", "weights"])
def test_negative_weight_is_a_weight_not_an_option(capsys, command):
    code, out, err = run(capsys, command, "A2", "-1,0")
    assert (code, out, err) == (2, "", "error: not dominant: (-1, 0)\n")
    code, out, err = run(capsys, command, "A2+A1", "1,-2;0")
    assert (code, out, err) == (2, "", "error: not dominant: (1, -2)\n")


def test_negative_weight_keeps_later_options():
    args = build_parser().parse_args(["weights", "A2", "-1,0", "--bound", "5"])
    assert (args.weight, args.bound) == ("-1,0", 5)
    args = build_parser().parse_args(["weights", "A2", "--bound", "5", "-1,0"])
    assert (args.weight, args.bound) == ("-1,0", 5)


@pytest.mark.parametrize("profile", ["-2,2", "2,-2"])
def test_negative_profile_size_reaches_the_profile_check(capsys, tmp_path, profile):
    f = tmp_path / "line.mset"
    f.write_text("0\n1\n2\n3\n", encoding="utf-8")
    code, out, err = run(capsys, "factorize", str(f), "--profile", profile)
    sizes = ", ".join(profile.split(","))
    assert (code, out, err) == (2, "", f"error: profile ({sizes}) does not multiply to 4\n")


def test_usage_error_for_bad_algebra(capsys):
    code, _, err = run(capsys, "dim", "Q5", "1")
    assert code == 2


def test_shorthand_needs_simple_algebra(capsys):
    code, _, err = run(capsys, "dim", "A1+A1", "w1")
    assert code == 2
    assert "simple" in err


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with src/ on its path and no bytecode written."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-B", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


LOADED = """\
import contextlib, io, sys
from charlattice.verifycli.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(" ".join(sorted(m[len("charlattice."):] for m in sys.modules
                      if m.startswith("charlattice."))))
"""


def loaded_modules(*argv: str) -> set[str]:
    """The charlattice submodules one command loads in a fresh interpreter."""
    proc = python("-c", LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_command_loads_only_what_it_runs(tmp_path):
    grid = tmp_path / "grid.mset"
    grid.write_text("".join(f"{x} {y}\n" for x in range(2) for y in range(3)),
                    encoding="utf-8")
    char = tmp_path / "a1.char"
    char.write_text("algebra: A1\nweights:\n-1 1\n1 1\n", encoding="utf-8")

    loaded = loaded_modules("dim", "A2", "1,1")
    assert {"rootsys", "reps"} <= loaded
    assert not loaded & {"charmatch", "abmultiset", "goursat", "verifycli.cases",
                         "verifycli.charfile"}
    loaded = loaded_modules("factorize", str(grid), "--profile", "2,3")
    assert "abmultiset" in loaded
    assert not loaded & {"charmatch", "goursat", "verifycli.cases"}
    loaded = loaded_modules("samechar", str(char), str(char))
    assert {"charmatch", "verifycli.charfile"} <= loaded
    assert not loaded & {"abmultiset", "goursat", "verifycli.cases"}
    loaded = loaded_modules("verify-paper")
    assert {"charmatch", "abmultiset", "goursat", "verifycli.cases"} <= loaded


def test_rank_above_root_datum_limit_is_refused_quickly():
    start = time.perf_counter()
    proc = python("-m", "charlattice.verifycli.cli", "dim", "A301", "w1")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: rank 301 of A301 exceeds the root-datum limit 300\n"
    assert elapsed < 1.0


def test_module_run_is_warning_free():
    proc = python("-W", "error", "-m", "charlattice.verifycli.cli", "dim", "E7", "w7")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "56\n", "")
