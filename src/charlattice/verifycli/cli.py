"""The charlattice command line.

Query subcommands (dim, weights, multfree, samechar, factorize, subsystems,
allowed-pairs) are thin wrappers over the library; verify and verify-paper run
named cases and exit 1 on any failing step.  --format structured emits one
JSON document with sorted keys and no timestamps, so output is byte-stable.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from typing import TYPE_CHECKING

# Each command that needs more than reps and rootsys imports it itself, so a
# `dim` query loads neither the searches nor the verification cases.
from ..reps import (DimensionBoundError, SemisimpleAlgebra, HighestWeight,
                    irreducible_character, multiplicity_free_catalog, weyl_dimension)
from ..rootsys import SimpleType, build_root_system, equal_rank_subsystems

if TYPE_CHECKING:
    from ..abmultiset import GroupMultiset
    from .cases import CaseReport

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_hw(alg: SemisimpleAlgebra, text: str) -> tuple[int, ...]:
    """Weight coordinates: 'w3'/'omega3' for one fundamental weight of a
    simple algebra, else comma (and semicolon) separated integers."""
    text = text.strip()
    lowered = text.lower().replace("ω", "w").replace("omega", "w")
    if lowered.startswith("w") and lowered[1:].isdecimal():
        try:
            idx = int(lowered[1:])
        except ValueError as exc:  # more digits than int() converts
            raise UsageError(f"cannot parse weight {text!r}") from exc
        if len(alg.factors) != 1:
            raise UsageError("fundamental-weight shorthand needs a simple algebra")
        rank = alg.rank
        if not 1 <= idx <= rank:
            raise UsageError(f"fundamental weight index must lie in 1..{rank}")
        return tuple(1 if i == idx - 1 else 0 for i in range(rank))
    try:
        flat = tuple(int(tok) for tok in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse weight {text!r}") from exc
    if len(flat) != alg.rank:
        raise UsageError(f"weight needs {alg.rank} coordinates, got {len(flat)}")
    return flat


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_dim(args) -> int:
    alg = SemisimpleAlgebra.parse(args.algebra)
    flat = _parse_hw(alg, args.weight)
    dim = weyl_dimension(alg, HighestWeight.from_flat(alg, flat))
    _emit({"algebra": str(alg), "weight": list(flat), "dim": dim},
          args.format, [str(dim)])
    return EXIT_OK


def _cmd_weights(args) -> int:
    alg = SemisimpleAlgebra.parse(args.algebra)
    flat = _parse_hw(alg, args.weight)
    fc = irreducible_character(alg, flat, dim_bound=args.bound)
    lines = [" ".join(str(c) for c in w) + f" {m}" for w, m in fc.weights]
    _emit({"algebra": str(alg), "weight": list(flat),
           "weights": [{"coords": list(w), "mult": m} for w, m in fc.weights]},
          args.format, lines)
    return EXIT_OK


def _cmd_multfree(args) -> int:
    stype = SimpleType.parse(args.type)
    entries = multiplicity_free_catalog(stype, max_dim=args.max_dim)
    lines = [
        f"{stype} {','.join(str(c) for c in e.hw)} dim={e.dim} {e.label}"
        for e in entries
    ]
    _emit({"type": str(stype),
           "entries": [{"hw": list(e.hw), "dim": e.dim, "label": e.label}
                       for e in entries]},
          args.format, lines)
    return EXIT_OK


def _cmd_samechar(args) -> int:
    from ..charmatch import same_formal_character
    from .charfile import read_character_file

    first = read_character_file(args.first)
    second = read_character_file(args.second)
    witness = same_formal_character(first.character, second.character)
    if witness is None:
        _emit({"match": False, "witness": None}, args.format, ["no witness"])
        return EXIT_OK
    rows = [[int(c) if c.denominator == 1 else str(c) for c in row] for row in witness.matrix]
    lines = ["witness:"] + [" ".join(str(c) for c in row) for row in rows]
    _emit({"match": True, "witness": rows}, args.format, lines)
    return EXIT_OK


def _read_multiset(path: str, torsion: int) -> GroupMultiset:
    from ..abmultiset import AbGroup, GroupMultiset

    rows = []
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text") from exc
    for idx, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            nums = [int(tok) for tok in stripped.split()]
        except ValueError as exc:
            raise UsageError(f"{path}:{idx}: non-integer entry") from exc
        rows.append(nums)
    if not rows:
        raise UsageError(f"{path}: no elements")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError(f"{path}: rows of differing width")
    width = widths.pop()
    if torsion > 1:
        group = AbGroup(torsion=torsion, free_rank=width - 1)
        items = [(r[0], tuple(r[1:])) for r in rows]
    else:
        group = AbGroup(torsion=1, free_rank=width)
        items = [(0, tuple(r)) for r in rows]
    return GroupMultiset.from_iterable(group, items)


def _cmd_factorize(args) -> int:
    from ..abmultiset import factorizations

    try:
        profile = tuple(int(tok) for tok in args.profile.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse profile {args.profile!r}") from exc
    if args.torsion < 1:
        raise UsageError(f"--torsion must be at least 1, got {args.torsion}")
    mset = _read_multiset(args.file, args.torsion)
    decs = factorizations(mset, profile)
    lines = [f"{len(decs)} factorization(s)"]
    doc_factors = []
    for i, dec in enumerate(decs, start=1):
        lines.append(f"factorization {i}:")
        dec_doc = []
        for factor in dec.factors:
            row = "; ".join(
                ("+".join(str(c) for c in (e[0],) + e[1]) if args.torsion > 1
                 else ",".join(str(c) for c in e[1]))
                + (f" x{m}" if m > 1 else "")
                for e, m in factor.elems)
            lines.append(f"  [{row}]")
            dec_doc.append([{"torsion": e[0], "free": list(e[1]), "mult": m}
                            for e, m in factor.elems])
        doc_factors.append(dec_doc)
    _emit({"count": len(decs), "profile": list(profile),
           "factorizations": doc_factors},
          args.format, lines)
    return EXIT_OK


def _cmd_subsystems(args) -> int:
    stype = SimpleType.parse(args.type)
    subs = equal_rank_subsystems(build_root_system(stype))
    lines = [
        "+".join(str(t) for t in s.component_types)
        for s in subs
    ]
    _emit({"type": str(stype), "subsystems": lines}, args.format, lines)
    return EXIT_OK


def _cmd_allowed_pairs(args) -> int:
    from . import cases as case_mod

    report = case_mod.allowed_pairs(args.n)
    pair_lines = [
        f"{p.stype} {','.join(str(c) for c in p.hw)} dim={p.dim} "
        f"{p.label}  # {p.note}"
        for p in report.pairs
    ]
    doc = {
        "n": report.n,
        "gate_passed": report.gate_passed,
        "gate_reasons": list(report.gate_reasons),
        "pairs": [{"type": str(p.stype), "hw": list(p.hw), "dim": p.dim,
                   "label": p.label, "note": p.note} for p in report.pairs],
    }
    if report.gate_passed:
        _emit(doc, args.format, pair_lines)
        return EXIT_OK
    lines = [f"gate violated: {reason}" for reason in report.gate_reasons]
    lines.append("pairs that would otherwise be admitted:")
    lines += ["  " + p for p in pair_lines] or ["  (none)"]
    _emit(doc, args.format, lines)
    print("divisibility gate rejected n="
          f"{report.n}: {'; '.join(report.gate_reasons)}", file=sys.stderr)
    return EXIT_FAIL


def _render_report(report: CaseReport) -> list[str]:
    lines = [f"case {report.case_id} "
             + (" ".join(f"{k}={v}" for k, v in report.inputs) or "(no inputs)")]
    for step in report.steps:
        mark = "PASS" if step.passed else "FAIL"
        lines.append(f"  [{mark}] {step.claim}")
        lines.append(f"         computed {step.computed} expected {step.expected}"
                     f"  ({step.provenance})")
    for key, value in report.notes:
        lines.append(f"  note: {key} = {value}")
    lines.append(f"  verdict: {'pass' if report.verdict else 'FAIL'}")
    return lines


def _cmd_verify(args) -> int:
    from . import cases as case_mod

    params: dict[str, str] = {}
    for item in args.param or []:
        if "=" not in item:
            raise UsageError(f"parameters look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in params:
            raise UsageError(f"parameter {key} given twice")
        params[key] = value
    report = case_mod.run_case(args.case, params, seed=args.seed)
    _emit(report.to_dict(), args.format, _render_report(report))
    return EXIT_OK if report.verdict else EXIT_FAIL


def _cmd_verify_paper(args) -> int:
    from . import cases as case_mod

    seed = args.seed if args.seed is not None else 0
    reports = [case_mod.run_case(case_id, params)
               for case_id, params in case_mod.default_suite(seed=seed)]
    lines: list[str] = []
    for report in reports:
        lines += _render_report(report)
    passed = sum(1 for r in reports if r.verdict)
    lines.append(f"{passed}/{len(reports)} cases passed")
    _emit({"cases": [r.to_dict() for r in reports],
           "passed": passed, "total": len(reports)},
          args.format, lines)
    return EXIT_OK if passed == len(reports) else EXIT_FAIL


class _VerifyHelp(argparse.Action):
    """`verify -h`: list the cases under `case` (the action in `const`) only
    when help is printed, so that building the parser does not import them."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .cases import known_cases

        self.const.help = "one of:\n" + "\n".join(known_cases())
        parser.print_help()
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charlattice",
        description="Exact computations with root systems, weight multisets "
                    "and formal-character matching.")
    parser.add_argument("--format", choices=["text", "structured"],
                        default="text", help="output style")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized cases")
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse reads what its negative-number matcher accepts as a positional
    # or an option's value, not as an option
    negative_weight = re.compile(r"-\d")

    p = sub.add_parser("dim", help="dimension of an irreducible")
    p._negative_number_matcher = negative_weight
    p.add_argument("algebra")
    p.add_argument("weight")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("weights", help="weight multiset of an irreducible")
    p._negative_number_matcher = negative_weight
    p.add_argument("algebra")
    p.add_argument("weight")
    p.add_argument("--bound", type=int, default=100_000,
                   help="refuse dimensions above this")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("multfree", help="multiplicity-free catalog of a type")
    p.add_argument("type")
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(func=_cmd_multfree)

    p = sub.add_parser("samechar",
                       help="search for a linear witness between two character files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_samechar)

    p = sub.add_parser("factorize", help="sumset factorizations of a multiset file")
    p._negative_number_matcher = negative_weight
    p.add_argument("file")
    p.add_argument("--profile", required=True, help="factor sizes, e.g. 2,3")
    p.add_argument("--torsion", type=int, default=1,
                   help="leading coordinate lives in Z/torsion")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("subsystems", help="full-rank subsystems of a simple type")
    p.add_argument("type")
    p.set_defaults(func=_cmd_subsystems)

    p = sub.add_parser("allowed-pairs",
                       help="catalog entries of one dimension, behind the "
                            "divisibility gates")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_allowed_pairs)

    p = sub.add_parser("verify", help="run one named case", add_help=False,
                       formatter_class=argparse.RawTextHelpFormatter)
    case = p.add_argument("case")
    p.add_argument("-h", "--help", action=_VerifyHelp, nargs=0, const=case,
                   default=argparse.SUPPRESS, help="show this help message and exit")
    p.add_argument("-p", "--param", action="append",
                   help="case parameter as key=value (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-paper", help="run the full default suite")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # A command-line process keeps its modules until it exits: move them
        # out of the collector's reach, so that no collection during the
        # command rescans the objects the imports created.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # UsageError, CharFileError and CaseError are ValueErrors.
    except (ValueError, OSError, DimensionBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
