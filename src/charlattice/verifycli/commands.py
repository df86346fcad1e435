"""The handlers of samechar, factorize, subsystems, allowed-pairs, verify and
verify-paper.  `cli.main` imports this module only when one of them runs, so
a dim, weights or multfree query does not compile them; each handler imports
what it runs.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .cli import EXIT_FAIL, EXIT_OK, UsageError, _emit

if TYPE_CHECKING:
    from ..abmultiset import GroupMultiset
    from .cases import CaseReport


def _cmd_samechar(args) -> int:
    from ..charmatch import same_formal_character
    from .charfile import read_character_file

    first = read_character_file(args.first)
    second = read_character_file(args.second)
    witness = same_formal_character(first, second)
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
    from ..rootsys import SimpleType
    from ..subsystems import equal_rank_subsystems

    stype = SimpleType.parse(args.type)
    subs = equal_rank_subsystems(stype)
    lines = [
        "+".join(str(t) for t in s.component_types)
        for s in subs
    ]
    _emit({"type": str(stype), "subsystems": lines}, args.format, lines)
    return EXIT_OK


def _cmd_allowed_pairs(args) -> int:
    from ..catalog import allowed_pairs

    report = allowed_pairs(args.n)
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
