"""The charlattice command line.

Query subcommands (dim, weights, multfree, samechar, factorize, subsystems,
allowed-pairs) are thin wrappers over the library; verify and verify-paper run
named cases and exit 1 on any failing step.  --format structured emits one
JSON document with sorted keys and no timestamps, so output is byte-stable.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from typing import TYPE_CHECKING

# Every handler imports what it runs, and the handlers of the commands other
# than dim, weights and multfree live in `commands`, which main imports only
# for them, so a query compiles only its own command's code.
if TYPE_CHECKING:
    from ..reps import SemisimpleAlgebra

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# multfree refuses a higher rank.  The spin and half-spin entries of B_m and
# D_m have dimension 2^m and 2^(m-1), which Python prints only below 4300
# digits (m < 14286), and a type of rank 10^8 exhausts memory; the limit
# still covers every type-A rank (up to 5999) that allowed-pairs reads.
MAX_CATALOG_RANK = 6000


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
        import json  # only here: a text-format query never loads it

        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_dim(args) -> int:
    from ..reps import HighestWeight, SemisimpleAlgebra, weyl_dimension

    alg = SemisimpleAlgebra.parse(args.algebra)
    flat = _parse_hw(alg, args.weight)
    dim = weyl_dimension(alg, HighestWeight.from_flat(alg, flat))
    _emit({"algebra": str(alg), "weight": list(flat), "dim": dim},
          args.format, [str(dim)])
    return EXIT_OK


def _cmd_weights(args) -> int:
    from ..reps import DEFAULT_DIMENSION_BOUND, SemisimpleAlgebra, irreducible_character

    bound = DEFAULT_DIMENSION_BOUND if args.bound is None else args.bound
    # the bound is the only cap on the size of a Freudenthal run
    if bound > DEFAULT_DIMENSION_BOUND:
        raise UsageError(
            f"bound {bound} exceeds the dimension bound {DEFAULT_DIMENSION_BOUND}")
    alg = SemisimpleAlgebra.parse(args.algebra)
    flat = _parse_hw(alg, args.weight)
    fc = irreducible_character(alg, flat, dim_bound=bound)
    lines = [" ".join(str(c) for c in w) + f" {m}" for w, m in fc.weights]
    _emit({"algebra": str(alg), "weight": list(flat),
           "weights": [{"coords": list(w), "mult": m} for w, m in fc.weights]},
          args.format, lines)
    return EXIT_OK


def _cmd_multfree(args) -> int:
    from ..catalog import multiplicity_free_catalog
    from ..reps import DEFAULT_DIMENSION_BOUND
    from ..rootsys import SimpleType

    stype = SimpleType.parse(args.type)
    if stype.rank > MAX_CATALOG_RANK:
        raise UsageError(
            f"rank {stype.rank} of {stype} exceeds the catalog limit {MAX_CATALOG_RANK}")
    # type A lists one sym^a per dimension up to the cutoff, so an unbounded
    # cutoff is an unbounded list
    if args.max_dim is not None and args.max_dim > DEFAULT_DIMENSION_BOUND:
        raise UsageError(
            f"max-dim {args.max_dim} exceeds the dimension bound {DEFAULT_DIMENSION_BOUND}")
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


def _domain_terms(domain) -> list[str]:
    """A case's domain in words: each parameter with its range, then the
    joint bound."""
    terms = [f"{name} in {lo}..{hi}" for name, (lo, _, hi) in domain.ints.items()]
    terms += [f"{name} any integer" if isinstance(default, int) else f"{name} text"
              for name, default in domain.free.items()]
    if domain.joint is not None:
        terms.append(f"{domain.joint[0]} <= {domain.joint[2]}")
    return terms


class _VerifyHelp(argparse.Action):
    """`verify -h`: list the cases under `case` (the action in `const`), each
    with its domain, only when help is printed, so that building the parser
    does not import them."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .cases import _CASES, known_cases

        width = max(map(len, known_cases()))
        self.const.help = "one of:\n" + "\n".join(
            f"{case_id:<{width}}  " + (", ".join(_domain_terms(_CASES[case_id]))
                                       or "no parameters")
            for case_id in known_cases())
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
    p.add_argument("--bound", type=int, default=None,
                   help="refuse dimensions above this (at most the default)")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("multfree", help="multiplicity-free catalog of a type")
    p.add_argument("type")
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(func=_cmd_multfree)

    p = sub.add_parser("samechar",
                       help="search for a linear witness between two character files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func="_cmd_samechar")

    p = sub.add_parser("factorize", help="sumset factorizations of a multiset file")
    p._negative_number_matcher = negative_weight
    p.add_argument("file")
    p.add_argument("--profile", required=True, help="factor sizes, e.g. 2,3")
    p.add_argument("--torsion", type=int, default=1,
                   help="leading coordinate lives in Z/torsion")
    p.set_defaults(func="_cmd_factorize")

    p = sub.add_parser("subsystems", help="full-rank subsystems of a simple type")
    p.add_argument("type")
    p.set_defaults(func="_cmd_subsystems")

    p = sub.add_parser("allowed-pairs",
                       help="catalog entries of one dimension, behind the "
                            "divisibility gates")
    p.add_argument("n", type=int)
    p.set_defaults(func="_cmd_allowed_pairs")

    p = sub.add_parser("verify", help="run one named case", add_help=False,
                       formatter_class=argparse.RawTextHelpFormatter)
    case = p.add_argument("case")
    p.add_argument("-h", "--help", action=_VerifyHelp, nargs=0, const=case,
                   default=argparse.SUPPRESS, help="show this help message and exit")
    p.add_argument("-p", "--param", action="append",
                   help="case parameter as key=value (repeatable)")
    p.set_defaults(func="_cmd_verify")

    p = sub.add_parser("verify-paper", help="run the full default suite")
    p.set_defaults(func="_cmd_verify_paper")

    return parser


def _refusals() -> tuple[type[Exception], ...]:
    """The errors main reports with exit code 2: ValueError (UsageError,
    CharFileError and CaseError are ValueErrors), OSError and reps's
    DimensionBoundError, which only a command that has loaded reps raises."""
    reps = sys.modules.get("charlattice.reps")
    return (ValueError, OSError) + ((reps.DimensionBoundError,) if reps else ())


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # A command-line process keeps its modules until it exits: move them
        # out of the collector's reach, so that no collection during the
        # command rescans the objects the imports created.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    func = args.func
    if isinstance(func, str):  # the name of a handler in commands
        from . import commands
        func = getattr(commands, func)
    try:
        return func(args)
    # _refusals() is called only when an exception reaches this clause.
    except _refusals() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
