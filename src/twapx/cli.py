"""Command-line front end: approximation, validation, and the exact oracle.

Exit codes: 0 decomposition produced / validation OK, 10 lower bound
certificate, 1 validation failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, ParseError
from .graph import parse_gr
from .improver import Decomposition, RunStats, approximate
from .oracle import exact_treewidth
from .treedec import STRATEGIES, emit_td, parse_td, validate, width


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twapx",
        description="Treewidth 2-approximation: width <= 2k+1 decompositions "
        "or certified lower bounds, with PACE-format files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("approx", help="approximate: decomposition or lower bound")
    ap.add_argument("--graph", required=True, help=".gr input file ('-' for stdin)")
    ap.add_argument("--k", required=True, type=int, help="target treewidth bound")
    ap.add_argument("--td", help="optional starting .td decomposition")
    ap.add_argument("--seed-strategy", choices=STRATEGIES, default="min-degree")
    ap.add_argument("--out", help="write the .td here (default: standard output)")
    ap.add_argument("--stats", action="store_true", help="print run counters to stderr")
    ap.add_argument(
        "--check",
        action="store_true",
        help="check every split query and edit of every pass (slower)",
    )

    vp = sub.add_parser("validate", help="check a .td against a .gr")
    vp.add_argument("--graph", required=True)
    vp.add_argument("--td", required=True)

    ep = sub.add_parser("exact", help="exact treewidth by exhaustive search")
    ep.add_argument("--graph", required=True)
    ep.add_argument(
        "--max-n", type=int, default=12, help="vertex budget for the search"
    )
    return parser


def _cmd_approx(args: argparse.Namespace) -> int:
    g = parse_gr(_read(args.graph))
    t0 = parse_td(_read(args.td)) if args.td else None
    stats = RunStats()
    result = approximate(
        g,
        args.k,
        t0=t0,
        strategy=getattr(args, "seed_strategy"),
        check=args.check,
        stats=stats,
    )
    if isinstance(result, Decomposition):
        text = emit_td(result.td)
        if args.out and args.out != "-":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"WIDTH {width(result.td)}")
        else:
            sys.stdout.write(text)
            print(f"WIDTH {width(result.td)}", file=sys.stderr)
        code = 0
    else:
        bag = " ".join(str(v + 1) for v in result.bag)
        print(f"LOWERBOUND k={result.k} bag {bag}")
        code = 10
    if args.stats:
        for line in stats.as_lines():
            print(line, file=sys.stderr)
    return code


def _cmd_validate(args: argparse.Namespace) -> int:
    g = parse_gr(_read(args.graph))
    t = parse_td(_read(args.td))
    problems = validate(g, t)
    if not problems:
        print("OK")
        return 0
    for line in problems:
        print(line)
    return 1


def _cmd_exact(args: argparse.Namespace) -> int:
    g = parse_gr(_read(args.graph))
    print(exact_treewidth(g, max_n=args.max_n))
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "approx":
            return _cmd_approx(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_exact(args)
    except (ParseError, BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
