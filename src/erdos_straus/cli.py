"""Command-line interface.

Subcommands: check, solve, scan, table, figure, compare, properties.
Exit codes are stable: 0 success, 2 usage or domain error, 3 a scan
found a prime with no witness, 4 I/O failure, 5 a correspondence or
structural-rule violation. compare, table and figure import recover
and report when they run, so the other commands never load them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterable, Optional, Sequence

from .arith import primes_in_range
from .errors import CorrespondenceError, DomainError, ResourceLimitError
from .oracle import DEFAULT_CAP, solve_bruteforce
from .scan import (
    ScanStream,
    _check_rule_hi,
    _compact,
    _witness_json,
    check_divisor_k_rule,
    check_k0_type1_rule,
    summary_line,
)
from .witness import SolutionType, build_solution, iter_witnesses

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_IO = 4
EXIT_VIOLATION = 5


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks of text to path, replacing a regular file atomically.

    The chunks go, one by one as the iterable yields them, to a temp
    file in the target's directory, which is then renamed over the
    target, so a failed write leaves any old file untouched.
    Something at path that is not a regular file (/dev/null, a pipe)
    is written in place, since renaming over it would replace it.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def cmd_check(args: argparse.Namespace) -> int:
    # build_solution certifies the identity, raising if it fails.
    entries = [(w, build_solution(w)) for w in iter_witnesses(args.p)]
    if args.json:
        print(
            _compact(
                {
                    "p": args.p,
                    "witnesses": [
                        {
                            **_witness_json(w),
                            "y": s.y,
                            "z": s.z,
                            "identity": True,
                        }
                        for w, s in entries
                    ],
                }
            )
        )
    else:
        print(f"p={args.p}: {len(entries)} witness(es)")
        for w, s in entries:
            print(
                f"  type {w.type.value:<2} x={w.x} k={w.k} d={w.d}"
                f"  ->  y={s.y} z={s.z}  identity=ok"
            )
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    triples = solve_bruteforce(args.n, cap=args.cap)
    if args.json:
        print(_compact({"n": args.n, "solutions": [list(t) for t in triples]}))
    else:
        print(f"4/{args.n}: {len(triples)} solution(s)")
        for x, y, z in triples:
            print(f"  1/{x} + 1/{y} + 1/{z}")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    mode = "exhaustive" if args.exhaustive else "first-only"
    stream = ScanStream(args.lo, args.hi, mode=mode, workers=args.threads)
    if args.out:
        _write_text(args.out, stream)
        report = stream.report
        summary = summary_line(report, args.threads)
        if os.path.isfile(args.out):
            _write_text(args.out + ".summary.json", (summary + "\n",))
        else:  # /dev/null, a pipe: no sibling file to write beside it
            print(summary, file=sys.stderr)
        print(
            f"scanned {report.prime_count} primes in [{report.lo}, {report.hi}] "
            f"({mode}), {len(report.counterexamples)} counterexample(s), "
            f"records -> {args.out}"
        )
    else:
        sys.stdout.writelines(stream)
        report = stream.report
        print(summary_line(report, args.threads), file=sys.stderr)
    if report.counterexamples:
        print(
            f"counterexamples found: {list(report.counterexamples)}", file=sys.stderr
        )
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    from .report import k_table, k_table_csv, k_table_json
    stype = SolutionType.TYPE_I if args.which == 1 else SolutionType.TYPE_II
    rows = k_table(args.hi, stype)
    text = k_table_csv(rows) if args.format == "csv" else k_table_json(rows) + "\n"
    if args.out:
        _write_text(args.out, (text,))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    from .report import figure_points, points_csv, render_scatter
    points = figure_points(args.hi)
    wrote = False
    if args.points_out:
        _write_text(args.points_out, (points_csv(points),))
        wrote = True
    if args.svg_out:
        _write_text(args.svg_out, (render_scatter(points),))
        wrote = True
    if not wrote:
        sys.stdout.write(points_csv(points))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .recover import check_correspondences
    if args.hi > DEFAULT_CAP:
        raise ResourceLimitError(f"hi={args.hi} exceeds the oracle cap {DEFAULT_CAP}")
    primes = primes_in_range(args.lo, args.hi)
    problems = check_correspondences(primes)
    if args.json:
        print(
            _compact(
                {
                    "lo": args.lo,
                    "hi": args.hi,
                    "primes": len(primes),
                    "violations": problems,
                }
            )
        )
    else:
        print(f"compared {len(primes)} primes in [{args.lo}, {args.hi}]")
        for line in problems:
            print(f"  VIOLATION {line}")
        if not problems:
            print("  witness search and brute force agree exactly")
    return EXIT_VIOLATION if problems else EXIT_OK


def cmd_properties(args: argparse.Namespace) -> int:
    divisor_hi = args.divisor_hi if args.divisor_hi is not None else args.hi
    _check_rule_hi(args.hi)
    _check_rule_hi(divisor_hi)
    k0_violations = check_k0_type1_rule(args.hi)
    divisor_violations = check_divisor_k_rule(divisor_hi)
    if args.json:
        print(
            _compact(
                {
                    "k0_rule_hi": args.hi,
                    "k0_violations": k0_violations,
                    "divisor_rule_hi": divisor_hi,
                    "divisor_violations": [list(v) for v in divisor_violations],
                }
            )
        )
    else:
        print(f"k=0 type I rule up to {args.hi}: {len(k0_violations)} violation(s)")
        for p in k0_violations:
            print(f"  VIOLATION p={p}")
        print(
            f"divisor-k rule up to {divisor_hi}: {len(divisor_violations)} violation(s)"
        )
        for p, k in divisor_violations:
            print(f"  VIOLATION p={p} k={k}")
    return EXIT_VIOLATION if k0_violations or divisor_violations else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erdos-straus",
        description=(
            "Witness search, recovery, brute-force cross-validation, and "
            "range verification for 4/p = 1/x + 1/y + 1/z over primes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="all witnesses and solutions for one prime")
    p_check.add_argument("p", type=int)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="brute-force solutions for any n >= 2")
    p_solve.add_argument("n", type=int)
    p_solve.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_scan = sub.add_parser("scan", help="verify a prime range and persist records")
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--exhaustive", action="store_true")
    p_scan.add_argument("--threads", type=int, default=1)
    p_scan.add_argument("--out", type=str, default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_table = sub.add_parser("table", help="emit the k table for type 1 or 2")
    p_table.add_argument("which", type=int, choices=(1, 2))
    p_table.add_argument("--hi", type=int, default=100)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", type=str, default=None)
    p_table.set_defaults(func=cmd_table)

    p_figure = sub.add_parser("figure", help="emit the (p, x) scatter data and plot")
    p_figure.add_argument("--hi", type=int, default=100)
    p_figure.add_argument("--points-out", type=str, default=None)
    p_figure.add_argument("--svg-out", type=str, default=None)
    p_figure.set_defaults(func=cmd_figure)

    p_compare = sub.add_parser(
        "compare", help=f"witness vs brute-force bijection and round-trips, HI <= {DEFAULT_CAP}"
    )
    p_compare.add_argument("lo", type=int)
    p_compare.add_argument("hi", type=int, help=f"at most {DEFAULT_CAP}, the oracle's cap")
    p_compare.add_argument("--json", action="store_true")
    p_compare.set_defaults(func=cmd_compare)

    p_props = sub.add_parser(
        "properties", help="structural k=0 and divisor-k rule checks"
    )
    p_props.add_argument("hi", type=int)
    p_props.add_argument("--divisor-hi", type=int, default=None)
    p_props.add_argument("--json", action="store_true")
    p_props.set_defaults(func=cmd_properties)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorrespondenceError as exc:
        print(f"correspondence violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
