"""Command-line surface: disc, classify, monogenic, search, verify.

Exit codes are part of the contract: 0 success, 2 invalid input, 3 a
property or cross-check violation, 4 precision exhausted, 5 factoring
budget exhausted. Machine output (JSON or CSV) goes to stdout; progress and
summaries go to stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache

from . import __version__
from .classification import classify
from .errors import InvalidInputError, OracleViolationError, PrecisionExhaustedError
from .family import FamilyParams, member_classification, member_monogenicity
from .intarith import DEFAULT_BUDGET
from .monogenicity import monogenic
from .polynomial import IntPoly
from .polynomial import discriminant as discriminant_resultant
from .search import SearchSpec, SearchTally, ledger_record, run_search, run_verify

LEDGER_ENV = "PERRONPOLY_LEDGER"

CSV_COLUMNS = [
    "n", "a", "p", "poly", "disc", "G", "G_status", "irreducible",
    "monogenic", "class", "lambda", "theorem_applicable", "conclusion",
]


def _parse_poly(args: argparse.Namespace) -> IntPoly | FamilyParams:
    """The polynomial of --coeffs, or the family point of --trinomial."""
    if args.coeffs is not None and args.trinomial is not None:
        raise InvalidInputError("give either --coeffs or --trinomial, not both")
    if args.coeffs is not None:
        return IntPoly.from_text(args.coeffs)
    if args.trinomial is not None:
        return FamilyParams(*args.trinomial)
    raise InvalidInputError("one of --coeffs or --trinomial is required")


def _add_poly_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--coeffs", help="ascending comma-separated integer coefficients")
    sub.add_argument(
        "--trinomial",
        nargs=3,
        type=int,
        metavar=("N", "A", "P"),
        help="family member x^N - A*x^(N-1) - P",
    )


def cmd_disc(args: argparse.Namespace) -> int:
    point = FamilyParams(args.n, args.a, args.p)
    closed = point.disc
    oracle = discriminant_resultant(point.poly)
    print(f"{closed}, {oracle}")
    print(json.dumps({
        "n": args.n, "a": args.a, "p": args.p,
        "closed": closed, "resultant": oracle, "agree": closed == oracle,
    }))
    return 0 if closed == oracle else 3


def cmd_classify(args: argparse.Namespace) -> int:
    given = _parse_poly(args)
    result = member_classification(given) if isinstance(given, FamilyParams) else classify(given)
    print(json.dumps(result.to_json_dict()))
    return 0


def cmd_monogenic(args: argparse.Namespace) -> int:
    given = _parse_poly(args)
    decide = member_monogenicity if isinstance(given, FamilyParams) else monogenic
    report = decide(given, args.budget)
    print(json.dumps(report.to_json_dict()))
    return 5 if report.verdict.startswith("Unknown") else 0


def _search_values(
    fixed: int | None, range_max: int | None, lo: int, what: str
) -> tuple[int, ...]:
    if fixed is not None and range_max is not None:
        raise InvalidInputError(f"give either --{what} or --{what}max, not both")
    if fixed is not None:
        return (fixed,)
    if range_max is not None:
        return tuple(range(lo, range_max + 1))
    raise InvalidInputError(f"one of --{what} or --{what}max is required")


def cmd_search(args: argparse.Namespace) -> int:
    spec = SearchSpec(
        n_values=_search_values(args.n, args.nmax, 2, "n"),
        a_values=_search_values(args.a, args.amax, 1, "a"),
        p_max=args.pmax,
        coprime_only=args.coprime_only,
        budget=args.budget,
        p_min=args.pmin,
    )
    ledger_path = args.ledger or os.environ.get(LEDGER_ENV)
    try:
        ledger = open(ledger_path, "a", encoding="utf-8") if ledger_path else None
    except OSError as exc:
        raise InvalidInputError(f"cannot open ledger {ledger_path}: {exc.strerror}") from exc
    tally = SearchTally()
    writer = None
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)

    try:
        for cert in run_search(spec, tally):
            record = cert.to_json_dict()
            if writer is not None:
                writer.writerow(_csv_row(record))
            else:
                print(json.dumps(record))
            if ledger is not None:
                ledger.write(ledger_record(cert) + "\n")
                ledger.flush()
    finally:
        if ledger is not None:
            ledger.close()
    print(tally.summary(), file=sys.stderr)
    return 0


def _csv_row(record: dict) -> list:
    row = []
    for col in CSV_COLUMNS:
        value = record[col]
        if col == "lambda":
            value = "" if value is None else f"{float(value):.12g}"
        row.append(value)
    return row


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(nmax=args.nmax, amax=args.amax, p_limit=args.pmax, budget=args.budget)
    if report.passed:
        print(f"verify: all {report.points} grid points passed")
        return 0
    for failure in report.failures:
        print(f"FAIL {failure}")
    if report.truncated:
        print(f"... failure list truncated at {len(report.failures)}")
    print(f"verify: failures on the {report.grid}-point grid", file=sys.stderr)
    return 3


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="perronpoly",
        description="Monogenic strictly-Perron trinomials x^n - a*x^(n-1) - p: "
        "discriminants, classification, monogenicity, grid search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    disc = sub.add_parser("disc", help="closed-form and resultant discriminants")
    disc.add_argument("n", type=int)
    disc.add_argument("a", type=int)
    disc.add_argument("p", type=int)
    disc.set_defaults(func=cmd_disc)

    cls = sub.add_parser("classify", help="root-location class of a monic polynomial")
    _add_poly_flags(cls)
    cls.set_defaults(func=cmd_classify)

    mono = sub.add_parser("monogenic", help="monogenicity report for an irreducible polynomial")
    _add_poly_flags(mono)
    mono.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="factoring budget")
    mono.set_defaults(func=cmd_monogenic)

    search = sub.add_parser("search", help="sweep primes and emit certificates")
    search.add_argument("--n", type=int, help="fixed degree")
    search.add_argument("--nmax", type=int, help="degrees 2..NMAX")
    search.add_argument("--a", type=int, help="fixed a")
    search.add_argument("--amax", type=int, help="a values 1..AMAX")
    search.add_argument("--pmin", type=int, default=2, help="smallest prime (inclusive)")
    search.add_argument("--pmax", type=int, required=True, help="largest prime (inclusive)")
    search.add_argument("--coprime-only", action="store_true", help="skip gcd(a,n) > 1 pairs")
    search.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    search.add_argument("--format", choices=["json", "csv"], default="json")
    search.add_argument("--ledger", help=f"append JSON-lines records here (default ${LEDGER_ENV})")
    search.set_defaults(func=cmd_search)

    verify = sub.add_parser("verify", help="run the family invariant suite on a grid")
    verify.add_argument("--nmax", type=int, default=8)
    verify.add_argument("--amax", type=int, default=6)
    verify.add_argument("--pmax", type=int, default=300, help="primes p < PMAX")
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verify.set_defaults(func=cmd_verify)
    return parser


def _fold_coeffs(argv: list[str]) -> list[str]:
    """Join "--coeffs -1,-1,1" into "--coeffs=-1,-1,1" so a leading minus
    sign is not mistaken for a flag."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--coeffs" and i + 1 < len(argv):
            out.append(f"--coeffs={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_fold_coeffs(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleViolationError as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return 3
    except PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
