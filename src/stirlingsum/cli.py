"""Command-line surface.

Subcommands: ``list``, ``coeffs``, ``eval``, ``digamma``, ``recover``,
``verify``, ``bench``.  ``--json`` switches any of them to json-lines output
in which every high-precision number travels as a decimal string.  Exit
codes: 0 success, 2 usage or domain error, 3 numerical non-convergence;
``verify`` exits 1 when any variant fails its brute-force check.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
import time
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_int, mpf_abs, mpf_pow_int, mpf_sub, round_nearest

from . import catalog
from .constants import ReferenceMismatchError, _decimal_digits, format_decimal
from .exactnum import DomainError
from .transform import EvalContext, NonConvergenceError


def _rational(q: Fraction) -> str:
    sign = "-" if q < 0 else ""
    return f"{sign}{_decimal_digits(abs(q.numerator))}/{_decimal_digits(q.denominator)}"


def _magnitude(x) -> str:
    return mp.nstr(x, 3)


def _distance(a: mpf, b: mpf, digits: int) -> mpf:
    """|a - b| rounded once at ``digits`` decimal digits."""
    return mp.make_mpf(mpf_abs(mpf_sub(a._mpf_, b._mpf_, dps_to_prec(digits), round_nearest)))


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}"


def _parse_count(text: str) -> int:
    """Integer counts, exactly, accepting scientific shorthand like ``1e6``.

    More than 4300 digits (the cap ``int(str)`` applies) are refused before
    they are expanded. Errors are ``argparse.ArgumentTypeError``, whose
    message argparse prints as the reason.
    """
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}: not a number") from None
    if not value.is_finite():
        reason = "not a finite number"
    elif value.adjusted() >= 4300:
        reason = "more than 4300 digits"
    elif value != value.to_integral_value():
        reason = "not an integer"
    else:
        return int(value)
    raise argparse.ArgumentTypeError(f"invalid count {text!r}: {reason}")


def _parse_real(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a number: {text!r}") from None


def _field_lines(record: dict, *hidden: str) -> list[str]:
    """One ``key value`` line per field of ``record``, those ``hidden`` left out."""
    return [f"{key} {value}" for key, value in record.items() if key not in hidden]


def _print_record(args, record: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(record, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _family_ids(family: int | None) -> tuple:
    """Every formula id, or those of ``family``, which must be in the catalog."""
    ids = catalog.formula_ids()
    if family is None:
        return ids
    if family not in catalog.VARIANT_COUNTS:
        raise DomainError(f"unknown formula family {family}")
    return tuple(i for i in ids if i.family == family)


def cmd_list(args) -> int:
    for fid in _family_ids(args.family):
        f = catalog.describe(fid)
        constants = [str(c) for c in f.constants]
        record = {
            "id": str(fid),
            "lhs": f.lhs,
            "constants": constants,
            "domain_min": f.domain_min,
            "alternating": f.alternating,
        }
        line = f"{fid}  {f.lhs}  [{', '.join(constants)}]  n>={f.domain_min}"
        _print_record(args, record, [line])
    return 0


def cmd_coeffs(args) -> int:
    values = catalog.coefficients(args.id, args.k)
    rendered = [_rational(c) for c in values]
    record = {"id": str(catalog.FormulaId.parse(args.id)), "k": args.k,
              "coefficients": rendered}
    lines = [f"{k} {text}" for k, text in enumerate(rendered, 1)]
    _print_record(args, record, lines)
    return 0


def cmd_eval(args) -> int:
    rep = catalog.evaluate(args.id, args.n, EvalContext(digits=args.digits))
    record = {
        "id": str(catalog.FormulaId.parse(args.id)),
        "n": args.n,
        "digits": args.digits,
        "value": format_decimal(rep.value, args.digits),
        "terms": rep.terms_used,
        "est_error": _magnitude(rep.est_error),
        "elapsed_ms": _ms(rep.elapsed),
    }
    if args.compare:
        ref = catalog.brute_force(args.id, args.n, args.digits + 10)
        record["brute"] = format_decimal(ref, args.digits)
        record["difference"] = _magnitude(_distance(rep.value, ref, args.digits + 30))
    _print_record(args, record, _field_lines(record, "id", "n", "digits"))
    return 0


def cmd_digamma(args) -> int:
    x = _parse_real(args.x)
    t0 = time.perf_counter()
    value, terms, _ = catalog.digamma_details(x, args.digits)
    elapsed = time.perf_counter() - t0
    text = format_decimal(value, args.digits)
    record = {
        "x": args.x,
        "digits": args.digits,
        "value": text,
        "terms": terms,
        "elapsed_ms": _ms(elapsed),
    }
    lines = [text, f"terms {terms}", f"elapsed_ms {record['elapsed_ms']}"]
    _print_record(args, record, lines)
    return 0


def cmd_recover(args) -> int:
    res = catalog.recover_details(args.id, digits=args.digits, n0=args.n0)
    record = {
        "id": str(catalog.FormulaId.parse(args.id)),
        "constant": str(res.constant),
        "digits": args.digits,
        "value": format_decimal(res.value, args.digits),
        "n0": res.n0,
        "terms": res.terms_used,
    }
    _print_record(args, record, _field_lines(record, "id", "digits"))
    return 0


def cmd_verify(args) -> int:
    if args.all == (args.family is not None):
        raise DomainError("pass exactly one of --all or --family")
    ids = _family_ids(args.family)
    digits = args.digits
    tol = mp.make_mpf(mpf_pow_int(from_int(10), 5 - digits, 53, round_nearest))  # 53 bits suffice
    failures = 0
    for fid in ids:
        f = catalog.describe(fid)
        if args.n is not None:
            if args.n < f.domain_min:
                raise DomainError(f"{fid} needs n >= {f.domain_min}, got {args.n}")
            n_set = [args.n]
        else:
            n_set = sorted({f.domain_min + 2, 10, 100})
        max_diff = mpf(0)
        for n in n_set:
            rep = catalog.evaluate(fid, n, EvalContext(digits=digits))
            ref = catalog.brute_force(fid, n, digits + 10)
            max_diff = max(max_diff, _distance(rep.value, ref, digits + 30))
        passed = max_diff < tol
        failures += not passed
        status = "pass" if passed else "fail"
        record = {
            "id": str(fid),
            "status": status,
            "n": n_set,
            "digits": digits,
            "max_difference": _magnitude(max_diff),
        }
        line = f"{fid} {status.upper()} max_diff {record['max_difference']}"
        _print_record(args, record, [line])
    summary = {"passed": len(ids) - failures, "failed": failures}
    _print_record(args, summary, [f"passed {summary['passed']} failed {failures}"])
    return 1 if failures else 0


def cmd_bench(args) -> int:
    import statistics  # imported on use: no other command needs it

    if args.repeat < 1:
        raise DomainError(f"need --repeat >= 1, got {args.repeat}")
    if args.target == "digamma":
        if args.x is None:
            raise DomainError("bench digamma needs --x")
        x = _parse_real(args.x)
        params = {"x": args.x}

        def call() -> int:
            return catalog.digamma_details(x, args.digits)[1]
    else:
        if args.id is None or args.n is None:
            raise DomainError("bench eval needs --id and -n")
        params = {"id": str(catalog.FormulaId.parse(args.id)), "n": args.n}

        def call() -> int:
            return catalog.evaluate(args.id, args.n, EvalContext(digits=args.digits)).terms_used
    call()  # warm the number caches
    runs: list[float] = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        terms = call()
        runs.append(time.perf_counter() - t0)
    record = {
        "target": args.target,
        **params,
        "digits": args.digits,
        "runs": args.repeat,
        "median_ms": _ms(statistics.median(runs)),
        "min_ms": _ms(min(runs)),
        "terms": terms,
    }
    _print_record(args, record, _field_lines(record))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingsum",
        description="Convergent inverse-factorial series for classical sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the catalog formulas")
    p.add_argument("--family", type=int, default=None, help="restrict to one family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("coeffs", help="exact series coefficients of a formula")
    p.add_argument("id", help="formula id, e.g. 1.1")
    p.add_argument("-k", type=int, required=True, help="number of coefficients")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate a formula's right-hand side at n")
    p.add_argument("id")
    p.add_argument("-n", type=_parse_count, required=True)
    p.add_argument("-d", "--digits", type=int, default=30)
    p.add_argument("--compare", action="store_true",
                   help="also run brute force and report the difference")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("digamma", help="digamma function at x > 0")
    p.add_argument("x")
    p.add_argument("-d", "--digits", type=int, default=30)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_digamma)

    p = sub.add_parser("recover", help="recover the unknown head constant")
    p.add_argument("id")
    p.add_argument("-d", "--digits", type=int, default=30)
    p.add_argument("--n0", type=int, default=None,
                   help="summation anchor (>= 2; default: the cost model's, "
                        "to which one that refuses falls back once)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("verify", help="check formulas against brute force")
    p.add_argument("--all", action="store_true")
    p.add_argument("--family", type=int, default=None)
    p.add_argument("-n", type=_parse_count, default=None,
                   help="single n value (default: domain_min+2, 10, 100)")
    p.add_argument("-d", "--digits", type=int, default=30)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="wall-time benchmarks")
    p.add_argument("target", choices=["digamma", "eval"])
    p.add_argument("--x", default=None, help="digamma argument")
    p.add_argument("--id", default=None, help="formula id for eval")
    p.add_argument("-n", type=_parse_count, default=None)
    p.add_argument("-d", "--digits", type=int, default=30)
    p.add_argument("-r", "--repeat", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        rep = exc.report
        record = {
            "error": "non-convergence",
            "message": str(exc),
            "terms": rep.terms_used,
            "est_error": _magnitude(rep.est_error),
        }
        lines = [f"error non-convergence: {exc}"]
        # a recovery that never converged has no partial constant estimate;
        # the report's value there is a raw series fragment, not the target
        if args.command != "recover":
            record["partial_value"] = format_decimal(rep.value, getattr(args, "digits", 30))
            lines.append(f"partial_value {record['partial_value']}")
        lines += [f"terms {rep.terms_used}", f"est_error {record['est_error']}"]
        _print_record(args, record, lines)
        return 3
    except ReferenceMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
