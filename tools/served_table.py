#!/usr/bin/env python3
"""Record what the package serves over a fixed grid, and compare two records.

    python tools/served_table.py record OUT
    python tools/served_table.py compare A B
    python tools/served_table.py pin OUT
    python tools/served_table.py check PINNED

``record`` writes one JSON line per case. First the fixed grids:
evaluations of all 32 formulas at n in N_GRID and digits in DIGIT_GRID with
brute force beside each, digamma at X_GRID and DIGAMMA_DIGITS, each constant
of ``RECOVERY_FORMULA`` recovered at RECOVERY_DIGITS from a fresh store with
its reference digits beside it, ``cli.main`` run in process on each command
of CLI_COMMANDS, and the deep cases of DEEP_EVALS and DEEP_RECOVERIES, each
served value of which must agree with its brute force or reference digits
to within 10^-digits: ``record`` and ``pin`` write nothing while any is
off, and name each. Then every request of the serve-warm lists of SEEDS
(``benchmark/workloads.py``). A served case keeps the bits of its value and
est_error and its terms_used, a served digamma case its shift instead of an
est_error, a recovery its n0; a refused one the same of its partial report.
A command keeps its stdout, stderr and exit code, with every ``elapsed_ms``
value masked; one that raises keeps exit 1 and the exception's last line.
Cases run in this order in one process, so each meets the caches the
earlier filled. Run it once per checkout, with that checkout's ``src`` on
PYTHONPATH; one copy of this script can record both sides of a comparison.

``pin`` records the fixed grids alone and writes a short hash of each case,
under a first line naming the Python and mpmath versions and the mpmath
backend it ran on; ``tests/served_bits.jsonl`` is made with

    PYTHONPATH=src python tools/served_table.py pin tests/served_bits.jsonl

A change that moves served bits on purpose re-pins in the same change.
``check`` records the fixed grids again, names every deep case off its
check and every case whose hash moved, and exits 1 when any is off, moved
or is missing from either side. Run it in a fresh process: what a store
keeps depends on every request before it.

``compare`` matches the cases of two records and prints, for each kind of
case apart, how many moved (value, terms_used, est_error, shift or n0,
served/refused, and an evaluation's brute-force check), the worst value move
in units of 10^-digits, and each record's worst distance from brute force,
``mpmath.digamma`` or the reference digits in the same units; and how many
CLI commands moved in stdout, stderr or exit code. It exits 1 when a case
is missing from either record, 0 otherwise. It reads the two records alone
and imports nothing from the package, so it needs no ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

N_GRID = (1, 2, 7, 30, 59, 100, 150, 199, 200, 201, 1000)  # and each domain_min
DIGIT_GRID = (10, 20, 30, 50, 100)
X_GRID = ("1/3", "3/4", "5/2", "7", "200", "100000", "10000000000", "0.1", "12345.678")
DIGAMMA_DIGITS = (10, 30, 50, 100)
RECOVERY_DIGITS = (20, 50, 100)
SEEDS = range(41, 51)
# text and --json forms, and refusals with exit codes 2 and 3; run in this
# order in one process, so each command meets the caches the earlier filled
CLI_COMMANDS = (
    "list", "list --json", "coeffs 1.1 -k 8", "coeffs 1.1 -k 8 --json",
    "eval 1.1 -n 10", "eval 1.1 -n 10 --compare", "eval 4.2 -n 7 -d 50 --compare --json",
    "eval 12.1 -n 200 -d 20 --json", "eval 15.2 -n 1e6 -d 40", "eval 10.3 -n 3 -d 60 --compare",
    "digamma 1/3", "digamma 12345.678 -d 50 --json", "digamma 7 -d 10",
    "recover 1.1 -d 40", "recover 12.1 -d 30 --json", "recover 11.1 -d 20 --n0 10",
    "verify --family 15", "verify --family 16 --json",
    "recover 1.1 -d 1001", "recover 1.1 -d 1001 --json", "eval 1.1 -n 10 -d 950",
    "eval 1.1 -n 10 -d 950 --json", "digamma 0", "eval 99.1 -n 5",
    "eval 1.1 -n 10 -d 4400", "eval 1.1 -n 10 -d 4400 --json",
)
# Deep cases, past the grids above: the transform past k = 600, root summands
# at 2W bits and the AGM log path past 2500 bits. (fid, n, digits) and
# (fid, digits, explicit n0 or None); 7.1 from n0 = 50 fails the anchor
# scan's fit test and falls back to its anchor with no series run at 50.
DEEP_EVALS = (("1.1", 10, 890), ("10.1", 10, 890), ("4.2", 7, 500))
DEEP_RECOVERIES = (("7.1", 600, None), ("7.1", 600, 50), ("9.1", 300, None), ("11.1", 700, None))
_ELAPSED = re.compile(r'(elapsed_ms"?[: ]"?)[0-9.]+')


def _import_package() -> None:
    """Bind the package names the recording cases use; ``compare`` reads two
    records alone, so it runs with no ``src`` on PYTHONPATH."""
    global catalog, cli, RECOVERY_FORMULA, ConstantStore, EvalContext, NonConvergenceError
    from stirlingsum import catalog, cli
    from stirlingsum.constants import RECOVERY_FORMULA, ConstantStore
    from stirlingsum.transform import EvalContext, NonConvergenceError


def _bits(v: mpf) -> list:
    sign, man, exp, _ = v._mpf_
    return [sign, hex(man), exp]


def _value(bits: list) -> mpf:
    sign, man, exp = bits
    return mp.make_mpf((sign, int(man, 16), exp, int(man, 16).bit_length()))


def _report(rep, served: bool) -> dict:
    return {"served": served, "value": _bits(rep.value), "terms": rep.terms_used,
            "est": _bits(rep.est_error)}


def _evaluate(fid: str, n: int, digits: int, brute: bool) -> dict:
    case = {"kind": "evaluate", "target": fid, "n": n, "digits": digits}
    try:
        case.update(_report(catalog.evaluate(fid, n, EvalContext(digits=digits)), True))
    except NonConvergenceError as exc:
        case.update(_report(exc.report, False))
    if brute:
        case["check"] = _bits(catalog.brute_force(fid, n, digits + 10))
    return case


def _digamma(x: str, digits: int) -> dict:
    """digamma reports no error estimate; ``est`` is None, and ``shift`` is
    None when it refuses."""
    case = {"kind": "digamma", "target": x, "n": None, "digits": digits}
    try:
        value, terms, shift = catalog.digamma_details(Fraction(x), digits)
        case.update(served=True, value=_bits(value), terms=terms, est=None, shift=shift)
    except NonConvergenceError as exc:
        case.update(_report(exc.report, False), shift=None)
    q = Fraction(x)
    with mp.workdps(digits + 20):
        case["check"] = _bits(mp.digamma(mpf(q.numerator) / q.denominator))
    return case


def _recover(fid: str, digits: int, n0: int | None = None) -> dict:
    """A recovery from a fresh store, from an explicit ``n0`` (the case's
    ``n``) or the model's anchor; the served ``n0`` is None when it refuses."""
    case = {"kind": "recover", "target": fid, "n": n0, "digits": digits}
    store = ConstantStore()
    cid = catalog.describe(fid).recover_target
    try:
        res = catalog.recover_details(fid, digits=digits, n0=n0, store=store)
        case.update(served=True, value=_bits(res.value), terms=res.terms_used, n0=res.n0)
    except NonConvergenceError as exc:
        case.update(_report(exc.report, False), n0=None)
    with mp.workdps(digits + 20):
        case["check"] = _bits(mpf(store.reference_digits(cid)))
    return case


def _cli(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(command.split())
        except Exception as exc:  # a crash: ``python -m stirlingsum`` exits 1 with a traceback
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    return {"kind": "cli", "target": command, "n": None, "digits": None,
            "stdout": _ELAPSED.sub(r"\1*", out.getvalue()), "stderr": err.getvalue(),
            "exit": code}


def _fixed_cases() -> tuple[list, list]:
    """The cases of the fixed grids, in the order they run, and the key of
    each deep case served off its check by more than 10^-digits."""
    cases = []
    for fid in map(str, catalog.formula_ids()):
        f = catalog.describe(fid)
        for n in sorted({f.domain_min, *(n for n in N_GRID if n >= f.domain_min)}):
            cases += [_evaluate(fid, n, digits, brute=True) for digits in DIGIT_GRID]
    cases += [_digamma(x, digits) for x in X_GRID for digits in DIGAMMA_DIGITS]
    cases += [_recover(fid, digits) for fid in RECOVERY_FORMULA.values()
              for digits in RECOVERY_DIGITS]
    cases += map(_cli, CLI_COMMANDS)
    deep = [_evaluate(fid, n, digits, brute=True) for fid, n, digits in DEEP_EVALS]
    deep += [_recover(fid, digits, n0) for fid, digits, n0 in DEEP_RECOVERIES]
    off = [_key(case)[:4] for case in deep if case["served"] and _units(
        _value(case["value"]), _value(case["check"]), case["digits"]) > 1]
    return cases + deep, off


def _refuse_off(off: list) -> None:
    """Write nothing while a deep case is off its check: name each, exit 1."""
    if off:
        raise SystemExit("".join(f"off its check by more than 10^-digits: {key}\n"
                                 for key in off) + "nothing written")


def record(out: str) -> None:
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
    from workloads import serve_warm

    cases, off = _fixed_cases()
    _refuse_off(off)
    for seed in SEEDS:
        for req in serve_warm(seed):
            if req.kind == "evaluate":
                case = _evaluate(req.target, req.n, req.digits, brute=req.n <= 1000)
            else:
                case = _digamma(req.target, req.digits)
            cases.append({**case, "seed": seed})
    with open(out, "w", encoding="ascii") as fh:
        for case in cases:
            fh.write(json.dumps(case) + "\n")
    print(f"{len(cases)} cases written to {out}")


def _environment() -> dict:
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND}


def _pins() -> tuple[dict, list]:
    """{case key: short hash of the case} over the fixed grids, and the deep
    cases off their check."""
    cases, off = _fixed_cases()
    return {_key(case): hashlib.sha256(json.dumps(case, sort_keys=True).encode()).hexdigest()[:12]
            for case in cases}, off


def pin(out: str) -> None:
    _import_package()
    pins, off = _pins()
    _refuse_off(off)
    with open(out, "w", encoding="ascii") as fh:
        fh.write(json.dumps(_environment()) + "\n")
        for key, digest in pins.items():
            fh.write(json.dumps([*key[:4], digest]) + "\n")
    print(f"{len(pins)} cases pinned in {out}")


def check(path: str) -> int:
    _import_package()
    with open(path, encoding="ascii") as fh:
        made_with = json.loads(fh.readline())
        pinned = {(*row[:4], None): row[4] for row in map(json.loads, fh)}
    pins, off = _pins()
    moved = [key for key in pinned.keys() & pins.keys() if pinned[key] != pins[key]]
    missing = pinned.keys() ^ pins.keys()
    print(f"{len(pins)} cases, {len(moved)} moved, {len(missing)} in one side only, "
          f"{len(off)} deep off their check"
          + "".join(f"\noff its check by more than 10^-digits: {key}" for key in off)
          + "".join(f"\nmoved: {key[:4]}" for key in sorted(moved, key=str))
          + "".join(f"\nin one side only: {key[:4]}" for key in sorted(missing, key=str)))
    if made_with != _environment():
        print(f"pinned on {made_with}, checked on {_environment()}")
    return 1 if moved or missing or off else 0


def _key(case: dict) -> tuple:
    return case["kind"], case["target"], case["n"], case["digits"], case.get("seed")


def _units(a: mpf, b: mpf, digits: int) -> mpf:
    with mp.workdps(digits + 60):
        return abs(a - b) * mpf(10) ** digits


def _load(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return {_key(case): case for case in map(json.loads, fh)}


# The fields compared per kind of case.
FIELDS = {"evaluate": ("value", "terms", "est", "served", "check"),
          "digamma": ("value", "terms", "shift", "served"),
          "recover": ("value", "terms", "n0", "served")}


def compare(a_path: str, b_path: str) -> int:
    a, b = _load(a_path), _load(b_path)
    both = a.keys() & b.keys()
    missing = len(a.keys() ^ b.keys())
    print(f"{len(both)} cases in both, {missing} in one only")
    for kind, fields in FIELDS.items():
        keys = sorted((key for key in both if key[0] == kind), key=str)
        moved = dict.fromkeys(fields, 0)
        worst, worst_case = mpf(0), None
        checks = {a_path: mpf(0), b_path: mpf(0)}
        for key in keys:
            ca, cb = a[key], b[key]
            for field in fields:
                moved[field] += ca.get(field) != cb.get(field)
            if ca["value"] != cb["value"]:
                units = _units(_value(ca["value"]), _value(cb["value"]), ca["digits"])
                if units > worst:
                    worst, worst_case = units, key
            for path, case in ((a_path, ca), (b_path, cb)):
                if case["served"] and "check" in case:
                    units = _units(_value(case["value"]), _value(case["check"]), case["digits"])
                    checks[path] = max(checks[path], units)
        print(f"{kind}: {len(keys)} cases, moved: "
              + ", ".join(f"{k} {v}" for k, v in moved.items()))
        print(f"{kind}: worst value move: {mp.nstr(worst, 3)} units of 10^-digits "
              f"at {worst_case}")
        for path, units in checks.items():
            print(f"{kind}: worst served distance from the check in {path}: "
                  f"{mp.nstr(units, 3)} units of 10^-digits")
    keys = sorted((key for key in both if key[0] == "cli"), key=str)
    moved = [key[1] for key in keys
             if any(a[key][f] != b[key][f] for f in ("stdout", "stderr", "exit"))]
    print(f"cli: {len(keys)} commands, moved: {len(moved)}"
          + "".join(f"\ncli: moved: {command}" for command in moved))
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="write the served table of this checkout")
    p.add_argument("out")
    p = sub.add_parser("compare", help="compare two recorded tables")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("pin", help="write a short hash per case of the fixed grids")
    p.add_argument("out")
    p = sub.add_parser("check", help="compare the fixed grids with their pinned hashes")
    p.add_argument("pinned")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out)
        return 0
    if args.command == "pin":
        pin(args.out)
        return 0
    if args.command == "check":
        return check(args.pinned)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
