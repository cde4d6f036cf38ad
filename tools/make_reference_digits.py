#!/usr/bin/env python3
"""Regenerate src/stirlingsum/data/reference_digits.txt.

    python tools/make_reference_digits.py

It takes no arguments. Each record is `<id> <decimal-string>` with exactly
1000 truncated fractional digits, computed by mpmath (independent of the
package's own recovery path). Every value is computed twice at different
working precisions and the two truncations must agree, which also guards
against an unlucky 000.../999... run at the cut position.
"""

import argparse
import hashlib
import pathlib
import sys

from mpmath import mp

FRACTIONAL_DIGITS = 1000

SPECS = [
    ("gamma", lambda: mp.euler),
    ("stieltjes1", lambda: mp.stieltjes(1)),
    ("pi", lambda: mp.pi),
    ("log2", lambda: mp.log(2)),
    ("log_pi", lambda: mp.log(mp.pi)),
    ("log_2pi", lambda: mp.log(2 * mp.pi)),
    ("zeta(-1/2)", lambda: mp.zeta(mp.mpf(-1) / 2)),
    ("zeta(1/2)", lambda: mp.zeta(mp.mpf(1) / 2)),
    ("zeta(3/2)", lambda: mp.zeta(mp.mpf(3) / 2)),
    ("zeta(2)", lambda: mp.zeta(2)),
    ("zeta(5/2)", lambda: mp.zeta(mp.mpf(5) / 2)),
    ("zeta(3)", lambda: mp.zeta(3)),
    ("zeta(7/2)", lambda: mp.zeta(mp.mpf(7) / 2)),
    ("zeta_prime(-1)", lambda: mp.zeta(-1, derivative=1)),
    ("zeta_prime(2)", lambda: mp.zeta(2, derivative=1)),
]


def truncated_decimal(value) -> str:
    """Sign, integer part, and FRACTIONAL_DIGITS truncated fractional digits."""
    sign = "-" if value < 0 else ""
    scaled = int(mp.floor(abs(value) * mp.mpf(10) ** FRACTIONAL_DIGITS))
    digits = str(scaled).rjust(FRACTIONAL_DIGITS + 1, "0")
    return f"{sign}{digits[:-FRACTIONAL_DIGITS]}.{digits[-FRACTIONAL_DIGITS:]}"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    records = []
    for name, compute in SPECS:
        with mp.workdps(FRACTIONAL_DIGITS + 40):
            first = truncated_decimal(compute())
        with mp.workdps(FRACTIONAL_DIGITS + 100):
            second = truncated_decimal(compute())
        if first != second:
            print(f"unstable truncation for {name}", file=sys.stderr)
            return 1
        records.append(f"{name} {second}\n")
    body = "".join(records)
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    out = (
        pathlib.Path(__file__).resolve().parents[1]
        / "src"
        / "stirlingsum"
        / "data"
        / "reference_digits.txt"
    )
    out.write_text(f"checksum sha256 {digest}\n{body}", encoding="ascii")
    print(f"wrote {out} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
