"""Mathematical constants for formula heads, served at arbitrary precision.

The constants that appear in summation-formula heads (Euler's gamma, the
first Stieltjes constant, zeta values at integer and half-integer points,
zeta derivatives) are *recovered* from the package's own convergent series
rather than computed by unrelated special-function algorithms: the catalog
rearranges each summation identity to isolate its constant term.  Every
value served by :class:`ConstantStore` is cross-checked against an embedded
reference-digits file (independently computed, checksummed) before it is
returned, so a defect anywhere in the pipeline surfaces as a loud
:class:`ReferenceMismatchError` instead of silently wrong digits.

Purely elementary values (pi and logarithms) come straight from the
arithmetic layer; see :func:`elementary`.
"""

from __future__ import annotations

import os
import re
import threading
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, mpf_log, mpf_pi, round_nearest, to_str

from .exactnum import DomainError, _Keyed, _as_count
from .transform import EvaluationReport, NonConvergenceError, _as_ratio

__all__ = [
    "ConstantId",
    "ConstantStore",
    "ReferenceMismatchError",
    "GAMMA",
    "STIELTJES1",
    "PI",
    "LOG2",
    "LOG_PI",
    "LOG_2PI",
    "zeta",
    "zeta_prime",
    "default_store",
    "get_constant",
    "elementary",
    "truncate_decimal",
    "format_decimal",
    "digits_agree",
]

REFERENCE_PATH_ENV = "STIRLINGSUM_REFERENCE_DIGITS"
_REFERENCE_RESOURCE = "reference_digits.txt"

_SIMPLE_TAGS = frozenset({"gamma", "stieltjes1", "pi", "log2", "log_pi", "log_2pi"})
_PARAM_TAGS = frozenset({"zeta", "zeta_prime"})


class ConstantId(_Keyed):
    """Identity of a mathematical constant, e.g. ``zeta(3/2)`` or ``log_2pi``.

    ``key`` is the identity in a string and plain integers, so that hashing
    an id takes no modular inverse as a Fraction's hash does: the store and
    the catalog hash ids on every call.
    """

    __slots__ = ("tag", "s")

    def __init__(self, tag: str, s: Fraction | None = None):
        if tag in _SIMPLE_TAGS:
            if s is not None:
                raise DomainError(f"{tag} takes no argument")
        elif tag in _PARAM_TAGS:
            if s is None:
                raise DomainError(f"{tag} needs an argument")
            s = Fraction(s)
        else:
            raise DomainError(f"unknown constant tag {tag!r}")
        self._fill(tag, s, (tag,) if s is None else (tag, *s.as_integer_ratio()))

    def __str__(self) -> str:
        if self.s is None:
            return self.tag
        return f"{self.tag}({_render_fraction(self.s)})"

    @classmethod
    def parse(cls, text: str) -> "ConstantId":
        text = text.strip()
        if text in _SIMPLE_TAGS:
            return cls(text)
        m = re.fullmatch(r"(zeta|zeta_prime)\((-?\d+(?:/\d+)?)\)", text)
        if not m:
            raise DomainError(f"cannot parse constant id {text!r}")
        return cls(m.group(1), Fraction(m.group(2)))


def _render_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


GAMMA = ConstantId("gamma")
STIELTJES1 = ConstantId("stieltjes1")
PI = ConstantId("pi")
LOG2 = ConstantId("log2")
LOG_PI = ConstantId("log_pi")
LOG_2PI = ConstantId("log_2pi")


def zeta(s) -> ConstantId:
    return ConstantId("zeta", Fraction(s))


def zeta_prime(s) -> ConstantId:
    return ConstantId("zeta_prime", Fraction(s))


# pi and logarithms come from the arithmetic layer; everything else is
# recovered through a catalog formula whose head isolates it.
ELEMENTARY_IDS = frozenset({PI, LOG2, LOG_PI, LOG_2PI})

RECOVERY_FORMULA: dict[ConstantId, str] = {
    GAMMA: "1.1",
    zeta(2): "2.1",
    zeta(3): "3.1",
    zeta(Fraction(1, 2)): "7.1",
    zeta(Fraction(3, 2)): "8.1",
    zeta(Fraction(5, 2)): "9.1",
    zeta(Fraction(7, 2)): "6.1",
    zeta_prime(-1): "11.1",
    zeta_prime(2): "13.1",
    STIELTJES1: "12.1",
}

# keys of the servable ids: the store looks ids up by key, so that a lookup
# runs no Python-level hash or comparison
_SERVABLE = frozenset(c.key for c in ELEMENTARY_IDS | set(RECOVERY_FORMULA))


class ReferenceMismatchError(ArithmeticError):
    """A computed constant disagrees with its embedded reference digits."""


# ---------------------------------------------------------------------------
# Exact decimal rendering
# ---------------------------------------------------------------------------


def _scaled(value, digits: int, rounded: bool = False) -> tuple[bool, int]:
    """Whether ``value`` is negative, and |value|·10^digits as an integer:
    truncated toward zero, or rounded half away from zero.  Exact: it reads
    the binary value itself through ``_as_ratio``, not a reprint."""
    _as_count(digits, 1, "digits")
    if not isinstance(value, mpf) and hasattr(value, "_mpf_"):
        # an mpmath constant such as mp.pi, read at the current precision
        value = mp.make_mpf(value._mpf_)
    p, q = _as_ratio(value)
    num = abs(p) * 10**digits
    return p < 0, (2 * num + q) // (2 * q) if rounded else num // q


def _decimal_digits(n: int, width: int = 1) -> str:
    """The decimal digits of ``n >= 0``, zero-padded to ``width``.  Past 2000
    bits (602 digits, under the least int/str limit CPython accepts) it
    splits ``n`` by divmod against a power of ten, so no ``str()`` meets the
    limit and the process-wide setting stays as it is."""
    if n.bit_length() <= 2000:
        return str(n).rjust(width, "0")
    low_width = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**low_width)
    return _decimal_digits(high, width - low_width) + _decimal_digits(low, low_width)


def _render(negative: bool, scaled: int, digits: int) -> str:
    s = _decimal_digits(scaled, digits + 1)
    return f"{'-' if negative else ''}{s[:-digits]}.{s[-digits:]}"


def truncate_decimal(value, digits: int) -> str:
    """Decimal string with exactly ``digits`` fractional digits, truncated
    toward zero.  Exact: works on the binary value itself, not a reprint."""
    return _render(*_scaled(value, digits), digits)


def format_decimal(value, digits: int) -> str:
    """Decimal string with ``digits`` fractional digits, rounded half away
    from zero — the display form used by the command-line surface."""
    return _render(*_scaled(value, digits, rounded=True), digits)


_DECIMAL_RE = re.compile(r"(-?)(\d+)\.(\d+)")


def _split_decimal(text: str) -> tuple[str, str, str]:
    m = _DECIMAL_RE.fullmatch(text)
    if not m:
        raise DomainError(f"malformed decimal string {text!r}")
    return m.group(1), m.group(2), m.group(3)


def digits_agree(value, reference: str, digits: int) -> bool:
    """True when ``value`` truncated at ``digits`` fractional digits matches
    the reference decimal string's sign, integer part, and digit prefix."""
    ref_sign, ref_int, ref_frac = _split_decimal(reference)
    use = min(digits, len(ref_frac))
    negative, scaled = _scaled(value, use)
    prefix = ref_int + ref_frac[:use]
    # -0.000…0 and 0.000…0 agree; anything else with a sign flip does not
    return (_decimal_digits(scaled, len(prefix)) == prefix
            and (negative == bool(ref_sign) or not scaled))


# ---------------------------------------------------------------------------
# Reference digits file
# ---------------------------------------------------------------------------


def _sha256_hex(data: bytes) -> str:
    """Hex SHA-256 from CPython's built-in module, imported on first use.

    ``hashlib`` would load OpenSSL: about 3.5 MiB resident and 4 ms of import.
    The built-in hash of the 15186-byte reference body takes about 89 µs
    against 13 µs through OpenSSL, once per :class:`ConstantStore`."""
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython 3.12 and later
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _package_data(name: str) -> str:
    """ASCII text of ``data/<name>``, read by this module's own loader, so a
    zip-imported package reads it too without ``importlib.resources``."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("ascii")


def _load_references(path: str | os.PathLike | None) -> dict[str, str]:
    if path is None:
        path = os.environ.get(REFERENCE_PATH_ENV)
    where = path if path is not None else f"data/{_REFERENCE_RESOURCE}"
    try:
        if path is None:
            text = _package_data(_REFERENCE_RESOURCE)
        else:
            with open(path, encoding="ascii") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:  # missing, unreadable, or not ASCII
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"reference digits file: {where}: cannot read: {reason}") from None
    header, _, body = text.partition("\n")
    fields = header.split()
    if len(fields) != 3 or fields[0] != "checksum" or fields[1] != "sha256":
        raise DomainError("reference digits file: missing checksum header")
    if _sha256_hex(body.encode("ascii")) != fields[2]:
        raise DomainError("reference digits file: checksum mismatch")
    refs: dict[str, str] = {}
    for number, line in enumerate(body.splitlines(), 2):  # the header is line 1
        fields = line.split()
        try:
            if len(fields) != 2:
                raise DomainError(f"need a name and its digits, got {len(fields)} fields")
            _split_decimal(fields[1])  # validates the shape
            refs[str(ConstantId.parse(fields[0]))] = fields[1]
        except DomainError as exc:
            raise DomainError(f"reference digits file: {where}: line {number}: {exc}") from None
    return refs


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class ConstantStore:
    """Cache and provenance checks for head constants.

    Cache reads are lock-free; computation is serialized per constant, so
    distinct constants may be recovered concurrently.  ``compute_count``
    increments once per fresh computation (never on a cache hit). More
    digits than a constant's reference string holds are refused with
    :class:`NonConvergenceError`, since nothing could check them.
    """

    def __init__(self, reference_path: str | os.PathLike | None = None):
        self._reference_path = reference_path
        self._references: dict[str, str] | None = None
        self._cache: dict[tuple, tuple[int, mpf]] = {}  # keyed on ConstantId.key
        self._meta = threading.Lock()
        self._locks: dict[tuple, threading.Lock] = {}
        self.compute_count = 0

    @property
    def references(self) -> dict[str, str]:
        if self._references is None:
            with self._meta:
                if self._references is None:
                    self._references = _load_references(self._reference_path)
        return self._references

    def reference_digits(self, cid: ConstantId | str) -> str:
        try:
            return self.references[str(cid)]
        except KeyError:
            raise DomainError(f"no reference digits for {cid}") from None

    def cached_digits(self, cid: ConstantId) -> int:
        """Digits available in cache for ``cid`` (0 when absent)."""
        hit = self._cache.get(cid.key)
        return hit[0] if hit else 0

    def check_reach(self, cid: ConstantId, digits: int) -> None:
        """Refuse ``digits`` past the reference string of ``cid``: no
        independent check could cover them."""
        reach = len(_split_decimal(self.reference_digits(cid))[2])
        if _as_count(digits, 1, "digits") > reach:
            raise NonConvergenceError(
                f"{cid} at {digits} digits: past its {reach}-digit reference",
                EvaluationReport(mpf("nan"), 0, mpf("inf"), digits, 0.0),
            )

    def get(self, cid: ConstantId, digits: int) -> mpf:
        _as_count(digits, 1, "digits")
        hit = self._cache.get(cid.key)
        if hit is not None and hit[0] >= digits:
            return hit[1]
        if cid.key not in _SERVABLE:  # only servable ids are ever cached
            raise DomainError(f"constant {cid} is not servable")
        self.check_reach(cid, digits)
        with self._lock_for(cid):
            hit = self._cache.get(cid.key)
            if hit is not None and hit[0] >= digits:
                return hit[1]
            value = self._compute(cid, digits)
            self._admit(cid, digits, value)
            return value

    def _lock_for(self, cid: ConstantId) -> threading.Lock:
        with self._meta:
            return self._locks.setdefault(cid.key, threading.Lock())

    def _admit(self, cid: ConstantId, digits: int, value: mpf) -> None:
        if not digits_agree(value, self.reference_digits(cid), digits):
            raise ReferenceMismatchError(
                f"{cid} at {digits} digits disagrees with the embedded reference"
            )
        with self._meta:
            best = self._cache.get(cid.key)
            if best is None or best[0] < digits:
                self._cache[cid.key] = (digits, value)

    def _compute(self, cid: ConstantId, digits: int) -> mpf:
        with self._meta:
            self.compute_count += 1
        if cid == LOG2:
            return elementary("log", digits, 2)
        if cid in ELEMENTARY_IDS:
            pi = elementary("pi", digits)
            if cid == PI:
                return pi
            # doubling is exact, so 2*pi needs no precision context
            return elementary("log", digits, pi if cid == LOG_PI else mp.ldexp(pi, 1))
        from . import catalog

        return catalog.recover_details(
            RECOVERY_FORMULA[cid], digits=digits, store=self
        ).value


_DEFAULT_STORE = ConstantStore()


def default_store() -> ConstantStore:
    """The process-wide store used when no explicit store is passed."""
    return _DEFAULT_STORE


def get_constant(cid: ConstantId, digits: int) -> mpf:
    """Value of ``cid`` correct to ``digits`` decimal digits (cached)."""
    return _DEFAULT_STORE.get(cid, digits)


def elementary(op: str, digits: int, x=None) -> mpf:
    """``pi``, or ``log`` of an int, float, decimal string or mpf, at digits + 10 digits."""
    _as_count(digits, 1, "digits")
    prec = dps_to_prec(digits + 10)
    if op == "pi":
        return mp.make_mpf(mpf_pi(prec, round_nearest))
    if op != "log":
        raise DomainError(f"unknown elementary op {op!r}")
    if x is None:
        raise DomainError("missing argument")
    xv = mpf(x, prec=prec, rounding=round_nearest)
    if xv <= 0:
        raise DomainError(f"log needs x > 0, got {to_str(xv._mpf_, digits + 10)}")
    return mp.make_mpf(mpf_log(xv._mpf_, prec, round_nearest))
