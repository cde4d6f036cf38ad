"""Tests for constant identities, the reference store, and recovery."""

import concurrent.futures
import decimal
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_floor

from stirlingsum import catalog, constants
from stirlingsum.constants import (
    ELEMENTARY_IDS,
    GAMMA,
    LOG2,
    LOG_2PI,
    LOG_PI,
    PI,
    STIELTJES1,
    ConstantId,
    ConstantStore,
    ReferenceMismatchError,
    default_store,
    digits_agree,
    elementary,
    format_decimal,
    get_constant,
    truncate_decimal,
    zeta,
    zeta_prime,
)
from stirlingsum.exactnum import DomainError
from stirlingsum.transform import EvalContext

GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"
PI_50 = "3.14159265358979323846264338327950288419716939937510"


# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------


def test_constant_id_rendering():
    assert str(GAMMA) == "gamma"
    assert str(zeta(2)) == "zeta(2)"
    assert str(zeta(F(3, 2))) == "zeta(3/2)"
    assert str(zeta(F(-1, 2))) == "zeta(-1/2)"
    assert str(zeta_prime(-1)) == "zeta_prime(-1)"


def test_constant_id_parse_round_trip():
    for cid in [GAMMA, STIELTJES1, PI, LOG2, LOG_PI, LOG_2PI,
                zeta(2), zeta(F(3, 2)), zeta_prime(-1), zeta_prime(2)]:
        assert ConstantId.parse(str(cid)) == cid


@pytest.mark.parametrize("bad", ["zeta", "gamma(2)", "nope", "zeta(a)", ""])
def test_constant_id_rejects_malformed(bad):
    with pytest.raises(DomainError):
        ConstantId.parse(bad)


def test_constant_id_equality_and_hash_follow_the_identity():
    same = [(ConstantId.parse("zeta(3/2)"), zeta(F(6, 4))),
            (ConstantId.parse("zeta_prime(-1)"), zeta_prime(-1)),
            (ConstantId.parse("gamma"), GAMMA)]
    for parsed, built in same:
        assert parsed == built and hash(parsed) == hash(built)
        assert {built: 1}[parsed] == 1
    distinct = {zeta(2), zeta_prime(2), zeta(F(1, 2)), zeta(F(-1, 2)), GAMMA, STIELTJES1}
    assert len(distinct) == 6
    assert zeta(F(1, 2)) != zeta(F(-1, 2))


@pytest.mark.parametrize("fid", ["14.1", "4.1", "13.1"])
def test_warm_evaluation_hashes_no_fraction(fid, monkeypatch):
    # constant ids hash their plain-integer key; a Fraction hash takes a
    # modular inverse. 4.1 and 13.1 carry zeta(3/2) and zeta_prime(2).
    ctx = EvalContext(digits=30)
    catalog.evaluate(fid, 5, ctx)
    hashed = []
    original = F.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(F, "__hash__", counting)
    for _ in range(3):
        catalog.evaluate(fid, 5, ctx)
    assert hashed == []


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------


def test_truncate_decimal_cuts_toward_zero():
    assert truncate_decimal(F(1, 4), 3) == "0.250"
    assert truncate_decimal(F(-1, 3), 5) == "-0.33333"
    assert truncate_decimal(F(1999, 1000), 2) == "1.99"
    assert truncate_decimal(mpf(25) / 12, 4) == "2.0833"


def test_format_decimal_rounds_half_away_from_zero():
    assert format_decimal(F(1, 16), 3) == "0.063"
    assert format_decimal(F(-1, 16), 3) == "-0.063"
    assert format_decimal(F(9999, 10000), 3) == "1.000"
    assert format_decimal(F(25, 2), 1) == "12.5"
    # rounding differs from truncation when the next digit is >= 5
    assert truncate_decimal(F(1, 16), 3) == "0.062"


def test_digits_agree_compares_truncated_prefixes():
    with mp.workdps(45):
        assert digits_agree(mp.pi, PI_50, 30)
        assert digits_agree(mp.pi + mpf("1e-35"), PI_50, 30)
        assert not digits_agree(mp.pi + mpf("1e-10"), PI_50, 30)
        assert not digits_agree(-mp.pi, PI_50, 30)


def test_decimal_digits_pass_the_int_to_str_limit():
    # CPython refuses str() of an int past 4300 digits; the chunked
    # conversion prints every digit and leaves that limit as it is
    limit = sys.get_int_max_str_digits()
    n = 10**5000 + 123456789
    expected = "1" + "0" * 4991 + "123456789"
    assert constants._decimal_digits(n) == expected
    assert constants._decimal_digits(n, 6000) == "0" * 999 + expected
    odd = 3**20000 // 7  # 9542 digits, no run of more than 3 zeros to hide a lost chunk
    assert constants._decimal_digits(odd) == str(decimal.Decimal(odd))
    assert constants._decimal_digits(0) == "0" and constants._decimal_digits(7, 3) == "007"
    assert sys.get_int_max_str_digits() == limit


def test_digits_agree_reads_references_past_the_int_to_str_limit():
    third = mp.make_mpf(from_rational(1, 3, 17000, round_floor))  # about 5100 digits
    assert digits_agree(third, "0." + "3" * 5000, 5000)
    assert not digits_agree(third, "0." + "3" * 4999 + "4", 5000)
    assert truncate_decimal(third, 4400) == "0." + "3" * 4400


def _exact(value) -> F:
    """The exact rational of ``value``, read apart from the package's code."""
    if isinstance(value, (int, float, F)):
        return F(value)
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def _decimal_text(value: F, digits: int, rounding: str) -> str:
    """``value`` at ``digits`` fractional digits by the ``decimal`` module.

    The quotient is cut toward zero past ``digits + 1`` significant fractional
    digits, then rounded: a cut below the last kept digit moves neither a
    truncation nor a half-away-from-zero rounding."""
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(abs(value.numerator) // value.denominator)) + digits + 5
        ctx.rounding = decimal.ROUND_DOWN
        cut = decimal.Decimal(value.numerator) / value.denominator
        return format(cut.quantize(decimal.Decimal(1).scaleb(-digits), rounding=rounding), "f")


_TINY = mpf(2) ** -200
_DECIMAL_VALUES = st.one_of(
    st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
              st.integers(-(2**130), 2**130), st.integers(-260, 60)),
    st.sampled_from([_TINY, -_TINY, mpf(0), mp.pi]),
    st.fractions(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300)
@given(_DECIMAL_VALUES, st.integers(1, 60), st.integers(0, 5))
def test_decimal_core_matches_the_decimal_module(value, digits, extra):
    with mp.workprec(mp.prec + 40 * extra):  # mp.pi renders at the current precision
        exact = _exact(value)
        cut = truncate_decimal(value, digits)
        assert cut == _decimal_text(exact, digits, decimal.ROUND_DOWN)
        assert format_decimal(value, digits) == _decimal_text(exact, digits, decimal.ROUND_HALF_UP)
        if -F(1, 10**digits) < exact < 0:
            assert cut == "-0." + "0" * digits
        # a reference with more digits than are compared, and one with fewer
        longer = _decimal_text(exact, digits + extra, decimal.ROUND_DOWN)
        assert digits_agree(value, longer, digits)
        assert digits_agree(value, cut, digits + extra)
        # a sign flip agrees only on a zero prefix
        flipped = longer[1:] if longer.startswith("-") else "-" + longer
        zero = set(cut.lstrip("-")) <= {"0", "."}
        assert digits_agree(value, flipped, digits) == zero
        # one compared digit moved never agrees
        last = len(cut) - 1
        moved = cut[:last] + str((int(cut[last]) + 1 + extra) % 10)
        assert not digits_agree(value, moved + longer[last + 1:], digits)


@pytest.mark.parametrize("bad", [mpf("inf"), mpf("-inf"), mpf("nan"),
                                 float("inf"), float("-inf"), float("nan")])
def test_decimal_core_refuses_non_finite_values(bad):
    for render in (truncate_decimal, format_decimal):
        with pytest.raises(DomainError):
            render(bad, 5)
    with pytest.raises(DomainError):
        digits_agree(bad, PI_50, 5)


# ---------------------------------------------------------------------------
# Reference file
# ---------------------------------------------------------------------------


def test_reference_file_loads_and_covers_all_ids():
    refs = default_store().references
    assert len(refs) == 15
    for name, digits in refs.items():
        ConstantId.parse(name)
        head, _, frac = digits.partition(".")
        assert frac and len(frac) == 1000
        assert head.lstrip("-").isdigit()


def test_reference_prefixes_match_known_values():
    store = default_store()
    assert store.reference_digits(GAMMA).startswith(GAMMA_50)
    assert store.reference_digits(PI).startswith(PI_50)
    assert store.reference_digits(zeta(2)).startswith("1.6449340668")
    assert store.reference_digits("zeta(-1/2)").startswith("-0.2078862249")


def test_reference_digits_have_no_long_zero_or_nine_runs():
    # a long 000.../999... run straddling a comparison point would make
    # truncated-prefix agreement checks ambiguous; the table has none
    for digits in default_store().references.values():
        frac = digits.partition(".")[2]
        assert "0" * 15 not in frac
        assert "9" * 15 not in frac


def test_tampered_reference_file_is_rejected(tmp_path):
    # one flipped digit under the stale checksum must refuse to load
    import importlib.resources as resources

    raw = (
        resources.files("stirlingsum")
        .joinpath("data/reference_digits.txt")
        .read_text("ascii")
    )
    assert raw.splitlines()[0].startswith("checksum sha256 ")
    bad = tmp_path / "tampered.txt"
    bad.write_text(raw.replace("3.14159", "3.14158", 1), "ascii")
    store = ConstantStore(reference_path=bad)
    with pytest.raises(DomainError):
        _ = store.references


def _sealed(body: str) -> str:
    """``body`` under a checksum header that matches it."""
    import hashlib

    return f"checksum sha256 {hashlib.sha256(body.encode('ascii')).hexdigest()}\n{body}"


@pytest.mark.parametrize("edit, where", [
    # checksummed, but a blank line, or a line without exactly two fields
    (lambda body: body.replace("\n", "\n\n", 1), "line 3"),
    (lambda body: body.replace(" ", " extra ", 1), "line 2"),
    (lambda body: body + "pi\n", "line 17"),
    (None, "cannot read"),  # a path that names no file
], ids=["blank-line", "three-fields", "one-field", "no-file"])
def test_malformed_reference_file_names_the_file_and_line(tmp_path, edit, where):
    import importlib.resources as resources

    raw = resources.files("stirlingsum").joinpath("data/reference_digits.txt").read_text("ascii")
    path = tmp_path / "refs.txt"
    if edit is not None:
        path.write_text(_sealed(edit(raw.partition("\n")[2])), "ascii")
    store = ConstantStore(reference_path=path)
    with pytest.raises(DomainError, match=f"^reference digits file: .*refs.txt.*{where}"):
        _ = store.references


def test_reference_digest_matches_hashlib():
    # the built-in SHA-256 the store checks with agrees with hashlib's
    import hashlib
    import importlib.resources as resources

    from stirlingsum.constants import _sha256_hex

    raw = resources.files("stirlingsum").joinpath("data/reference_digits.txt").read_bytes()
    header, _, body = raw.partition(b"\n")
    for data in (body, b"", raw):
        assert _sha256_hex(data) == hashlib.sha256(data).hexdigest()
    assert header.split()[2].decode("ascii") == _sha256_hex(body)


def test_missing_packaged_reference_file_names_it(monkeypatch):
    # the packaged file is read by the package's loader, and a failed read
    # takes the same path as an unreadable file named by the caller
    monkeypatch.setattr(constants, "_REFERENCE_RESOURCE", "no_such_digits.txt")
    monkeypatch.delenv(constants.REFERENCE_PATH_ENV, raising=False)
    with pytest.raises(DomainError, match="^reference digits file: data/no_such_digits.txt: "
                                          "cannot read: "):
        _ = ConstantStore().references


def test_reference_path_env_override(tmp_path, monkeypatch):
    import importlib.resources as resources

    raw = (
        resources.files("stirlingsum")
        .joinpath("data/reference_digits.txt")
        .read_text("ascii")
    )
    copy = tmp_path / "refs.txt"
    copy.write_text(raw, "ascii")
    monkeypatch.setenv("STIRLINGSUM_REFERENCE_DIGITS", str(copy))
    store = ConstantStore()
    assert store.reference_digits(PI).startswith("3.14159")


# ---------------------------------------------------------------------------
# Elementary constants
# ---------------------------------------------------------------------------


def test_elementary_values():
    with mp.workdps(40):
        assert abs(elementary("pi", 30) - mp.pi) < mpf("1e-30")
        assert elementary("log", 30, x=1) == 0
        assert abs(elementary("log", 30, x=2) - mp.log(2)) < mpf("1e-30")


def test_elementary_rejects_bad_input():
    with pytest.raises(DomainError):
        elementary("log", 30, x=0)
    with pytest.raises(DomainError):
        elementary("log", 30, x=-3)
    with pytest.raises(DomainError):
        elementary("exp", 30, x=1)
    with pytest.raises(DomainError):
        elementary("pi", 0)


def test_log_2pi_splits_into_log2_plus_log_pi():
    store = ConstantStore()
    with mp.workdps(50):
        lhs = store.get(LOG_2PI, 45)
        rhs = store.get(LOG2, 45) + store.get(LOG_PI, 45)
        assert abs(lhs - rhs) < mpf("1e-44")


# ---------------------------------------------------------------------------
# Serving, caching, recovery
# ---------------------------------------------------------------------------


def test_get_constant_serves_reference_grade_digits():
    v = get_constant(GAMMA, 50)
    assert truncate_decimal(v, 50) == GAMMA_50
    p = get_constant(PI, 50)
    assert truncate_decimal(p, 50) == PI_50


def test_zeta2_matches_pi_squared_over_six():
    store = ConstantStore()
    with mp.workdps(55):
        v = store.get(zeta(2), 45)
        assert abs(v - mp.pi**2 / 6) < mpf("1e-44")


def test_unservable_ids_are_rejected():
    store = ConstantStore()
    with pytest.raises(DomainError):
        store.get(zeta(F(-1, 2)), 30)
    with pytest.raises(DomainError):
        store.get(zeta(7), 30)
    with pytest.raises(DomainError):
        store.get(GAMMA, 0)


def test_cache_monotonicity_never_recomputes_for_fewer_digits():
    store = ConstantStore()
    store.get(zeta(3), 60)
    count = store.compute_count
    store.get(zeta(3), 40)
    store.get(zeta(3), 60)
    assert store.compute_count == count
    store.get(zeta(3), 80)
    assert store.compute_count == count + 1


def test_concurrent_reads_compute_once():
    store = ConstantStore()
    barrier = threading.Barrier(8)

    def fetch(_):
        barrier.wait()
        return store.get(zeta(2), 60)

    with concurrent.futures.ThreadPoolExecutor(8) as pool:
        values = list(pool.map(fetch, range(8)))
    assert store.compute_count == 1
    assert len({truncate_decimal(v, 60) for v in values}) == 1


def test_distinct_constants_serve_concurrently():
    store = ConstantStore()
    ids = [GAMMA, zeta(2), zeta(3), LOG_2PI]
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        values = list(pool.map(lambda c: store.get(c, 45), ids))
    for cid, v in zip(ids, values):
        assert digits_agree(v, store.reference_digits(cid), 45)


def test_mismatching_computation_raises_instead_of_serving(tmp_path):
    import importlib.resources as resources
    import hashlib

    raw = (
        resources.files("stirlingsum")
        .joinpath("data/reference_digits.txt")
        .read_text("ascii")
    )
    header, _, body = raw.partition("\n")
    # corrupt the pi record, then re-seal the checksum so loading succeeds
    body = body.replace("3.14159", "3.24159", 1)
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    bad = tmp_path / "refs.txt"
    bad.write_text(f"checksum sha256 {digest}\n{body}", "ascii")
    store = ConstantStore(reference_path=bad)
    with pytest.raises(ReferenceMismatchError):
        store.get(PI, 30)


def test_recovered_constants_match_references():
    store = ConstantStore()
    cases = [("1.1", GAMMA, 100), ("8.1", zeta(F(3, 2)), 100), ("12.1", STIELTJES1, 50)]
    for formula, cid, digits in cases:
        value = catalog.recover_details(formula, digits=digits, store=store).value
        assert digits_agree(value, store.reference_digits(cid), digits)


def test_recovery_is_stable_under_starting_point_shifts():
    # every formula with a single unknown head constant, default n0 vs n0 + 7
    digits = 40
    checked = 0
    for fid in catalog.formula_ids():
        f = catalog.describe(fid)
        unknown = [c for c in f.constants if c not in ELEMENTARY_IDS]
        if len(unknown) > 1:
            continue
        base = catalog.recover_details(fid, digits=digits, store=ConstantStore())
        moved = catalog.recover_details(
            fid, digits=digits, n0=base.n0 + 7, store=ConstantStore()
        )
        assert moved.n0 == base.n0 + 7
        with mp.workdps(60):
            assert abs(base.value - moved.value) < mpf("1e-37")
        checked += 1
    assert checked == 31  # all variants except the multi-constant log^2 family


def test_recovery_solves_for_its_own_constant_whatever_the_store_holds():
    # 14.1's head holds gamma and stieltjes1 beside elementary constants; it
    # always solves for stieltjes1, computing gamma if the store lacks it,
    # from a fresh store, one holding gamma and one holding stieltjes1 alike
    served = []
    for held in (None, GAMMA, STIELTJES1):
        store = ConstantStore()
        if held is not None:
            store.get(held, 60)
        res = catalog.recover_details("14.1", digits=30, store=store)
        assert res.constant == STIELTJES1 and store.cached_digits(GAMMA) > 0
        served.append((res.value, res.n0, res.terms_used))
    assert served[0] == served[1] == served[2]
    assert digits_agree(served[0][0], ConstantStore().reference_digits(STIELTJES1), 30)


def test_recovery_rejects_bad_n0():
    with pytest.raises(DomainError):
        catalog.recover_details("1.1", n0=1, digits=30)
    # an explicit n0 past brute force's cap is refused before any summing
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="n0=100000000 exceeds the brute-force cap 10000000"):
        catalog.recover_details("1.1", n0=10**8, digits=20)
    assert time.perf_counter() - t0 < 1.0


def test_functional_equation_cross_check():
    # -zeta(3/2) / (4 pi) equals zeta(-1/2), checked against the reference table
    store = ConstantStore()
    with mp.workdps(55):
        lhs = -store.get(zeta(F(3, 2)), 45) / (4 * store.get(PI, 45))
    assert digits_agree(lhs, store.reference_digits("zeta(-1/2)"), 40)
