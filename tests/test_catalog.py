"""Tests for the formula catalog: coefficients, evaluation, recovery, digamma."""

import ast
import copy
import inspect
import math
import pathlib
import pickle
import re
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from conftest import race
from stirlingsum import asymptotics, catalog, constants, exactnum, transform
from stirlingsum.catalog import FormulaId, brute_force, describe, evaluate
from stirlingsum.constants import (
    GAMMA,
    RECOVERY_FORMULA,
    ConstantId,
    ConstantStore,
    default_store,
    digits_agree,
    elementary,
    get_constant,
    zeta,
)
from stirlingsum.exactnum import DomainError, _Table, bernoulli, stirling_first
from stirlingsum.transform import AT_X, AT_X_PLUS_1, EvalContext, NonConvergenceError

ALL_IDS = catalog.formula_ids()


# ---------------------------------------------------------------------------
# Identifiers and descriptions
# ---------------------------------------------------------------------------


def test_formula_ids_cover_all_variants():
    assert len(ALL_IDS) == 32
    assert ALL_IDS[0] == FormulaId(1, 1)
    assert ALL_IDS[-1] == FormulaId(16, 1)
    assert str(FormulaId(12, 1)) == "12.1"
    assert FormulaId.parse("4.3") == FormulaId(4, 3)
    # sorted by family, then variant; equal ids are one key
    assert [str(fid) for fid in ALL_IDS] == [
        "1.1", "1.2", "2.1", "2.2", "3.1", "3.2", "4.1", "4.2", "4.3", "5.1", "5.2",
        "5.3", "6.1", "6.2", "6.3", "7.1", "7.2", "8.1", "8.2", "9.1", "9.2", "10.1",
        "10.2", "10.3", "11.1", "11.2", "12.1", "13.1", "14.1", "15.1", "15.2", "16.1",
    ]
    assert sorted(reversed(ALL_IDS)) == list(ALL_IDS)
    parsed, built = FormulaId.parse("4.1"), FormulaId(4, 1)
    assert parsed == built and hash(parsed) == hash(built) and {built: 1}[parsed] == 1
    assert FormulaId(4, 2) != built and built != (4, 1)


@pytest.mark.parametrize("bad", ["99.1", "1.3", "0.1", "12.2", "one", "1.1.1"])
def test_bad_formula_ids_rejected(bad):
    with pytest.raises(DomainError):
        FormulaId.parse(bad)


def test_value_classes_refuse_assignment():
    f = describe("14.1")
    store = ConstantStore()
    rep = evaluate("1.1", 10, EvalContext(digits=20), store=store)
    res = catalog.recover_details("2.1", digits=20, store=store)
    instances = [
        (FormulaId(1, 1), "variant"), (f, "lhs"), (f, "top_power"), (f.head[0], "rational"),
        (f.series[0], "prefactor"), (f.summand, "s"), (res, "value"),
        (GAMMA, "tag"), (zeta(2), "key"),
        (EvalContext(), "digits"), (rep, "value"), (f.series[0].inner, "fn"),
        (transform.weniger_transform(f.series[0].inner, 3), "values"),
        (transform.verify_transform_consistency(f.series[0].inner, 20, 3), "difference"),
        (asymptotics.LogPowerTerm(1, 2, 0), "m"),
        (asymptotics.em_tail([asymptotics.LogPowerTerm(1, -1, 0)], 2), "groups"),
    ]
    # every value class the package defines is here, so none skips _Frozen._fill
    assert {type(obj) for obj, _ in instances} == _value_classes()
    for obj, name in instances:
        assert all(hasattr(obj, field) for field in obj._fields)  # _fill wrote every slot
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            obj.unknown_field = 1
        assert getattr(obj, name) is before
        assert getattr(copy.copy(obj), name) is before  # copies restore the fields
    keyed = (FormulaId(4, 1), zeta(2), EvalContext(digits=40), f.summand, res,
             asymptotics.LogPowerTerm(F(1, 3), F(-1, 2), 1),
             transform.StirlingCoefficients((F(1, 12), F(1, 12))),
             f.series[0].inner)  # on catalog._plain_log2_inner, pickled by name
    assert f.series[0].inner.fn is catalog._plain_log2_inner
    for obj in keyed:
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.copy(obj) == obj and hash(copy.copy(obj)) == hash(obj)
        with pytest.raises(AttributeError):
            obj.key = obj.key
    assert _report_bits(pickle.loads(pickle.dumps(rep))) == _report_bits(rep)


def _value_classes() -> set[type]:
    """Every class under exactnum._Frozen that the package defines, but _Keyed."""
    found, todo = set(), [exactnum._Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("stirlingsum.") and sub is not exactnum._Keyed:
                found.add(sub)
    return found


# The value classes' constructors, part of the public API: parameter names,
# kinds and defaults, annotations left out.
VALUE_CLASS_SIGNATURES = {
    catalog.FormulaId: "(family, variant=1)",
    catalog.HeadTerm: "(rational, n_power=Fraction(0, 1), log_power=0, constants=(), parity=None, "
                      "base_offset=0)",
    catalog.SeriesPart: "(inner, prefactor, n_power=Fraction(0, 1), log_power=0, shape='at_x', "
                        "x_offset=0, parity=None)",
    catalog.Summand: "(s, m=0, parity=None, scale=1, shift=0)",
    catalog.Formula: "(id, lhs, summand, domain_min, head, series)",
    catalog.RecoveryResult: "(constant, value, n0, digits, terms_used)",
    transform.InnerCoefficients: "(fn)",
    transform.StirlingCoefficients: "(values)",
    transform.EvalContext: "(digits=30, guard=None, max_terms=500)",
    transform.EvaluationReport: "(value, terms_used, est_error, precision_used, elapsed)",
    transform.ConsistencyReport: "(factorial_sum, inverse_power_sum, difference)",
    constants.ConstantId: "(tag, s=None)",
    asymptotics.LogPowerTerm: "(coef, s, m)",
    asymptotics.EMTail: "(groups)",
}


def test_value_class_signatures_are_pinned():
    assert set(VALUE_CLASS_SIGNATURES) == _value_classes()
    empty = inspect.Parameter.empty
    for cls, expected in VALUE_CLASS_SIGNATURES.items():
        sig = inspect.signature(cls)
        params = [p.replace(annotation=empty) for p in sig.parameters.values()]
        bare = sig.replace(parameters=params, return_annotation=empty)
        assert str(bare) == expected, cls.__name__


# Every count argument of the public API, each called with one bad value.
COUNT_ARGUMENTS = {
    "FormulaId.family": lambda v: FormulaId(v),
    "FormulaId.variant": lambda v: FormulaId(2, v),
    "EvalContext.digits": lambda v: EvalContext(digits=v),
    "EvalContext.guard": lambda v: EvalContext(guard=v),
    "EvalContext.max_terms": lambda v: EvalContext(max_terms=v),
    "evaluate.n": lambda v: evaluate("1.1", v),
    "brute_force.n": lambda v: brute_force("1.1", v),
    "brute_force.digits": lambda v: brute_force("1.1", 10, v),
    "digamma.digits": lambda v: catalog.digamma(3, v),
    "digamma_details.digits": lambda v: catalog.digamma_details(3, v),
    "recover_details.digits": lambda v: catalog.recover_details("2.1", digits=v,
                                                                store=ConstantStore()),
    "recover_details.n0": lambda v: catalog.recover_details("2.1", n0=v, store=ConstantStore()),
    "ConstantStore.get.digits": lambda v: ConstantStore().get(GAMMA, v),
    "elementary.digits": lambda v: elementary("pi", v),
    "format_decimal.digits": lambda v: constants.format_decimal(mpf(1), v),
    "coefficients.K": lambda v: catalog.coefficients("1.1", v),
    "series_term_magnitudes.n": lambda v: catalog.series_term_magnitudes("1.1", v, 3),
    "series_term_magnitudes.K": lambda v: catalog.series_term_magnitudes("1.1", 10, v),
    "pochhammer.k": lambda v: transform.pochhammer(2, v),
    "weniger_transform.K": lambda v: transform.weniger_transform(
        describe("1.1").series[0].inner, v),
    "verify_transform_consistency.K": lambda v: transform.verify_transform_consistency(
        describe("1.1").series[0].inner, 20, v),
    "em_variant_map.L": lambda v: catalog.em_variant_map("1.1", v),
    "em_reference_map.L": lambda v: catalog.em_reference_map("1.1", v),
    "em_tail.L": lambda v: asymptotics.em_tail([asymptotics.LogPowerTerm(1, -1, 0)], v),
    "stirling_row.k": lambda v: exactnum.stirling_row(v),
    "stirling_first.k": lambda v: stirling_first(v, 1),
    "stirling_first.l": lambda v: stirling_first(3, v),
    "bernoulli.k": lambda v: bernoulli(v),
    "euler_number.k": lambda v: exactnum.euler_number(v),
    "tangent_number.k": lambda v: exactnum.tangent_number(v),
    "gregory_number.k": lambda v: exactnum.gregory_number(v),
    "stirling_a.k": lambda v: exactnum.stirling_a(v),
    "double_factorial_ext.m": lambda v: exactnum.double_factorial_ext(v),
    "HeadTerm.log_power": lambda v: catalog.HeadTerm(1, log_power=v),
    "SeriesPart.log_power": lambda v: catalog.SeriesPart(
        describe("1.1").series[0].inner, 1, log_power=v),
    "Summand.m": lambda v: catalog.Summand(-1, v),
    "LogPowerTerm.m": lambda v: asymptotics.LogPowerTerm(1, -1, v),
    "part_coefficients.log_power": lambda v: catalog.part_coefficients("12.1", 3, v),
    "golden_coefficients.log_power": lambda v: catalog.golden_coefficients("12.1", v),
    "series_term_magnitudes.log_power": lambda v: catalog.series_term_magnitudes(
        "12.1", 10, 3, v),
    "ConstantStore.check_reach.digits": lambda v: ConstantStore().check_reach(GAMMA, v),
}


@pytest.mark.parametrize("bad", [30.5, True, "30"], ids=repr)
@pytest.mark.parametrize("call", list(COUNT_ARGUMENTS.values()), ids=list(COUNT_ARGUMENTS))
def test_count_arguments_must_be_plain_ints(call, bad):
    # a float, a bool or a string refuses up front, never half-way through
    # the arithmetic with a TypeError, nor served as if it were an int
    with pytest.raises(DomainError, match="must be an integer, got "):
        call(bad)


def test_equal_keys_of_different_classes_stay_apart():
    fid, coeffs = FormulaId(1, 2), transform.StirlingCoefficients((1, 2))
    assert fid.key == coeffs.key and hash(fid) == hash(coeffs)
    assert fid != coeffs and coeffs != fid
    assert len({fid: "id", coeffs: "coefficients"}) == 2


def test_construction_checks_still_fire():
    cases = [
        (lambda: FormulaId(17), "unknown formula family 17"),
        (lambda: FormulaId(12, 2), "family 12 has variants 1..1, got 2"),
        (lambda: catalog.HeadTerm(1, log_power=-1), "log_power must be >= 0, got -1"),
        (lambda: catalog.Summand(F(1, 3)), "summand power must be a multiple of 1/2, got 1/3"),
        (lambda: EvalContext(digits=0), "digits must be >= 1, got 0"),
        (lambda: EvalContext(digits=10, guard=9), "guard must be >= 10, got 9"),
        (lambda: EvalContext(max_terms=0), "max_terms must be >= 1, got 0"),
        (lambda: ConstantId("gamma", 2), "gamma takes no argument"),
        (lambda: ConstantId("zeta"), "zeta needs an argument"),
        (lambda: ConstantId("eta", 2), "unknown constant tag 'eta'"),
        (lambda: asymptotics.LogPowerTerm(1, 0, -1), "log power must be >= 0, got -1"),
    ]
    for build, message in cases:
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message


def test_describe_harmonic_head_shape():
    f = describe("1.1")
    assert [t.log_power for t in f.head] == [1, 0, 0]
    assert f.head[1].constants == ((GAMMA, 1),)
    assert (f.head[2].rational, f.head[2].n_power) == (F(1, 2), F(-1))
    assert f.series[0].shape == AT_X
    assert f.domain_min == 1 and not f.alternating


def test_describe_stirling_third_variant():
    f = describe("10.3")
    part = f.series[0]
    assert part.inner(1) == 0
    assert part.inner(2) == F(1, 12)
    assert part.inner(4) == F(-1, 360)
    assert part.n_power == 1
    assert part.shape == AT_X_PLUS_1


def test_describe_alternating_leibniz():
    f = describe("15.1")
    assert f.domain_min == 0 and f.alternating
    part = f.series[0]
    assert (part.prefactor, part.parity, part.x_offset) == (F(1, 4), 1, 1)
    assert part.shape == AT_X


def test_leibniz_inner_coefficients():
    a = describe("15.1").series[0].inner
    assert a is describe("15.2").series[0].inner  # one transform table
    assert a(1) == 0  # odd Euler numbers vanish
    assert a(2) == F(1, 4)
    c = transform.weniger_transform(a, 2)
    assert c.values[1] == F(1, 4)  # printed value 1/16 after the 1/4 prefactor


def test_log_parts_share_the_inner_of_their_plain_formula():
    # one instance, so one transform table, per pair; the printed
    # (-1)^l factor changes nothing, since B_j = 0 for odd j >= 3
    printed = {
        "12.1": ("1.1", lambda l: F(-1) ** l * bernoulli(l + 1) / (l + 1)),
        "13.1": ("2.1", lambda l: F(-1) ** l * bernoulli(l + 1)),
        "14.1": ("10.2", lambda l: F(-1) ** l * bernoulli(l + 2) / ((l + 1) * (l + 2))),
    }
    for log_formula, (plain, fn) in printed.items():
        part = describe(log_formula).series[1]
        assert part.log_power == 1
        assert part.inner is describe(plain).series[0].inner
        assert all(part.inner(l) == fn(l) for l in range(1, 80))


def test_alternating_harmonic_inner_coefficients():
    a = describe("16.1").series[0].inner
    assert a(1) == F(1, 4)
    c = transform.weniger_transform(a, 4)
    assert list(c.values) == [F(1, 4), F(1, 4), F(3, 8), F(3, 4)]


# (domain_min, alternating, constants, recover_target), as stated by hand in
# each catalog entry before these fields were derived from summand and head,
# then the printed left-hand side and the key of the summand it sums, so that
# a family's (lhs, summand, start) cannot drift from what `list` prints.
DERIVED_METADATA = {
    "1.1": (1, False, ("gamma",), "gamma",
            "sum_{k=1}^{n} 1/k", (-2, 0, None, 1, 0)),
    "1.2": (1, False, ("gamma",), "gamma",
            "sum_{k=1}^{n} 1/k", (-2, 0, None, 1, 0)),
    "2.1": (1, False, ("zeta(2)",), "zeta(2)",
            "sum_{k=1}^{n} 1/k^2", (-4, 0, None, 1, 0)),
    "2.2": (1, False, ("zeta(2)",), "zeta(2)",
            "sum_{k=1}^{n} 1/k^2", (-4, 0, None, 1, 0)),
    "3.1": (1, False, ("zeta(3)",), "zeta(3)",
            "sum_{k=1}^{n} 1/k^3", (-6, 0, None, 1, 0)),
    "3.2": (1, False, ("zeta(3)",), "zeta(3)",
            "sum_{k=1}^{n} 1/k^3", (-6, 0, None, 1, 0)),
    "4.1": (0, False, ("pi", "zeta(3/2)"), "zeta(3/2)",
            "sum_{k=0}^{n} k^(1/2)", (1, 0, None, 1, 0)),
    "4.2": (0, False, ("pi", "zeta(3/2)"), "zeta(3/2)",
            "sum_{k=0}^{n} k^(1/2)", (1, 0, None, 1, 0)),
    "4.3": (0, False, ("pi", "zeta(3/2)"), "zeta(3/2)",
            "sum_{k=0}^{n} k^(1/2)", (1, 0, None, 1, 0)),
    "5.1": (0, False, ("pi", "zeta(5/2)"), "zeta(5/2)",
            "sum_{k=0}^{n} k^(3/2)", (3, 0, None, 1, 0)),
    "5.2": (0, False, ("pi", "zeta(5/2)"), "zeta(5/2)",
            "sum_{k=0}^{n} k^(3/2)", (3, 0, None, 1, 0)),
    "5.3": (0, False, ("pi", "zeta(5/2)"), "zeta(5/2)",
            "sum_{k=0}^{n} k^(3/2)", (3, 0, None, 1, 0)),
    "6.1": (0, False, ("pi", "zeta(7/2)"), "zeta(7/2)",
            "sum_{k=0}^{n} k^(5/2)", (5, 0, None, 1, 0)),
    "6.2": (0, False, ("pi", "zeta(7/2)"), "zeta(7/2)",
            "sum_{k=0}^{n} k^(5/2)", (5, 0, None, 1, 0)),
    "6.3": (0, False, ("pi", "zeta(7/2)"), "zeta(7/2)",
            "sum_{k=0}^{n} k^(5/2)", (5, 0, None, 1, 0)),
    "7.1": (1, False, ("zeta(1/2)",), "zeta(1/2)",
            "sum_{k=1}^{n} k^(-1/2)", (-1, 0, None, 1, 0)),
    "7.2": (1, False, ("zeta(1/2)",), "zeta(1/2)",
            "sum_{k=1}^{n} k^(-1/2)", (-1, 0, None, 1, 0)),
    "8.1": (1, False, ("zeta(3/2)",), "zeta(3/2)",
            "sum_{k=1}^{n} k^(-3/2)", (-3, 0, None, 1, 0)),
    "8.2": (1, False, ("zeta(3/2)",), "zeta(3/2)",
            "sum_{k=1}^{n} k^(-3/2)", (-3, 0, None, 1, 0)),
    "9.1": (1, False, ("zeta(5/2)",), "zeta(5/2)",
            "sum_{k=1}^{n} k^(-5/2)", (-5, 0, None, 1, 0)),
    "9.2": (1, False, ("zeta(5/2)",), "zeta(5/2)",
            "sum_{k=1}^{n} k^(-5/2)", (-5, 0, None, 1, 0)),
    "10.1": (1, False, ("log_2pi",), "log_2pi",
             "log(n!) = sum_{k=1}^{n} log(k)", (0, 1, None, 1, 0)),
    "10.2": (1, False, ("log_2pi",), "log_2pi",
             "log(n!) = sum_{k=1}^{n} log(k)", (0, 1, None, 1, 0)),
    "10.3": (1, False, ("log_2pi",), "log_2pi",
             "log(n!) = sum_{k=1}^{n} log(k)", (0, 1, None, 1, 0)),
    "11.1": (1, False, ("zeta_prime(-1)",), "zeta_prime(-1)",
             "sum_{k=1}^{n} k*log(k)", (2, 1, None, 1, 0)),
    "11.2": (1, False, ("zeta_prime(-1)",), "zeta_prime(-1)",
             "sum_{k=1}^{n} k*log(k)", (2, 1, None, 1, 0)),
    "12.1": (1, False, ("stieltjes1",), "stieltjes1",
             "sum_{k=1}^{n} log(k)/k", (-2, 1, None, 1, 0)),
    "13.1": (1, False, ("zeta_prime(2)",), "zeta_prime(2)",
             "sum_{k=1}^{n} log(k)/k^2", (-4, 1, None, 1, 0)),
    "14.1": (1, False, ("gamma", "pi", "log2", "log_pi", "stieltjes1"), "stieltjes1",
             "sum_{k=1}^{n} log(k)^2", (0, 2, None, 1, 0)),
    "15.1": (0, True, ("pi",), "pi",
             "sum_{k=0}^{n} (-1)^k/(2k+1)", (-2, 0, 0, 2, 1)),
    "15.2": (1, True, ("pi",), "pi",
             "sum_{k=1}^{n} (-1)^(k+1)/(2k-1)", (-2, 0, 1, 2, -1)),
    "16.1": (1, True, ("log2",), "log2",
             "sum_{k=1}^{n} (-1)^(k+1)/k", (-2, 0, 1, 1, 0)),
}


def test_derived_metadata_matches_the_recorded_table():
    got = {
        str(fid): (
            (f := describe(fid)).domain_min,
            f.alternating,
            tuple(map(str, f.constants)),
            str(f.recover_target),
            f.lhs,
            f.summand.key,
        )
        for fid in ALL_IDS
    }
    assert got == DERIVED_METADATA


# ---------------------------------------------------------------------------
# Coefficients against the golden record
# ---------------------------------------------------------------------------


def test_printed_coefficients_match_documented_example():
    rendered = [
        f"{c.numerator}/{c.denominator}" for c in catalog.coefficients("1.1", 4)
    ]
    assert rendered == ["-1/12", "-1/12", "-19/120", "-9/20"]


def test_coefficients_reject_nonpositive_k():
    with pytest.raises(DomainError):
        catalog.coefficients("1.1", 0)


@pytest.mark.parametrize("fid", ALL_IDS, ids=str)
def test_all_golden_coefficients_match_computed(fid):
    f = describe(fid)
    for part in f.series:
        gold = catalog.golden_coefficients(fid, part.log_power)
        assert catalog.part_coefficients(fid, len(gold), part.log_power) == gold


def test_missing_golden_part_is_an_error():
    with pytest.raises(DomainError):
        catalog.golden_coefficients("1.1", log_power=1)
    with pytest.raises(DomainError):
        catalog.part_coefficients("1.1", 4, log_power=1)
    # 12.1's log part has a golden file; a log^2 part has none, as it has no series part
    with pytest.raises(DomainError, match=r"^no golden file for 12\.1 log_power=2$"):
        catalog.golden_coefficients("12.1", log_power=2)
    with pytest.raises(DomainError, match="has no series part with log power 2"):
        catalog.part_coefficients("12.1", 3, log_power=2)


# (root, derived variant, steps): within a family, x/(x)_{k+1} = 1/(x)_k -
# k/(x)_{k+1} reprints the root's tail one power of x lower, so a variant whose
# tail exponent lies j below the root's has c_k = c'_{k+1} - k c'_k, j times over
_DERIVED_VARIANTS = [
    ("1.2", "1.1", 1), ("2.2", "2.1", 1), ("3.2", "3.1", 1), ("4.3", "4.1", 1),
    ("4.3", "4.2", 2), ("5.3", "5.1", 1), ("5.3", "5.2", 3), ("6.3", "6.1", 1),
    ("6.3", "6.2", 4), ("7.2", "7.1", 1), ("8.2", "8.1", 1), ("9.2", "9.1", 1),
    ("10.3", "10.1", 1), ("10.3", "10.2", 2), ("11.1", "11.2", 1),
]


@pytest.mark.parametrize("root, derived, steps", _DERIVED_VARIANTS,
                         ids=[f"{d}-from-{r}" for r, d, _ in _DERIVED_VARIANTS])
def test_derived_variant_coefficients_come_from_the_family_root(root, derived, steps):
    # the goldens pin 4-5 terms per part; this pins every derived stream to k = 200
    def plain(fid):
        [part] = [p for p in describe(fid).series if p.log_power == 0]
        return part, part.n_power + (part.shape == AT_X_PLUS_1)  # the tail exponent

    (root_part, root_exponent), (part, exponent) = plain(root), plain(derived)
    assert root_exponent - exponent == steps
    assert part.prefactor == root_part.prefactor
    K = 200
    c = catalog.coefficients(root, K + steps)
    for _ in range(steps):
        c = [c[i + 1] - (i + 1) * c[i] for i in range(len(c) - 1)]
    assert tuple(c) == catalog.coefficients(derived, K)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def test_brute_force_exact_values():
    with mp.workdps(40):
        assert brute_force("1.1", 4, 30) == mpf(25) / 12
        assert brute_force("15.1", 0, 30) == 1
        assert brute_force("10.1", 5, 30) == mp.log(mpf(120))


def test_brute_force_rejects_out_of_range():
    with pytest.raises(DomainError):
        brute_force("1.1", 10**7 + 1, 30)
    with pytest.raises(DomainError):
        brute_force("1.1", 0, 30)
    with pytest.raises(DomainError):
        brute_force("15.1", -1, 30)


RATIONAL_IDS = ["1.1", "2.1", "3.1", "15.1", "15.2", "16.1"]


def _exact_partial_sums(fid, top):
    """Oracle for brute force on a negative integer power without a log:
    (n, num, den) with num/den the partial sum to n, exactly, for n from the
    summand's start to ``top``. Summed unreduced: the same fraction as
    summing Fractions, without a gcd per term."""
    f = describe(fid)
    u = f.summand
    s, num, den = -int(u.s), 0, 1
    assert s > 0 and not u.m
    for k in range(f.domain_min, top + 1):
        y = u.scale * k + u.shift
        sg = 1 if u.parity is None else (-1) ** (k + u.parity)
        num, den = num * y**s + sg * den, den * y**s
        yield k, num, den


def _as_fraction(v):
    sign, man, exp, _ = v
    return (-1) ** sign * F(man) * F(2) ** exp


@pytest.mark.parametrize("fid", RATIONAL_IDS)
def test_brute_force_within_an_ulp_of_the_exact_sum(fid):
    for n, num, den in _exact_partial_sums(fid, 200):
        for digits in (5, 30, 100):
            prec = dps_to_prec(digits + 10)
            ref = from_rational(num, den, prec, round_nearest)  # rounded once
            ulp = F(2) ** (ref[2] + ref[3] - prec)
            got = brute_force(fid, n, digits)._mpf_
            assert abs(_as_fraction(got) - _as_fraction(ref)) <= ulp, (n, digits)


@pytest.mark.parametrize("fid", RATIONAL_IDS)
def test_brute_force_past_the_exact_sum_limit(fid):
    # past the exact oracle's range above, brute force still agrees with
    # the series
    n = 201
    ref = evaluate(fid, n).value
    with mp.workdps(50):
        assert abs(brute_force(fid, n, 30) - ref) < mpf("1e-28")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fid,n",
    [("1.1", 10), ("4.1", 0), ("4.2", 3), ("8.2", 5), ("10.2", 17),
     ("12.1", 10), ("13.1", 2), ("14.1", 9), ("15.1", 0), ("16.1", 6)],
)
def test_evaluate_matches_brute_force(fid, n):
    rep = evaluate(fid, n, EvalContext(digits=30))
    ref = brute_force(fid, n, 40)
    with mp.workdps(60):
        assert abs(rep.value - ref) < mpf("1e-25")
    assert rep.terms_used > 0
    assert rep.precision_used >= 40


def test_alternating_families_handle_both_parities():
    for fid in ("15.1", "15.2", "16.1"):
        for n in (7, 8):
            rep = evaluate(fid, n, EvalContext(digits=25))
            ref = brute_force(fid, n, 35)
            with mp.workdps(50):
                assert abs(rep.value - ref) < mpf("1e-20"), (fid, n)


def test_variants_of_a_family_agree():
    digits = 40
    for family, count in catalog.VARIANT_COUNTS.items():
        if count == 1:
            continue
        # the two alternating-series printings index the same partial sum
        # with an offset of one term, so align them before comparing
        ns = [49, 50] if family == 15 else [50] * count
        reps = [
            evaluate(FormulaId(family, v), ns[v - 1], EvalContext(digits=digits))
            for v in range(1, count + 1)
        ]
        with mp.workdps(70):
            for other in reps[1:]:
                assert abs(reps[0].value - other.value) < mpf("1e-37"), family


def test_evaluate_rejects_bad_input():
    with pytest.raises(DomainError):
        evaluate("1.1", 0)
    with pytest.raises(DomainError):
        evaluate("15.1", -1)
    with pytest.raises(DomainError):
        evaluate("1.1", 2.5)
    with pytest.raises(DomainError):
        evaluate("99.1", 10)


def test_evaluate_aggregates_parts_in_report():
    # the log-weighted families run two series parts; the report sums their
    # term counts and keeps the worst scaled error estimate
    one_part = evaluate("1.1", 10, EvalContext(digits=30))
    two_part = evaluate("12.1", 10, EvalContext(digits=30))
    assert two_part.terms_used > one_part.terms_used
    with mp.workdps(40):
        assert two_part.est_error < mpf("1e-28")


def test_evaluate_nonconvergence_carries_aggregate_report():
    ctx = EvalContext(digits=300, max_terms=40)
    with pytest.raises(NonConvergenceError) as info:
        evaluate("1.1", 10, ctx)
    rep = info.value.report
    assert rep.terms_used == 40
    assert rep.est_error > 0
    # the partial value still includes head and bridge: it is in the ballpark
    ref = brute_force("1.1", 10, 30)
    with mp.workdps(40):
        assert abs(rep.value - ref) < 1


def test_series_terms_decrease_strictly_at_moderate_k():
    mags = catalog.series_term_magnitudes("1.1", 25, 60)
    assert all(isinstance(m, F) for m in mags)
    assert all(mags[k - 1] > mags[k] for k in range(10, 60))



def _mpf_head(f, x, cvalues):
    """The head of f at x from the constants in ``cvalues`` (a recovery's
    unknown among them as zero), in mpf at the current precision."""
    head, xv = mpf(0), mpf(x)
    for t in f.head:
        v = mpf(t.rational.numerator) / t.rational.denominator
        if t.n_power:
            v *= mp.power(xv + t.base_offset, mpf(t.n_power.numerator) / t.n_power.denominator)
        v *= mp.log(xv) ** t.log_power
        for cid, p in t.constants:
            v *= cvalues[cid] ** p
        head += -v if t.parity is not None and (x + t.parity) % 2 else v
    return head


@pytest.mark.parametrize("fid", ALL_IDS, ids=str)
def test_fixed_point_head_within_an_ulp(fid):
    # _rhs's fixed-point head, rounded once, against the mpf head 64 bits
    # finer, with every constant served and with a recovery's unknown served
    # as zero
    f = describe(fid)
    store = default_store()
    for digits in (10, 30, 100, 300):
        ctx = EvalContext(digits=digits, max_terms=1)  # the series parts refuse at once
        with mp.workdps(digits + ctx.guard):
            served = {cid: mpf(store.reference_digits(cid)) for cid in f.constants}
        cases = (served, {**served, f.recover_target: mpf(0)})
        for x in (f.domain_min + 1, 7, 200, 10**5, 10**7):
            hr = catalog._headroom(f, x)
            prec = dps_to_prec(digits + ctx.guard + hr)
            heads = []
            for cvalues in cases:
                values = tuple(cvalues[cid]._mpf_ for cid in f.constants)
                plan = catalog._plan(f, ctx.key, hr, values)
                heads.append(mp.make_mpf(catalog._rhs(plan, x)[0]))
            with mp.workprec(prec + 64):
                for head, cvalues in zip(heads, cases):
                    exact = _mpf_head(f, x, cvalues)
                    _, _, exp, bc = exact._mpf_  # one ulp at prec is 2^(exp + bc - prec)
                    assert abs(head - exact) <= mpf(2) ** (exp + bc - prec), (x, digits)


# ---------------------------------------------------------------------------
# Serving at step 1/2
# ---------------------------------------------------------------------------

SCALED_PARTS = [(str(fid), part) for fid in ALL_IDS for part in describe(fid).series
                if part.step != 1]


def test_parts_serve_at_step_one_half_but_the_alternating_families():
    for fid in ALL_IDS:
        for part in describe(fid).series:
            if fid.family in (15, 16):
                assert part.step == 1 and part.serving is part.inner
            else:
                assert part.step == 2
                assert all(part.serving(l) == part.inner(l) * 2 ** (l + 1) for l in range(1, 60))
    # parts sharing a printed inner share one serving inner, so one table
    for log_formula, plain in (("12.1", "1.1"), ("13.1", "2.1"), ("14.1", "10.2")):
        assert describe(log_formula).series[1].serving is describe(plain).series[0].serving


def test_a_part_pickles_with_its_serving_inner():
    # 14.1's plain part is on a named function, so the part pickles, and its
    # serving inner with it (a fresh table, the same a'_l)
    part = describe("14.1").series[0]
    restored = pickle.loads(pickle.dumps(part))
    assert restored.step == 2 and restored.serving._table.values == ()
    assert all(restored.serving(l) == part.serving(l) for l in range(1, 40))


@pytest.mark.parametrize("digits", [20, 50, 200])
def test_serving_and_printed_part_values_agree(digits):
    # every part at its formula's model anchor, under its plan's context: the
    # printed series at x and the serving one at step x (an at_x_plus_1
    # value divided by the step) agree to the run's own stop tolerance,
    # 10^-(digits + guard/2) relative
    guard = EvalContext(digits).guard
    for fid in ALL_IDS:
        f = describe(fid)
        x = catalog._anchor(f.id, digits, guard, 500)
        ctx = EvalContext(digits + catalog._headroom(f, x), guard)
        for part in f.series:
            y = x + part.x_offset
            printed = transform.eval_stirling_series(part.inner, y, part.shape, ctx).value
            served = transform.eval_stirling_series(part.serving, part.step * y, part.shape,
                                                    ctx).value
            with mp.workdps(ctx.working_digits + 10):
                if part.shape == AT_X_PLUS_1:
                    served /= part.step
                tolerance = mpf(10) ** -(ctx.digits + mpf(ctx.guard) / 2)
                assert abs(served - printed) <= abs(printed) * tolerance, (fid, part.log_power)


def test_serving_coefficients_grow_no_faster_than_factorials():
    # max over k <= 300 of log10(|c'_k| / (k-1)!) is at most 1.5 for every
    # scaled part (0.76 at most when this was written): checked to k = 300,
    # not proven
    for fid, part in SCALED_PARTS:
        c = transform.weniger_transform(part.serving, 300).values
        growth = max(math.log10(abs(v.numerator)) - math.log10(v.denominator)
                     - math.lgamma(k) / math.log(10) for k, v in enumerate(c, 1) if v)
        assert growth <= 1.5, (fid, part.log_power, growth)


def test_a_serve_warm_list_grows_no_printed_table(monkeypatch):
    # from empty tables and no kept plans or bridges, serve-warm's first list
    # grows the serving table of every scaled part and no printed one
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmark"))
    from workloads import serve_warm

    for _, part in SCALED_PARTS:
        for inner in (part.inner, part.serving):
            monkeypatch.setattr(inner._table, "values", ())
            monkeypatch.setattr(inner._table, "step", transform._frontier_step())
    catalog._plan.cache_clear()
    catalog._bridge.cache_clear()
    for req in serve_warm(41):
        try:
            if req.kind == "evaluate":
                evaluate(req.target, req.n, EvalContext(digits=req.digits))
            else:
                catalog.digamma_details(F(req.target), req.digits)
        except NonConvergenceError:
            pass
    for fid, part in SCALED_PARTS:
        assert part.inner._table.values == () and part.serving._table.values, fid


# ---------------------------------------------------------------------------
# Cross-derivation of the inner coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fid", [i for i in ALL_IDS if i.family not in (15, 16)], ids=str
)
def test_inner_coefficients_match_summation_tail(fid):
    assert catalog.em_variant_map(fid, 20) == catalog.em_reference_map(fid, 20)


def test_alternating_families_have_no_summation_tail():
    with pytest.raises(DomainError):
        catalog.em_variant_map("15.1", 10)
    with pytest.raises(DomainError):
        catalog.em_reference_map("16.1", 10)


# ---------------------------------------------------------------------------
# Recovery details
# ---------------------------------------------------------------------------


def test_recovery_raises_anchor_until_convergence():
    store = ConstantStore()
    res = catalog.recover_details("1.1", digits=40, n0=2, store=store)
    assert res.n0 > 2  # n0=2 cannot converge; it must have been raised
    assert digits_agree(res.value, store.reference_digits(GAMMA), 40)


def test_recovery_reports_anchor_and_terms():
    store = ConstantStore()
    res = catalog.recover_details("2.1", digits=30, store=store)
    # the cost model's anchor for 30 digits, guard 13 and the 500-term
    # budget, accepted as-is
    assert res.n0 == catalog._anchor(FormulaId(2, 1), 30, 13, 500)
    assert res.terms_used > 0
    assert digits_agree(res.value, store.reference_digits(zeta(2)), 30)
    assert str(res.constant) == "zeta(2)"


# ---------------------------------------------------------------------------
# Anchors from the cost model
# ---------------------------------------------------------------------------


def _report_bits(rep):
    return rep.value._mpf_, rep.terms_used, rep.est_error._mpf_


def _served_bits():
    rep = evaluate("4.1", 3, EvalContext(digits=40), store=ConstantStore())
    # below its anchor on the default store: the second call takes the
    # right-hand side from the memo
    below = evaluate("11.1", 3, EvalContext(digits=40))
    value, terms, shift = catalog.digamma_details(F(1, 3), 40)
    rec = catalog.recover_details("8.1", digits=40, store=ConstantStore())
    return [_report_bits(rep), _report_bits(below), (value._mpf_, terms, shift),
            (rec.value._mpf_, rec.terms_used, rec.n0)]


def _count_rhs(monkeypatch, recoveries=None):
    """The plans under which evaluate computes a right-hand side; those of
    recoveries, called from recover_details' ``solve``, go to ``recoveries``."""
    calls = []

    def counted(plan, x):
        if sys._getframe(1).f_code.co_name != "solve":
            calls.append(plan)
        elif recoveries is not None:
            recoveries.append(plan)
        return rhs(plan, x)

    rhs = catalog._rhs
    monkeypatch.setattr(catalog, "_rhs", counted)
    return calls


def test_served_bits_do_not_depend_on_cache_state(monkeypatch):
    # the anchor is a function of the request alone: a cold process and a
    # warm one must serve the same bits
    for fid in ALL_IDS:  # every catalog inner's table, emptied
        for part in describe(fid).series:
            monkeypatch.setattr(part.inner._table, "values", ())
            monkeypatch.setattr(part.inner._table, "step", transform._frontier_step())
    catalog._anchor.cache_clear()
    catalog._plan.cache_clear()
    catalog._bridge.cache_clear()
    calls = _count_rhs(monkeypatch)
    cold = _served_bits()
    assert len(calls) == 2 and all(plan.rhs for plan in calls)  # 4.1 and 11.1 kept theirs
    assert catalog._bridge.cache_info().currsize == 2  # 4.1 and 11.1 below their anchors
    assert _served_bits() == cold
    # the warm run computes none, though 4.1 asks a new store again
    assert len(calls) == 2 and catalog._bridge.cache_info().hits == 2


def test_refusals_are_not_memoized(monkeypatch):
    # a degraded evaluation (constants past reach) and one truncated by
    # max_terms refuse again on repeat, with the same partial report
    recoveries = []
    calls = _count_rhs(monkeypatch, recoveries)
    catalog._plan.cache_clear()
    store = ConstantStore()
    contexts = (EvalContext(digits=901), EvalContext(digits=300, max_terms=40))
    for ctx in contexts:
        reports = []
        for _ in range(2):
            with pytest.raises(NonConvergenceError) as exc:
                evaluate("1.1", 10, ctx, store=store)
            reports.append((str(exc.value), _report_bits(exc.value.report)))
        assert reports[0] == reports[1]
    assert len(calls) == 4
    assert recoveries  # gamma's, for the degraded evaluation's head
    assert not [plan for plan in calls + recoveries if plan.rhs]  # no plan keeps one


def test_degraded_partial_report_does_not_depend_on_the_store():
    # head constants past their reach are served rounded to
    # _DEGRADED_CONSTANT_DIGITS: a store already holding gamma at 500 digits
    # gives the partial report a fresh store gives
    def partial(store):
        with pytest.raises(NonConvergenceError) as exc:
            evaluate("1.1", 10, EvalContext(950), store=store)
        return str(exc.value), _report_bits(exc.value.report)

    warm = ConstantStore()
    warm.get(GAMMA, 500)
    assert partial(ConstantStore()) == partial(warm)


def test_memo_keys_on_context_and_store(monkeypatch):
    calls = _count_rhs(monkeypatch)
    catalog._plan.cache_clear()
    store = ConstantStore()
    served = [evaluate("2.1", 5, EvalContext(digits=30, max_terms=m), store=store)
              for m in (500, 400, 500, 400)]
    assert len(calls) == 2  # contexts differing only in max_terms share nothing
    assert [plan.part_ctx.max_terms for plan in calls] == [500, 400]
    assert _report_bits(served[2]) == _report_bits(served[0])
    assert all(plan.rhs for plan in calls)
    fresh = evaluate("2.1", 5, EvalContext(digits=30), store=ConstantStore())
    assert len(calls) == 2  # a fresh store serving the same zeta(2) bits reuses it
    assert _report_bits(fresh) == _report_bits(served[0])
    # n at or past the anchor is summed there, never kept
    anchor, kept = catalog._anchor(FormulaId(2, 1), 30, 13, 500), calls[0].rhs
    evaluate("2.1", anchor + 1, EvalContext(digits=30), store=store)
    evaluate("2.1", anchor + 1, EvalContext(digits=30), store=store)
    assert len(calls) == 4 and all(plan.rhs is None or plan.rhs is kept for plan in calls[2:])
    # once the store serves the head constant at more digits, the kept
    # right-hand side no longer applies
    store.get(zeta(2), 80)
    again = evaluate("2.1", 5, EvalContext(digits=30), store=store)
    assert len(calls) == 5
    warm = ConstantStore()
    warm.get(zeta(2), 80)
    assert _report_bits(again) == _report_bits(
        evaluate("2.1", 5, EvalContext(digits=30), store=warm))


def test_memo_stays_within_its_cap():
    catalog._plan.cache_clear()
    store = ConstantStore()
    for m in range(100, 1130):
        evaluate("1.1", 2, EvalContext(digits=20, max_terms=m), store=store)
    info = catalog._plan.cache_info()
    # one plan per context, and gamma's recovery on the fresh store first
    assert (info.misses, info.currsize) == (1031, 1024)
    # the least recently used, that recovery's and those of max_terms 100
    # to 105, are dropped: 106 is kept, 105 planned again
    for m in (106, 105):
        evaluate("1.1", 2, EvalContext(digits=20, max_terms=m), store=store)
    info = catalog._plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1032, 1024)


def _check_repeats_hash_and_compare_nothing(fid, n, ctx, monkeypatch):
    """Three repeats of a warm evaluation serve its bits and call no
    ``__hash__`` or ``__eq__`` of mpf or ConstantId."""
    first = _report_bits(evaluate(fid, n, ctx))
    calls = []
    for cls in (type(mpf(1)), ConstantId):
        for name in ("__hash__", "__eq__"):
            original = getattr(cls, name)

            def counting(*args, _original=original, _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cls, name, counting)
    again = [_report_bits(evaluate(fid, n, ctx)) for _ in range(3)]
    assert calls == []
    assert again == [first] * 3


def test_each_headroom_past_the_anchor_gets_its_own_plan():
    # past its anchor the headroom grows with n, and the precision with it:
    # warm calls at new n serve what calls from no kept plan serve
    f, ctx = describe("14.1"), EvalContext(digits=30)
    anchor = catalog._anchor(f.id, ctx.digits, ctx.guard, 500)
    ns = (anchor, 10 * anchor, 10**6)
    assert len({catalog._headroom(f, n) for n in ns}) == 3
    warm = [evaluate("14.1", n, ctx) for n in ns]
    assert [r.precision_used for r in warm] == [
        ctx.digits + ctx.guard + catalog._headroom(f, n) for n in ns]
    cold = []
    for n in ns:
        catalog._plan.cache_clear()
        cold.append(_report_bits(evaluate("14.1", n, ctx)))
    assert [_report_bits(r) for r in warm] == cold


@pytest.mark.parametrize("fid", ["12.1", "13.1", "14.1"])
def test_estimate_of_a_two_part_formula_is_its_larger_part_estimate(fid):
    # five terms refuse at the anchor, where each part's partial estimate,
    # times its scale, sits far above the floor; the report carries the larger.
    # Each part runs as served: its serving inner at step times x (these
    # parts are at_x, so unhalved).
    f, ctx = describe(fid), EvalContext(digits=30, max_terms=5)
    x = catalog._anchor(f.id, ctx.digits, ctx.guard, 500)
    with pytest.raises(NonConvergenceError) as exc:
        evaluate(fid, x, ctx)
    hr = catalog._headroom(f, x)
    part_ctx = EvalContext(ctx.digits + hr, ctx.guard, ctx.max_terms)
    estimates = []
    with mp.workdps(60):
        for part in f.series:
            with pytest.raises(NonConvergenceError) as part_exc:
                catalog.eval_stirling_series(part.serving, part.step * (x + part.x_offset),
                                             part.shape, part_ctx)
            assert part.shape == catalog.AT_X
            scale = (mpf(part.prefactor.numerator) / part.prefactor.denominator
                     * mpf(x) ** (mpf(part.n_power.numerator) / part.n_power.denominator)
                     * mp.log(x) ** part.log_power)
            estimates.append(part_exc.value.report.est_error * abs(scale))
        assert abs(estimates[0] - estimates[1]) > max(estimates) / 100
        assert abs(exc.value.report.est_error - max(estimates)) <= max(estimates) * mpf(10) ** -30


def test_repeated_evaluation_below_the_anchor_hashes_and_compares_no_mpf(monkeypatch):
    # the plan keys hold plain integers and mpf tuples, never an mpf, and the
    # store looks constants up by their plain keys
    ctx = EvalContext(digits=30)
    assert 3 < catalog._anchor(FormulaId(14, 1), ctx.digits, ctx.guard, 500)
    _check_repeats_hash_and_compare_nothing("14.1", 3, ctx, monkeypatch)


def test_repeated_evaluation_past_the_anchor_hashes_and_compares_no_mpf(monkeypatch):
    # past its anchor, a warm evaluation finds its plan the same way and
    # compares its estimates as mpf tuples
    ctx = EvalContext(digits=30)
    n = catalog._anchor(FormulaId(14, 1), ctx.digits, ctx.guard, 500) + 7
    _check_repeats_hash_and_compare_nothing("14.1", n, ctx, monkeypatch)


@settings(max_examples=150)
@given(
    fid=st.sampled_from(ALL_IDS),
    n=st.integers(0, 3000),
    digits=st.integers(5, 80),
    max_terms=st.integers(1, 130),  # past the c_k sign changes near k = 12..101
)
def test_est_error_bounds_served_values_at_model_anchors(fid, n, digits, max_terms):
    # brute force's digits are significant ones: 40 more than requested keep
    # its own rounding below every estimate at values up to about 10^20
    n = max(n, describe(fid).domain_min)
    ref = brute_force(fid, n, digits + 40)
    try:
        rep = evaluate(fid, n, EvalContext(digits=digits, max_terms=max_terms))
    except NonConvergenceError as exc:
        rep = exc.report
        with mp.workdps(digits + 50):
            event("refused, estimate covers" if abs(rep.value - ref) <= rep.est_error
                  else "refused, estimate under-reports")
        return
    event("served")
    with mp.workdps(digits + 50):
        assert abs(rep.value - ref) <= rep.est_error


def test_evaluate_reaches_240_digits_at_small_n():
    # each refused at the parent's anchor digits + 10 with the 500-term budget
    for fid in ("1.1", "10.1", "11.1", "14.1"):
        rep = evaluate(fid, 5, EvalContext(digits=240))
        with mp.workdps(270):
            assert abs(rep.value - brute_force(fid, 5, 250)) < mpf(10) ** -240


@pytest.mark.parametrize("digits", [40, 200])
def test_recovery_serves_every_constant_in_one_attempt(digits):
    # with no n0 there is no fallback: a refused first attempt would raise
    for cid, fid in RECOVERY_FORMULA.items():
        store = ConstantStore()
        res = catalog.recover_details(fid, digits=digits, store=store)
        assert res.constant == cid
        assert digits_agree(res.value, store.reference_digits(cid), digits)


def test_start_failing_the_fit_test_goes_to_the_model_anchor_with_no_series_run(monkeypatch):
    refusals = []

    def series(*args):
        try:
            return transform.eval_stirling_series(*args)
        except NonConvergenceError:
            refusals.append(args[1])
            raise

    monkeypatch.setattr(catalog, "eval_stirling_series", series)
    store = ConstantStore()
    res = catalog.recover_details("1.1", digits=60, n0=18, store=store)
    assert refusals == []  # n0 = 18 fails the anchor scan's fit test: no series runs there
    assert res.n0 == catalog._anchor(FormulaId(1, 1), 60, 16, 500)
    assert digits_agree(res.value, store.reference_digits(GAMMA), 60)


def test_refused_start_falls_back_to_the_model_anchor_once(monkeypatch):
    # n0 = 143 passes the fit test (59 predicted terms); the series, summed at
    # step 1/2 from 2 n0, is made to refuse there, so the anchor serves
    calls = []

    def series(inner, x, *args):
        calls.append(x)
        rep = transform.eval_stirling_series(inner, x, *args)
        if x == 286:
            raise NonConvergenceError("refused at 2 n0", rep)
        return rep

    monkeypatch.setattr(catalog, "eval_stirling_series", series)
    store = ConstantStore()
    res = catalog.recover_details("1.1", digits=40, n0=143, store=store)
    assert calls == [286, 574]
    assert res.n0 == 287
    assert digits_agree(res.value, store.reference_digits(GAMMA), 40)


def test_constants_past_the_reference_length_are_refused():
    before = default_store().compute_count
    with pytest.raises(NonConvergenceError):
        get_constant(GAMMA, 1001)
    assert default_store().compute_count == before
    with pytest.raises(NonConvergenceError):
        catalog.recover_details("2.1", digits=1001, store=ConstantStore())


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------


def test_digamma_at_small_integers():
    with mp.workdps(60):
        g = get_constant(GAMMA, 55)
        assert abs(catalog.digamma(1, 50) + g) < mpf("1e-49")
        assert abs(catalog.digamma(2, 50) - (1 - g)) < mpf("1e-49")


def test_digamma_at_one_half():
    # psi(1/2) = -gamma - 2 log 2, a clean probe of the shifted recurrence
    with mp.workdps(60):
        g = get_constant(GAMMA, 55)
        v = catalog.digamma(F(1, 2), 50)
        assert abs(v + g + 2 * mp.log(2)) < mpf("1e-48")


@pytest.mark.parametrize("x", [5, 20, 1000])
def test_digamma_recurrence(x):
    with mp.workdps(70):
        lhs = catalog.digamma(x + 1, 50)
        rhs = catalog.digamma(x, 50) + mpf(1) / x
        assert abs(lhs - rhs) < mpf("1e-47")


@pytest.mark.parametrize("x,digits", [(F(1, 3), 30), (7, 50), (mpf("2.5"), 40),
                                      (0.75, 20), (10**10, 60)])
def test_digamma_ignores_global_precision(x, digits):
    with mp.workdps(5):
        low = catalog.digamma_details(x, digits)
    with mp.workdps(300):
        high = catalog.digamma_details(x, digits)
    assert (low[0]._mpf_, low[1:]) == (high[0]._mpf_, high[1:])


def _served_with_fresh_caches(evals=(("4.1", 5, 30),), brutes=(("4.1", 5, 30),),
                              recoveries=(), logs=(), psi=((F(2, 7), 37),)):
    """The bits of evaluations (fresh store, no kept bridges), brute force,
    recoveries (a fresh store each), elementary pi and log, and digamma."""
    catalog._bridge.cache_clear()
    store = ConstantStore()
    out = [_report_bits(evaluate(fid, n, EvalContext(digits=d), store=store))
           for fid, n, d in evals]
    out += [brute_force(fid, n, d)._mpf_ for fid, n, d in brutes]
    for fid, d in recoveries:
        rec = catalog.recover_details(fid, digits=d, store=ConstantStore())
        out.append((rec.value._mpf_, rec.terms_used, rec.n0))
    out += [(elementary("pi", d)._mpf_, elementary("log", d, x)._mpf_) for x, d in logs]
    out += [(v._mpf_, terms, shift)
            for v, terms, shift in (catalog.digamma_details(x, d) for x, d in psi)]
    return out


def test_requests_complete_while_a_recovery_is_parked_in_its_series(monkeypatch):
    # no request waits on another thread's series call, and none reads the
    # precision of one running beside it
    expected = _served_with_fresh_caches()
    parked, release = threading.Event(), threading.Event()
    series = catalog.eval_stirling_series

    def parking(*args, **kwargs):
        if threading.current_thread().name == "recovery":
            parked.set()
            release.wait(60)
        return series(*args, **kwargs)

    monkeypatch.setattr(catalog, "eval_stirling_series", parking)
    recovery = threading.Thread(
        target=lambda: catalog.recover_details("2.1", digits=40, store=ConstantStore()),
        name="recovery", daemon=True)
    recovery.start()
    assert parked.wait(10)
    result = []
    worker = threading.Thread(target=lambda: result.append(_served_with_fresh_caches()),
                              daemon=True)
    worker.start()
    worker.join(timeout=10)
    finished = not worker.is_alive()  # before the recovery goes on
    release.set()
    recovery.join(timeout=20)
    worker.join(timeout=20)
    assert not recovery.is_alive()
    assert finished and result == [expected]


def test_served_bits_ignore_precision_changed_by_another_thread():
    # another thread switching mpmath's global precision while requests run
    # moves no served bit
    grid = dict(evals=[(fid, n, d) for fid in ("1.1", "4.1", "11.1") for n, d in
                       ((2, 20), (9, 30), (300, 25))],
                brutes=[(fid, 40, d) for fid in ("2.1", "14.1") for d in (20, 50)],
                recoveries=[("2.1", 30), ("1.1", 45)],
                logs=[(2, 20), (mpf(3) / 7, 40)], psi=[])
    expected = _served_with_fresh_caches(**grid)
    stop = threading.Event()

    def toggle():
        while not stop.is_set():
            mp.dps = 5
            mp.dps = 300

    prec, interval = mp.prec, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    toggler = threading.Thread(target=toggle, daemon=True)
    toggler.start()
    try:
        served = [_served_with_fresh_caches(**grid) for _ in range(5)]
    finally:
        stop.set()
        toggler.join(timeout=10)
        sys.setswitchinterval(interval)
        mp.prec = prec
    assert not toggler.is_alive()
    assert served == [expected] * 5


def test_package_leaves_global_precision_alone():
    # every numeric routine takes its precision as an argument
    src = pathlib.Path(catalog.__file__).parent
    pattern = re.compile(r"\bmp\.(dps|prec)\b|work(dps|prec)|extra(dps|prec)|_PRECISION_LOCK")
    found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert found == []


def test_identity_is_defined_once_in_keyed():
    # every value class with an identity takes equality and the hash from
    # exactnum._Keyed's key; the others keep identity equality
    src = pathlib.Path(catalog.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body}
        found += [(path.name, owner.get(id(node)), node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")]
    assert found == [("exactnum.py", "_Keyed", "__eq__"), ("exactnum.py", "_Keyed", "__hash__")]


def test_slots_are_written_only_by_frozen_fill():
    # exactnum._Frozen._fill is the one writer of a value's slots: no
    # object.__setattr__, setattr() or descriptor __set__ anywhere else
    src = pathlib.Path(catalog.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in ast.walk(cls)}
        found += [(path.name, owner.get(id(node)), ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__set__")
                  or isinstance(node, ast.Name) and node.id == "setattr"]
    assert found == [("exactnum.py", "_Frozen", "vars(c)[name].__set__")]


def test_digamma_past_every_reachable_anchor_refuses_promptly():
    # no anchor within the brute-force cap fits 2200 terms at 20000 digits
    t0 = time.perf_counter()
    with pytest.raises(NonConvergenceError) as exc:
        catalog.digamma_details(2, 20000)
    assert exc.value.report.terms_used >= 1
    assert time.perf_counter() - t0 < 30.0


def test_digamma_rejects_nonpositive_and_bad_digits():
    for bad in (0, -1, F(-1, 2), 0.0, -2.5, mpf(0), mpf(-3), float("inf"), float("-inf"),
                float("nan"), mpf("inf"), mpf("-inf"), mpf("nan")):
        with pytest.raises(DomainError):
            catalog.digamma(bad, 30)
    with pytest.raises(DomainError):
        catalog.digamma(1, 0)


# (x, digits, terms, shift): the shift served when x was first rounded to
# prec bits, which taking x exactly must keep, and the terms of 1.1's
# serving inner (step 2) at the exact argument.
EXACT_ARGUMENT_CASES = [
    (x, digits, terms, shift)
    for x, rows in ((F(1, 10), ((20, 22, 147), (50, 42, 268), (100, 77, 473))),
                    ("0.1", ((20, 22, 147), (50, 42, 268), (100, 77, 473))),
                    (F(123457, 10), ((20, 11, 0), (50, 21, 0), (100, 38, 0))),
                    (F(1, 3), ((20, 22, 147), (50, 42, 268), (100, 77, 473))))
    for digits, terms, shift in rows
]


@pytest.mark.parametrize("x,digits,terms,shift", EXACT_ARGUMENT_CASES)
def test_digamma_at_its_exact_argument(x, digits, terms, shift):
    value, used, applied = catalog.digamma_details(x, digits)
    assert (used, applied) == (terms, shift)
    r = F(x)
    with mp.workdps(digits + 20):
        assert abs(value - mp.digamma(mpf(r.numerator) / r.denominator)) <= mpf(10) ** -digits / 2


def test_digamma_rounds_a_long_argument_to_prec_bits():
    # an mpf with a 3000-bit mantissa and a Fraction with 400-bit parts are
    # served as their prec-bit rounding
    digits = 30
    prec = dps_to_prec(digits + EvalContext(digits).guard + 8)
    long_mpf = mp.make_mpf(from_rational((1 << 2999) | 1, 1 << 2998, 3000, round_nearest))
    long_fraction = F(3**252 + 1, 7**142)
    assert long_mpf._mpf_[3] == 3000
    assert min(long_fraction.numerator.bit_length(), long_fraction.denominator.bit_length()) > 398
    for x in (long_mpf, long_fraction):
        p, q = transform._as_ratio(x)
        rounded = mp.make_mpf(from_rational(p, q, prec, round_nearest))
        assert F(*transform._as_ratio(rounded)) != F(p, q)
        served = catalog.digamma_details(x, digits)
        expected = catalog.digamma_details(rounded, digits)
        assert (served[0]._mpf_, served[1:]) == (expected[0]._mpf_, expected[1:])


# ---------------------------------------------------------------------------
# Honest refusal at unreachable depth
# ---------------------------------------------------------------------------


def test_evaluate_past_constant_reach_degrades_then_refuses():
    # a depth no constant recovery can serve: the head constant falls back
    # to a modest precision and the run still ends in a prompt, honest
    # refusal carrying a genuine partial value
    t0 = time.perf_counter()
    with pytest.raises(NonConvergenceError) as exc:
        evaluate("1.1", 10, ctx=EvalContext(digits=1500), store=ConstantStore())
    assert time.perf_counter() - t0 < 60.0
    assert "past recovery reach" in str(exc.value)
    rep = exc.value.report
    assert rep.terms_used >= 1
    assert rep.est_error >= mpf(10) ** -120  # floored at the fallback precision
    with mp.workdps(80):
        assert abs(rep.value - brute_force("1.1", 10, digits=60)) < mpf(10) ** -50


def test_recovery_refuses_digits_past_the_reference_quickly():
    # digits past gamma's reference are refused up front, not ground out for hours
    t0 = time.perf_counter()
    with pytest.raises(NonConvergenceError):
        catalog.recover_details("1.1", digits=2400, store=ConstantStore())
    assert time.perf_counter() - t0 < 30.0


def test_recovery_from_a_hopeless_n0_calls_no_series_there(monkeypatch):
    # n0 = 2 needs millions of terms at 300 digits: the anchor scan's fit
    # test sends the recovery to its anchor before any series call at n0
    calls = []

    def series(inner, x, *args):
        calls.append(x)
        return transform.eval_stirling_series(inner, x, *args)

    monkeypatch.setattr(catalog, "eval_stirling_series", series)
    store = ConstantStore()
    part = describe("7.1").series[0]
    res = catalog.recover_details("7.1", 300, n0=2, store=store)
    assert res.n0 == catalog._anchor(FormulaId(7, 1), 300, 40, 1320)
    assert calls == [part.step * res.n0]
    assert digits_agree(res.value, store.reference_digits(zeta(F(1, 2))), 300)


def _served_alike_by_racing_threads(requests, cache) -> bool:
    """Whether 8 threads at a 1-us switch interval, each serving the
    (fid, n, digits) ``requests`` in its own order from an emptied ``cache``
    and no kept plans, all get the bits of a single-threaded run."""

    def serve(req):
        fid, n, digits = req
        return _report_bits(evaluate(fid, n, EvalContext(digits=digits)))

    expected = {req: serve(req) for req in requests}
    cache.cache_clear()
    catalog._plan.cache_clear()
    got = [{} for _ in range(8)]

    def work(i):
        for req in requests[i:] + requests[:i]:
            got[i][req] = serve(req)

    race(work, 60)
    return all(g == expected for g in got)


def test_memoized_right_hand_sides_under_threads():
    # requests below their anchors, and at or past them, served by racing
    # threads building their plans from none, get the bits of a
    # single-threaded run
    requests = [(fid, n, digits) for fid in ("4.1", "11.1", "13.1")
                for n in (1, 2, 5, 10, 20, 500, 3000) for digits in (20, 30, 50)]
    assert any(n >= catalog._anchor(FormulaId.parse(fid), digits, EvalContext(digits).guard, 500)
               for fid, n, digits in requests)
    assert _served_alike_by_racing_threads(requests, catalog._plan)


# ---------------------------------------------------------------------------
# Bridges kept below the anchor
# ---------------------------------------------------------------------------


def _check_bridge(fid, n, ctx, clear=True):
    """An evaluation below the anchor serves the bits of one that sums its
    bridge directly, with the kept bridges cleared (unless ``clear`` is
    false) and again with its own bridge kept; from cleared, the one bridge
    kept has the bits of the direct sum."""
    f = describe(fid)
    anchor = catalog._anchor(f.id, ctx.digits, ctx.guard, 500)
    assert f.domain_min <= n < anchor
    with pytest.MonkeyPatch.context() as patch:  # the bridge summed directly
        patch.setattr(catalog, "_bridge", catalog._summand_sum)
        expected = _report_bits(evaluate(fid, n, ctx))
    if clear:
        catalog._bridge.cache_clear()
    assert _report_bits(evaluate(fid, n, ctx)) == expected
    assert _report_bits(evaluate(fid, n, ctx)) == expected  # bridge kept
    if clear:
        info = catalog._bridge.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        prec = dps_to_prec(ctx.digits + ctx.guard + catalog._headroom(f, anchor))
        direct = catalog._summand_sum(f.summand, n, anchor, prec)
        assert catalog._bridge(f.summand, n, anchor, prec)._mpf_ == direct._mpf_
        assert catalog._bridge.cache_info().hits == 2


@settings(max_examples=300)
@given(fid=st.sampled_from(ALL_IDS), digits=st.sampled_from((20, 30, 50)), data=st.data())
def test_kept_bridges_match_direct_sums(fid, digits, data):
    f, ctx = describe(fid), EvalContext(digits=digits)
    below = st.integers(f.domain_min, catalog._anchor(f.id, digits, ctx.guard, 500) - 1)
    _check_bridge(fid, data.draw(below, label="n"), ctx)
    # a second bridge beside the first, or the first again
    _check_bridge(fid, data.draw(below, label="then n"), ctx, clear=False)


@pytest.mark.parametrize("fid", ALL_IDS, ids=str)
def test_kept_bridges_match_direct_sums_at_both_ends(fid):
    f = describe(fid)
    for ctx in map(EvalContext, (20, 30, 50)):
        _check_bridge(fid, catalog._anchor(f.id, ctx.digits, ctx.guard, 500) - 1, ctx)
        _check_bridge(fid, f.domain_min, ctx, clear=False)


def _kept_bridges():
    return catalog._bridge.cache_info().currsize


def test_formulas_with_one_summand_share_a_bridge():
    catalog._bridge.cache_clear()
    ctx = EvalContext(digits=30)
    for fid in ("1.1", "1.2"):
        evaluate(fid, 5, ctx)
    assert _kept_bridges() == 1
    for fid in ("4.1", "4.2", "4.3"):
        evaluate(fid, 5, ctx)
    assert _kept_bridges() == 2
    # 16.1 sums 1.1's terms with signs, at the same anchor and precision
    assert catalog._anchor(FormulaId(16, 1), 30, ctx.guard, 500) == catalog._anchor(
        FormulaId(1, 1), 30, ctx.guard, 500)
    _check_bridge("16.1", 5, ctx, clear=False)
    assert _kept_bridges() == 3
    evaluate("1.1", 10**4, ctx)  # past the anchor: no bridge to keep
    assert _kept_bridges() == 3
    # one precision, two anchors: two bridges
    first, second = EvalContext(digits=20, guard=40), EvalContext(digits=50, guard=10)
    assert catalog._anchor(FormulaId(1, 1), 20, 40, 500) != catalog._anchor(
        FormulaId(1, 1), 50, 10, 500)
    _check_bridge("1.1", 5, first)
    _check_bridge("1.1", 5, second, clear=False)
    assert _kept_bridges() == 2


def test_kept_bridges_stay_within_their_cap():
    # an evaluation's bridge, then 1024 one-term bridges at other precisions:
    # the least recently used goes each time, and is summed again, to the
    # same bits, on its next use
    catalog._bridge.cache_clear()
    ctx, u = EvalContext(digits=20), describe("2.1").summand
    served = _report_bits(evaluate("2.1", 2, ctx))
    for prec in range(2000, 3024):
        catalog._bridge(u, 1, 2, prec)
    info = catalog._bridge.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1025, 1024)
    assert _report_bits(evaluate("2.1", 2, ctx)) == served  # its bridge was the oldest
    catalog._bridge(u, 1, 2, 3023)  # the newest, kept
    catalog._bridge(u, 1, 2, 2000)  # dropped by the evaluation's
    info = catalog._bridge.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1027, 1024)


def test_kept_bridges_under_threads():
    # formulas sharing a summand, and one summing it with signs, keep their
    # bridges in an empty cache from racing threads
    requests = [(fid, n, 30) for fid in ("1.1", "1.2", "16.1") for n in range(1, 21)]
    assert _served_alike_by_racing_threads(requests, catalog._bridge)
    assert _kept_bridges() == 40


def test_kept_bridges_evict_under_threads():
    # threads racing past the cap each drop the least recently used bridge:
    # none fails, and the cap holds
    catalog._bridge.cache_clear()
    u = describe("1.1").summand

    def work(i):
        for prec in range(100 + 1000 * i, 1100 + 1000 * i):
            catalog._bridge(u, 1, 2, prec)

    race(work, 30)  # re-raises what any thread raised
    info = catalog._bridge.cache_info()
    assert (info.misses, info.currsize) == (8000, 1024)


def test_weighted_harmonic_closed_form_under_threads(monkeypatch):
    # the inners of 12.1, 13.1 and 14.1 read H_l from one harmonic-number
    # table, filled from a cold start by racing threads; each equals its
    # definition: 13.1's weight (l+1) H_l - l is sum_m (m+1)/(l-m), and the
    # plain-log inners of 12.1 and 14.1 are B_(l+1) S_(l+1)(2) / (l+1)! and
    # B_(l+2) S_(l+1)(2) / (l+2)!, checked past stirling_row's 300-row cache
    monkeypatch.setattr(catalog, "_harmonic_numbers", _Table(catalog._harmonic_numbers.step, [F(0)]))
    top = 320
    expected = {}
    for l in range(1, top + 1):
        s2 = stirling_first(l + 1, 2)
        expected[l] = (
            sum((F(m + 1, l - m) for m in range(l)), F(0)),
            bernoulli(l + 1) * s2 / math.factorial(l + 1),
            bernoulli(l + 2) * s2 / math.factorial(l + 2),
        )
    got = {}

    def work(offset):
        for l in range(top - offset, 0, -8):
            got[l] = (catalog._weighted_harmonic(l), catalog._plain_log_inner(l),
                      catalog._plain_log2_inner(l))

    race(work, 30)
    assert got == expected
    h = [F(0)]
    for j in range(1, top + 1):
        h.append(h[-1] + F(1, j))
    assert catalog._harmonic_numbers.values == tuple(h)


def test_no_serving_module_calls_the_stirling_triangle():
    # the catalog's inners use closed forms; Stirling rows serve only the
    # public API and exactnum's own number families
    src = pathlib.Path(catalog.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("stirling_first", "stirling_row"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
