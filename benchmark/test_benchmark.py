"""Tests of the benchmark's own parts: request generation and the checker.

    PYTHONPATH=src python -m pytest -q benchmark/test_benchmark.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from serve import FAILED, OK, REFUSED, Outcome, serve_cli  # noqa: E402
from stirlingsum import catalog  # noqa: E402
from stirlingsum.constants import ConstantStore, format_decimal  # noqa: E402
from workloads import Request  # noqa: E402

GENERATORS = [workloads.serve_warm, workloads.recover_deep, workloads.cold_cli]


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_same_requests(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_recover_deep_covers_every_recoverable_constant():
    fids = {r.target for r in workloads.recover_deep(3) if r.kind == "recover"}
    assert fids == set(workloads.RECOVER_BANDS)


def _last_digit_off(text: str) -> str:
    last = int(text[-1])
    return text[:-1] + str((last + 1) % 10)


def _outcome(req, value):
    return Outcome(req, 0.0, OK, value)


def test_checker_rejects_last_digit_perturbed_evaluate():
    req = Request("evaluate", "1.1", 30, n=10)
    exact = catalog.brute_force("1.1", 10, 60)
    text = format_decimal(exact, 30)
    assert Checker().value_error(_outcome(req, {"value": text})) is None
    bad = _last_digit_off(text)
    assert Checker().value_error(_outcome(req, {"value": bad})) is not None
    with mp.workdps(60):
        assert Checker().value_error(_outcome(req, exact)) is None
        assert Checker().value_error(_outcome(req, exact + mpf(10) ** -30)) is not None


def test_checker_rejects_last_digit_perturbed_digamma_and_recovery():
    req = Request("digamma", "2.5", 40)
    with mp.workdps(60):
        psi = mp.digamma(mpf(5) / 2)
    text = format_decimal(psi, 40)
    assert Checker().value_error(_outcome(req, {"value": text})) is None
    assert Checker().value_error(_outcome(req, {"value": _last_digit_off(text)})) is not None

    res = catalog.recover_details("1.1", digits=40, store=ConstantStore())
    req = Request("recover", "1.1", 40)
    assert Checker().value_error(_outcome(req, res)) is None
    with mp.workdps(60):
        shifted = catalog.RecoveryResult(res.constant, res.value + mpf(10) ** -40, res.n0,
                                         res.digits, res.terms_used)
    assert Checker().value_error(_outcome(req, shifted)) is not None


def test_checker_accepts_exit_3_refusal_with_partial_report():
    # head constant pi is elementary, so this refuses at once: 400 digits is
    # past what the default term budget reaches at n + 10 = 20
    out = serve_cli(Request("evaluate", "15.1", 400, n=10, may_refuse=True), ROOT)
    assert out.status == REFUSED, out.detail
    terms, est = out.partial
    assert terms >= 1
    assert Checker().check([out]) == []
    assert out.status == REFUSED


def test_checker_rejects_refusal_without_partial_report():
    req = Request("evaluate", "1.1", 30, n=10, may_refuse=True)
    out = Outcome(req, 0.0, REFUSED, partial=(0, "nan"))
    assert Checker().check([out]) != []
    assert out.status == FAILED


def test_checker_rejects_refusal_of_request_not_marked_may_refuse():
    out = Outcome(Request("evaluate", "1.1", 30, n=10), 0.0, REFUSED, partial=(12, "1e-20"))
    assert Checker().check([out]) != []
    assert out.status == FAILED


def test_only_requests_past_the_known_limits_may_refuse():
    for seed in range(5):
        marked = {r.target for r in workloads.cold_cli(seed) if r.may_refuse}
        assert marked == {"1.1", "16.1"}
        assert not any(r.may_refuse for r in workloads.serve_warm(seed))
        for r in workloads.recover_deep(seed):
            limit = workloads.LOG_EVAL_MAX_DIGITS.get(r.target) if r.kind == "evaluate" else None
            assert r.may_refuse == (limit is not None and r.digits > limit)


def test_checker_flags_repeat_that_differs():
    req = Request("digamma", "2.5", 20)
    with mp.workdps(40):
        psi = mp.digamma(mpf(5) / 2)
    first, again = _outcome(req, psi), _outcome(req, psi + mpf(10) ** -25)
    assert Checker().check([first, again]) != []
    assert (first.status, again.status) == (OK, FAILED)
