"""Serving requests: in-process through the public API, or in a fresh
``python -m stirlingsum`` child per request."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from stirlingsum import catalog
from stirlingsum.constants import ConstantStore
from stirlingsum.transform import EvalContext, NonConvergenceError

from workloads import Request

# A child that runs longer than this counts as a failure (timeout).
CLI_TIMEOUT_S = 120

OK, REFUSED, FAILED = "ok", "refused", "failed"


@dataclass
class Outcome:
    """What one request returned, and how long it took.

    ``value`` is what the checker compares: an mpf or a
    :class:`~stirlingsum.catalog.RecoveryResult` from the API, the parsed
    json record from the CLI. A refusal keeps its partial report as
    ``(terms, est_error)``.
    """

    request: Request
    latency: float
    status: str
    value: object = None
    partial: tuple | None = None
    detail: str = ""


def call_api(req: Request):
    """The request's public-API call; recoveries get a fresh ConstantStore."""
    if req.kind == "evaluate":
        return catalog.evaluate(req.target, req.n, EvalContext(digits=req.digits)).value
    if req.kind == "digamma":
        return catalog.digamma_details(Fraction(req.target), req.digits)[0]
    if req.kind == "recover":
        return catalog.recover_details(req.target, digits=req.digits, n0=req.n,
                                       store=ConstantStore())
    raise ValueError(f"no API call for {req.kind}")


def serve_api(req: Request) -> Outcome:
    t0 = time.perf_counter()
    try:
        value = call_api(req)
    except NonConvergenceError as exc:
        rep = exc.report
        return Outcome(req, time.perf_counter() - t0, REFUSED,
                       partial=(rep.terms_used, rep.est_error))
    except Exception as exc:  # a crash is a counted failure, not a stop
        return Outcome(req, time.perf_counter() - t0, FAILED, detail=repr(exc))
    return Outcome(req, time.perf_counter() - t0, OK, value)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def serve_cli(req: Request, root: str, command: list[str] | None = None) -> Outcome:
    """Run one request in a fresh child; ``command`` replaces ``-m stirlingsum``."""
    argv = [sys.executable] + (command or ["-m", "stirlingsum"]) + req.argv()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(req, time.perf_counter() - t0, FAILED, detail="timeout")
    latency = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if proc.returncode == 0 and isinstance(record, dict) and "error" not in record:
        return Outcome(req, latency, OK, record)
    if proc.returncode == 3 and isinstance(record, dict):
        return Outcome(req, latency, REFUSED,
                       partial=(record.get("terms"), record.get("est_error")))
    return Outcome(req, latency, FAILED,
                   detail=f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
