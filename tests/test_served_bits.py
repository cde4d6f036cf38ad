"""Served bits as a standing check: the fixed grids of ``tools/served_table.py``
(evaluations with brute force beside them, digamma, recoveries, the CLI
commands and the deep cases: the transform past k = 600, root summands and
AGM logs) against the short hashes pinned in ``served_bits.jsonl``; the one
judge of served values in ``tools/`` (``independent``, ``judge`` and
``compare``'s exit rule); and every tool's ``--help``.

A change that moves served bits on purpose re-pins in the same change with

    PYTHONPATH=src python tools/served_table.py pin tests/served_bits.jsonl

and names each moved case in CHANGES.md.
"""

import glob
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from stirlingsum import catalog
from stirlingsum.constants import ConstantStore
from stirlingsum.transform import EvalContext

_TESTS = os.path.dirname(os.path.abspath(__file__))
_TOOLS = os.path.join(os.path.dirname(_TESTS), "tools")
_TOOL = os.path.join(_TOOLS, "served_table.py")
_spec = importlib.util.spec_from_file_location("served_table", _TOOL)
served_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(served_table)


def test_served_bits_match_their_pins():
    # a fresh child: a store keeps a constant at the most digits any earlier
    # request asked for, and a plan is keyed on the values the store serves,
    # so a record made in this process would depend on the tests before it
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    pinned = os.path.join(_TESTS, "served_bits.jsonl")
    proc = subprocess.run([sys.executable, _TOOL, "check", pinned], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 moved, 0 in one side only" in proc.stdout


def _off_by_a_unit(value: mpf, digits: int, units: float = 1) -> mpf:
    with mp.workdps(digits + 30):
        return value + units * mpf(10) ** -digits


@pytest.mark.parametrize("kind, target, n, served", [
    ("evaluate", "7.1", 100, lambda: catalog.evaluate("7.1", 100, EvalContext(digits=30)).value),
    ("digamma", "1/3", None, lambda: catalog.digamma(Fraction(1, 3), 30)),
    ("recover", "1.1", None,
     lambda: catalog.recover_details("1.1", digits=30, store=ConstantStore()).value),
], ids=["evaluate", "digamma", "recover"])
def test_judge_passes_a_served_value_and_fails_it_a_unit_off(kind, target, n, served):
    check = served_table.independent(catalog, kind, target, n, 30)
    value = served()
    assert served_table.judge({"served": value}, check, 30) is None
    why = served_table.judge({"served": _off_by_a_unit(value, 30)}, check, 30)
    assert why and why.startswith("served 1.0 units off")


def test_independent_values_are_brute_force_digamma_and_the_reference_digits():
    assert served_table.independent(catalog, "evaluate", "7.1", 100, 30) == \
        catalog.brute_force("7.1", 100, 40)
    with mp.workdps(50):
        assert served_table.independent(catalog, "digamma", "1/3", None, 30) == \
            mp.digamma(mpf(1) / 3)
        assert abs(served_table.independent(catalog, "recover", "1.1", None, 30)
                   - mp.euler) < mpf(10) ** -49
    limit = served_table.BRUTE_LIMIT
    assert served_table.independent(catalog, "evaluate", "7.1", limit + 1, 30) is None


def test_judge_with_no_check_holds_two_sides_within_a_unit():
    value = mpf(1) / 3
    near, apart = _off_by_a_unit(value, 20, 0.5), _off_by_a_unit(value, 20, 2)
    assert served_table.judge({"A": value, "B": near}, None, 20) is None
    assert served_table.judge({"A": value, "B": apart}, None, 20) == "A and B 2.0 units apart"


def _record(path, value: mpf, check: mpf) -> str:
    bits = served_table._bits
    case = {"kind": "evaluate", "target": "7.1", "n": 100, "digits": 30, "served": True,
            "value": bits(value), "terms": 12, "est": bits(mpf(0)), "check": bits(check)}
    path.write_text(json.dumps(case) + "\n", encoding="ascii")
    return str(path)


def test_compare_fails_a_served_value_a_unit_off_its_check(tmp_path, capsys):
    with mp.workdps(60):
        value = mpf(1) / 7
    a = _record(tmp_path / "a.jsonl", value, value)
    assert served_table.compare(a, _record(tmp_path / "b.jsonl", value, value)) == 0
    moved = _record(tmp_path / "moved.jsonl", _off_by_a_unit(value, 30), value)
    capsys.readouterr()
    assert served_table.compare(a, moved) == 1
    assert "failed: B 1.0 units off: ('evaluate', '7.1', 100, 30, None)" in capsys.readouterr().out


@pytest.mark.parametrize("tool", sorted(glob.glob(os.path.join(_TOOLS, "*.py"))),
                         ids=os.path.basename)
def test_every_tool_prints_its_usage(tool):
    # make_reference_digits.py computes and overwrites the reference digits
    # when it runs, so --help must stop before any computation
    proc = subprocess.run([sys.executable, tool, "--help"], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
