"""Served bits as a standing check: the fixed grids of ``tools/served_table.py``
(evaluations with brute force beside them, digamma, recoveries, the CLI
commands and the deep cases: the transform past k = 600, root summands and
AGM logs) against the short hashes pinned in ``served_bits.jsonl``.

A change that moves served bits on purpose re-pins in the same change with

    PYTHONPATH=src python tools/served_table.py pin tests/served_bits.jsonl

and names each moved case in CHANGES.md.
"""

import os
import subprocess
import sys

from stirlingsum import catalog

_TESTS = os.path.dirname(os.path.abspath(__file__))
_TOOL = os.path.join(os.path.dirname(_TESTS), "tools", "served_table.py")


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
