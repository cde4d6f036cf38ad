"""End-to-end tests of the command-line interface, run in-process."""

import hashlib
import importlib.resources as resources
import json
import os
import subprocess
import sys
import zipfile
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from stirlingsum import catalog, cli, constants


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records, err


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def test_list_prints_every_formula(capsys):
    code, out, _ = run(capsys, "list")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 32
    assert lines[0].startswith("1.1")
    assert all("n>=" in line for line in lines)


def test_list_family_filter_and_json(capsys):
    code, records, _ = run_json(capsys, "list", "--family", "4")
    assert code == 0
    assert [r["id"] for r in records] == ["4.1", "4.2", "4.3"]
    assert all(
        set(r) == {"id", "lhs", "constants", "domain_min", "alternating"}
        for r in records
    )


def test_list_rejects_unknown_family(capsys):
    code, out, err = run(capsys, "list", "--family", "99")
    assert code == 2 and out == "" and "unknown formula family" in err


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_exact_values(capsys):
    code, records, _ = run_json(capsys, "coeffs", "1.1", "-k", "4")
    assert code == 0
    assert records[0]["coefficients"] == ["-1/12", "-1/12", "-19/120", "-9/20"]
    code, records, _ = run_json(capsys, "coeffs", "2.2", "-k", "2")
    assert code == 0
    assert records[0]["coefficients"] == ["1/2", "1/3"]


def test_coeffs_text_is_one_indexed(capsys):
    code, out, _ = run(capsys, "coeffs", "1.1", "-k", "2")
    assert code == 0
    assert out.splitlines() == ["1 -1/12", "2 -1/12"]


def test_coeffs_rejects_nonpositive_count(capsys):
    code, _, err = run(capsys, "coeffs", "1.1", "-k", "0")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_compare_agrees_with_brute_force(capsys):
    code, records, _ = run_json(
        capsys, "eval", "1.1", "-n", "10", "-d", "30", "--compare"
    )
    assert code == 0
    rec = records[0]
    assert rec["terms"] > 0
    assert rec["value"].startswith(rec["brute"][:25])
    assert mpf(rec["difference"]) < mpf("1e-25")


def test_eval_alternating_variant_from_domain_edge(capsys):
    code, records, _ = run_json(
        capsys, "eval", "15.1", "-n", "0", "-d", "20", "--compare"
    )
    assert code == 0
    assert mpf(records[0]["difference"]) < mpf("1e-15")


def test_eval_scientific_count_shorthand(capsys):
    code, records, _ = run_json(capsys, "eval", "1.1", "-n", "1e3", "-d", "20")
    assert code == 0
    assert records[0]["n"] == 1000


def test_eval_count_is_parsed_exactly(capsys):
    # 2^53 + 1 has no float, so a float round trip would serve 2^53
    code, records, _ = run_json(capsys, "eval", "1.1", "-n", "9007199254740993e0", "-d", "20")
    assert code == 0
    assert records[0]["n"] == 9007199254740993
    for bad in ("1e1000000000", "1e4300", "2.5", "1e-3", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "1.1", "-n", bad])
        assert exc.value.code == 2, bad
        assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval", "1.1"], ["verify", "--family", "1"]])
@pytest.mark.parametrize("bad, reason", [("1.5", "not an integer"),
                                         ("1e4300", "more than 4300 digits"),
                                         ("abc", "not a number"), ("1,5", "not a number"),
                                         ("nan", "not a finite number"),
                                         ("inf", "not a finite number")])
def test_bad_count_names_its_reason(capsys, command, bad, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "-n", bad])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument -n: invalid count {bad!r}: {reason}" in err
    assert "_parse_count" not in err


def test_eval_below_domain_is_rejected(capsys):
    code, _, err = run(capsys, "eval", "10.1", "-n", "0", "-d", "20")
    assert code == 2 and "error:" in err


def test_eval_unreachable_depth_reports_partial_and_exits_3(capsys):
    code, records, _ = run_json(capsys, "eval", "1.1", "-n", "10", "-d", "2000")
    assert code == 3
    rec = records[0]
    assert rec["error"] == "non-convergence"
    assert rec["terms"] >= 1
    assert "partial_value" in rec
    # the partial is still a genuine estimate of the target sum
    with mp.workdps(60):
        target = catalog.brute_force("1.1", 10, digits=40)
        assert abs(mpf(rec["partial_value"][:40]) - target) < mpf("1e-30")


def test_eval_past_the_int_to_str_limit_exits_3_with_its_record(capsys):
    # 4400 digits: the degraded partial value has more digits than CPython's
    # str() of an int prints, and still renders, in text and in --json
    code, out, err = run(capsys, "eval", "1.1", "-n", "10", "-d", "4400")
    assert code == 3 and err == ""
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["error"].startswith("non-convergence: 1.1 at n=10: head constants past")
    code_j, records, err = run_json(capsys, "eval", "1.1", "-n", "10", "-d", "4400")
    assert code_j == 3 and err == ""
    [rec] = records
    assert rec["error"] == "non-convergence"
    assert rec["partial_value"] == lines["partial_value"]
    assert len(rec["partial_value"].partition(".")[2]) == 4400
    assert rec["partial_value"].startswith("2.928968253968253968253968253968")


def test_rational_prints_numerators_past_the_int_to_str_limit():
    # from k = 1551 a printed c_k of 1.1 has a numerator past 4300 digits
    q = Fraction(-(10**5000 + 1), 3)
    assert cli._rational(q) == "-1" + "0" * 4999 + "1/3"
    assert cli._rational(Fraction(0)) == "0/1"


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------


def test_digamma_known_values(capsys):
    code, out, _ = run(capsys, "digamma", "1", "-d", "30")
    assert code == 0
    assert out.splitlines()[0] == "-0.577215664901532860606512090082"
    code, out, _ = run(capsys, "digamma", "2", "-d", "10")
    assert code == 0
    assert out.splitlines()[0] == "0.4227843351"


def test_digamma_accepts_fractions_and_decimals(capsys):
    code_a, rec_a, _ = run_json(capsys, "digamma", "1/2", "-d", "20")
    code_b, rec_b, _ = run_json(capsys, "digamma", "0.5", "-d", "20")
    assert code_a == code_b == 0
    assert rec_a[0]["value"] == rec_b[0]["value"]


def test_digamma_rejects_nonpositive(capsys):
    for bad in ("0", "-1"):
        code, _, err = run(capsys, "digamma", bad, "-d", "20")
        assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def test_recover_reports_constant_and_anchor(capsys):
    code, records, _ = run_json(capsys, "recover", "1.1", "-d", "40")
    assert code == 0
    rec = records[0]
    assert rec["constant"] == "gamma"
    assert rec["value"].startswith("0.57721566490153286060651209008240243")
    assert rec["n0"] >= 2 and rec["terms"] > 0


def test_recover_unreachable_depth_has_no_partial_value(capsys):
    # a failed recovery's running sum is a series fragment, not an estimate
    # of the constant, so the error record must not offer it as one
    code, records, _ = run_json(capsys, "recover", "1.1", "-d", "2400")
    assert code == 3
    rec = records[0]
    assert rec["error"] == "non-convergence"
    assert "partial_value" not in rec


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_family_passes(capsys):
    code, records, _ = run_json(capsys, "verify", "--family", "10", "-n", "5")
    assert code == 0
    assert [r["status"] for r in records[:-1]] == ["pass", "pass", "pass"]
    assert records[-1] == {"passed": 3, "failed": 0}


def test_verify_json_is_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "verify", "--family", "4", "-n", "10", "--json")
    code_b, out_b, _ = run(capsys, "verify", "--family", "4", "-n", "10", "--json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_verify_all_uses_the_default_n_set(capsys):
    code, records, _ = run_json(capsys, "verify", "--all")
    assert code == 0
    assert records[-1] == {"passed": 32, "failed": 0}
    by_id = {r["id"]: r for r in records[:-1]}
    assert len(by_id) == 32
    assert by_id["4.1"]["n"] == [2, 10, 100] and by_id["1.1"]["n"] == [3, 10, 100]


def test_verify_needs_exactly_one_scope(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "verify", "--all", "--family", "4")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "verify", "--family", "99")
    assert code == 2 and "unknown formula family" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_digamma_record_shape(capsys):
    code, records, _ = run_json(
        capsys, "bench", "digamma", "--x", "10", "-d", "15", "-r", "2"
    )
    assert code == 0
    rec = records[0]
    assert rec["target"] == "digamma" and rec["runs"] == 2
    assert set(rec) == {"target", "x", "digits", "runs", "median_ms", "min_ms", "terms"}
    assert float(rec["median_ms"]) >= float(rec["min_ms"]) >= 0


def test_bench_eval_record_shape(capsys):
    code, records, _ = run_json(
        capsys, "bench", "eval", "--id", "1.1", "-n", "5", "-d", "15", "-r", "2"
    )
    assert code == 0
    rec = records[0]
    assert (rec["target"], rec["id"], rec["n"], rec["runs"]) == ("eval", "1.1", 5, 2)
    assert set(rec) == {"target", "id", "n", "digits", "runs", "median_ms", "min_ms", "terms"}
    assert rec["terms"] > 0
    assert float(rec["median_ms"]) >= float(rec["min_ms"]) >= 0


def test_bench_eval_needs_id_and_n(capsys):
    code, _, err = run(capsys, "bench", "eval")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv", [("eval", "--id", "1.1", "-n", "5"), ("digamma", "--x", "3")]
)
def test_bench_rejects_fewer_than_one_run(capsys, argv):
    code, out, err = run(capsys, "bench", *argv, "-r", "0")
    assert code == 2 and out == "" and "--repeat" in err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_reference_mismatch_exits_1(capsys, monkeypatch, tmp_path):
    raw = (
        resources.files("stirlingsum")
        .joinpath("data/reference_digits.txt")
        .read_text("ascii")
    )
    _, _, body = raw.partition("\n")
    # alter the pi digits, then re-seal the checksum so loading succeeds
    body = body.replace("3.14159", "3.24159", 1)
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    bad = tmp_path / "refs.txt"
    bad.write_text(f"checksum sha256 {digest}\n{body}", "ascii")
    monkeypatch.setattr(constants, "_DEFAULT_STORE", constants.ConstantStore(bad))
    code, out, err = run(capsys, "eval", "15.1", "-n", "3")
    assert code == 1 and out == ""
    assert "pi" in err and "disagrees with the embedded reference" in err


@pytest.mark.parametrize("blank", [True, False], ids=["blank-line", "no-file"])
def test_bad_reference_file_exits_2(capsys, monkeypatch, tmp_path, blank):
    # a checksummed file with a blank line, and a path that names no file
    path = tmp_path / "refs.txt"
    if blank:
        data = resources.files("stirlingsum").joinpath("data/reference_digits.txt")
        body = data.read_text("ascii").partition("\n")[2].replace("\n", "\n\n", 1)
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        path.write_text(f"checksum sha256 {digest}\n{body}", "ascii")
    monkeypatch.setenv(constants.REFERENCE_PATH_ENV, str(path))
    monkeypatch.setattr(constants, "_DEFAULT_STORE", constants.ConstantStore())
    code, out, err = run(capsys, "eval", "1.1", "-n", "5", "-d", "20")
    assert code == 2 and out == ""
    assert err.startswith(f"error: reference digits file: {path}: ")
    assert ("line 3" if blank else "cannot read") in err


# ---------------------------------------------------------------------------
# output conventions
# ---------------------------------------------------------------------------


def test_text_and_json_carry_the_same_numbers(capsys):
    code, records, _ = run_json(capsys, "eval", "2.1", "-n", "10", "-d", "25")
    code_t, out, _ = run(capsys, "eval", "2.1", "-n", "10", "-d", "25")
    assert code == code_t == 0
    rec = records[0]
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["value"] == rec["value"]
    assert int(lines["terms"]) == rec["terms"]
    assert lines["est_error"] == rec["est_error"]


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

_COLD_IMPORT = """
import json
import sys
before = set(sys.modules)
import stirlingsum.cli
unused = {"dataclasses", "hashlib", "inspect", "statistics", "stirlingsum.asymptotics"}
print(json.dumps(sorted(unused & (set(sys.modules) - before))))
import stirlingsum
from stirlingsum import catalog
star = {}
exec("from stirlingsum import *", star)
print(json.dumps([stirlingsum.em_tail.__module__, stirlingsum.LogPowerTerm.__name__,
                  star["differentiate"].__module__, sorted(set(stirlingsum.__all__) - set(star)),
                  catalog.em_variant_map("1.1", 20) == catalog.em_reference_map("1.1", 20)]))
"""


_PACKAGE = os.path.dirname(os.path.abspath(catalog.__file__))
_SITE_PACKAGES = os.path.dirname(os.path.dirname(os.path.abspath(mpmath.__file__)))


def _fresh_child(script: str, *flags: str, path: str | None = None) -> list:
    """The JSON lines ``script`` prints in a fresh interpreter on this package,
    or on the import path ``path``."""
    if path is None:
        path = os.pathsep.join(filter(None, [os.path.dirname(_PACKAGE),
                                             os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_loads_nothing_a_request_never_uses():
    # in a fresh interpreter: what the command-line entry imports, and that
    # the summation-tail names are still served once asked for
    loaded, served = _fresh_child(_COLD_IMPORT)
    assert loaded == []
    assert served == ["stirlingsum.asymptotics", "LogPowerTerm", "stirlingsum.asymptotics", [],
                      True]


_SERVE_CONSTANTS = """
import json
import sys
from fractions import Fraction
from stirlingsum import catalog
from stirlingsum.constants import GAMMA, ConstantStore, default_store, zeta
catalog.evaluate("1.1", 40)
store = ConstantStore()
store.get(zeta(2), 30)  # recovered through 2.1, checked against its reference
catalog.digamma_details(Fraction(7, 3), 30)
print(json.dumps([default_store().cached_digits(GAMMA) > 0, store.compute_count,
                  sorted({"hashlib", "_hashlib"} & set(sys.modules))]))
"""


def test_serving_constants_never_loads_openssl():
    # a served head constant, a recovery from a fresh store and a digamma
    # call: the reference digits are checked with CPython's built-in SHA-256,
    # since hashlib would load OpenSSL, about 3.5 MiB of resident memory
    [[fetched, computed, loaded]] = _fresh_child(_SERVE_CONSTANTS)
    assert fetched and computed == 1
    assert loaded == []


_PLAIN_START = """
import json
import sys
import stirlingsum.cli
from stirlingsum import catalog
from stirlingsum.constants import PI, get_constant
get_constant(PI, 30)
catalog.golden_coefficients("1.1")
machinery = {"importlib.resources", "pathlib", "zipfile", "tempfile", "shutil", "typing"}
print(json.dumps(sorted(machinery & set(sys.modules))))
"""


def test_plain_start_loads_no_resource_machinery():
    # under -S no site hook runs before the package, so what is loaded is what
    # the package asks for: its data files are read by its own loader
    path = os.pathsep.join([os.path.dirname(_PACKAGE), _SITE_PACKAGES])
    assert _fresh_child(_PLAIN_START, "-S", path=path) == [[]]


_ZIPPED = """
import json
import stirlingsum
from stirlingsum import catalog
from stirlingsum.constants import ConstantStore, zeta
from stirlingsum.exactnum import DomainError
store = ConstantStore()
store.get(zeta(2), 30)  # recovered through 2.1, checked against the zipped reference
try:
    catalog.golden_coefficients("1.1", 1)
    missing = None
except DomainError as exc:
    missing = str(exc)
print(json.dumps([stirlingsum.__file__, store.compute_count,
                  [str(c) for c in catalog.golden_coefficients("2.1")], missing]))
"""


def test_zip_imported_package_reads_its_data(tmp_path):
    archive = tmp_path / "stirlingsum.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for root, dirs, files in os.walk(_PACKAGE):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                full = os.path.join(root, name)
                zf.write(full, os.path.relpath(full, os.path.dirname(_PACKAGE)))
    path = os.pathsep.join([str(archive), _SITE_PACKAGES])
    [[where, computed, golden, missing]] = _fresh_child(_ZIPPED, path=path)
    assert where.startswith(str(archive))
    assert computed == 1
    assert golden == [str(c) for c in catalog.golden_coefficients("2.1")]
    assert missing == "no golden file for 1.1 log_power=1"
