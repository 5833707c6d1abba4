"""CLI: golden-file byte equality, determinism, exit codes, file round trips."""

import contextlib
import importlib.util
import io
import json
import os
import time

import pytest

from diffops.cli import main
from diffops.fields import MAX_PICKS
from diffops.parsing import MAX_DIGITS, MAX_EXPONENT, MAX_POWER_PRODUCTS

from cli_cases import CASES, FIXTURES, expand

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, buf.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    rc, out, _ = run_cli(expand(argv))
    assert rc == 0
    with open(os.path.join(GOLDEN, f"{name}.txt"), "r", encoding="utf-8") as fh:
        assert out == fh.read()


def test_identical_invocations_are_byte_identical():
    argv = expand(CASES[0][1])
    assert run_cli(argv) == run_cli(argv)


def test_exit_code_parse_error():
    rc, _, err = run_cli(["normalize", "x3", "--n", "2"])
    assert rc == 1
    assert "out of range" in err
    rc, _, err = run_cli(["normalize", "x1 + + y1"])
    assert rc == 1
    assert "line 1" in err


def test_exit_code_math_precondition():
    rc, _, err = run_cli(["reduce", "dh", "--char", "5"])
    assert rc == 2
    assert "characteristic" in err
    rc, _, err = run_cli(["weyl-decompose", "dx1", "--mode", "heisenberg"])
    assert rc == 2


def test_exit_code_bad_file():
    rc, _, err = run_cli(["azumaya-check", "no_such_file.json"])
    assert rc == 1


#: usage errors: (argv, the exact stderr)
USAGE_ERRORS = {
    "missing_expression": (
        ["normalize"],
        "usage: diffops normalize [-h] [--n N] [--char CHAR] [--mode {heisenberg,weyl}]\n"
        "                         [--format {text,structured}]\n"
        "                         expr\n"
        "error: the following arguments are required: expr\n",
    ),
    "unknown_command": (
        ["no-such-command"],
        "usage: diffops [-h]\n"
        "               {normalize,comm,apply,compose,mdeg,order,reduce,weyl-decompose,"
        "decompose,reconstruct,zeta,eta,azumaya-check,zfilt}\n"
        "               ...\n"
        "error: argument command: invalid choice: 'no-such-command' (choose from "
        "'normalize', 'comm', 'apply', 'compose', 'mdeg', 'order', 'reduce', "
        "'weyl-decompose', 'decompose', 'reconstruct', 'zeta', 'eta', 'azumaya-check', "
        "'zfilt')\n",
    ),
    "bad_int_flag": (
        ["zfilt", "x", "--i-max", "q"],
        "usage: diffops zfilt [-h] [--i-max I_MAX] [--central CENTRAL]\n"
        "                     [--format {text,structured}]\n"
        "                     algebra\n"
        "error: argument --i-max: invalid int value: 'q'\n",
    ),
}


def test_usage_error_is_exit_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line
    for argv, stderr in USAGE_ERRORS.values():
        assert run_cli(argv) == (1, "", stderr)


def test_env_default_characteristic(monkeypatch):
    monkeypatch.setenv("DIFFOPS_CHAR", "5")
    rc, out, _ = run_cli(["normalize", "5*x1"])
    assert rc == 0
    assert out == "0\n"
    monkeypatch.setenv("DIFFOPS_CHAR", "bogus")
    rc, _, err = run_cli(["normalize", "x1"])
    assert rc == 1


def test_decompose_out_reconstruct_roundtrip(tmp_path):
    alg = os.path.join(FIXTURES, "m2_f3t.json")
    mat = os.path.join(FIXTURES, "m2_f3t_matrix.json")
    comps = tmp_path / "comps.json"
    rc, out1, _ = run_cli(["decompose", alg, mat, "--out", str(comps)])
    assert rc == 0
    rebuilt = tmp_path / "rebuilt.json"
    rc, out2, _ = run_cli(["reconstruct", alg, str(comps), "--out", str(rebuilt)])
    assert rc == 0
    with open(mat, encoding="utf-8") as fh:
        original = json.load(fh)
    with open(rebuilt, encoding="utf-8") as fh:
        assert json.load(fh) == original


def test_eta_zeta_roundtrip_via_files(tmp_path):
    alg = os.path.join(FIXTURES, "m2_f3t.json")
    lifted = tmp_path / "lifted.json"
    rc, _, _ = run_cli(["eta", alg, "t^2*d[t]", "--out", str(lifted)])
    assert rc == 0
    with open(lifted, encoding="utf-8") as fh:
        records = json.load(fh)
    assert len(records) == 1
    single = tmp_path / "single.json"
    with open(single, "w", encoding="utf-8") as fh:
        json.dump(records[0], fh)
    rc, out, _ = run_cli(["zeta", alg, str(single)])
    assert rc == 0
    assert out == "t^2*d[t]\n"


def _write(path, rec):
    path.write_text(json.dumps(rec), encoding="utf-8")
    return str(path)


def _zfilt_record(tmp_path, **changes):
    rec = {
        "dim": 2,
        "characteristic": 5,
        "variables": [],
        "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
    }
    rec.update(changes)
    return _write(tmp_path / "fin.json", rec)


def _dual_f3t_record(tmp_path, **changes):
    with open(os.path.join(FIXTURES, "dual_f3t.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    rec.update(changes)
    return _write(tmp_path / "alg.json", rec)


def test_zfilt_unit_out_of_range_is_exit_one(tmp_path):
    rc, out, err = run_cli(["zfilt", _zfilt_record(tmp_path, unit=5)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unit index 5" in err


def test_zfilt_non_scalar_table_entry_is_exit_one(tmp_path):
    table = [[["1", "x"], ["0", "1"]], [["0", "1"], ["0", "0"]]]
    rc, out, err = run_cli(["zfilt", _zfilt_record(tmp_path, table=table)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: bad algebra record") and err.count("\n") == 1


MALFORMED = {
    "zfilt_labels_not_a_list": lambda tmp: ["zfilt", _zfilt_record(tmp, labels=5)],
    "azumaya_labels_not_a_list": lambda tmp: ["azumaya-check", _dual_f3t_record(tmp, labels=5)],
    "azumaya_entry_not_a_string": lambda tmp: [
        "azumaya-check",
        _dual_f3t_record(tmp, table=[[["1", "0"], ["0", "1"]], [["0", "1"], [3, "0"]]]),
    ],
    "zfilt_central_entry_not_a_scalar": lambda tmp: [
        "zfilt", _zfilt_record(tmp), "--central", _write(tmp / "c.json", {"basis": [["1", "x"]]})
    ],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record_is_one_error_line(tmp_path, case):
    rc, out, err = run_cli(MALFORMED[case](tmp_path))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _first_term(rec):
    return next(cell[0] for row in rec["entries"] for cell in row if cell)


#: faults in an operator-matrix record; each was a traceback from decompose
BAD_MATRIX = {
    "term_not_a_record": lambda rec: rec["entries"][0].__setitem__(0, [5]),
    "term_without_beta": lambda rec: _first_term(rec).pop("beta"),
    "entries_not_a_list": lambda rec: rec.__setitem__("entries", 5),
    "zero_denominator": lambda rec: _first_term(rec).__setitem__("coeff", "1/0"),
    "negative_exponent": lambda rec: _first_term(rec).__setitem__("beta", [-1]),
}


@pytest.mark.parametrize("case", sorted(BAD_MATRIX))
def test_bad_matrix_record_is_one_error_line(tmp_path, case):
    with open(os.path.join(FIXTURES, "m2_f3t_matrix.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    BAD_MATRIX[case](rec)
    alg = os.path.join(FIXTURES, "m2_f3t.json")
    rc, out, err = run_cli(["decompose", alg, _write(tmp_path / "m.json", rec)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: bad operator-matrix record: ") and err.count("\n") == 1


def test_unwritable_out_is_one_error_line(tmp_path):
    alg = os.path.join(FIXTURES, "m2_f3t.json")
    mat = os.path.join(FIXTURES, "m2_f3t_matrix.json")
    missing = str(tmp_path / "missing" / "x.json")
    rc, out, err = run_cli(["decompose", alg, mat, "--out", missing])
    assert rc == 1 and out.startswith("entry 0 0: ")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_huge_exponent_is_exit_two():
    start = time.perf_counter()
    for k in (100_000_000, MAX_EXPONENT + 1):
        rc, out, err = run_cli(["normalize", f"x1^{k}"])
        assert (rc, out) == (2, "")
        assert err == f"error: exponent {k} above the cap of {MAX_EXPONENT}\n"
    assert time.perf_counter() - start < 5


def test_power_of_a_sum_is_capped():
    # the term count of (x1+y1)^k grows with k, and without a cap this ran for minutes
    start = time.perf_counter()
    rc, out, err = run_cli(["normalize", "(x1+y1)^400"])
    assert (rc, out) == (2, "")
    assert err == f"error: power needs more than {MAX_POWER_PRODUCTS} monomial products\n"
    assert time.perf_counter() - start < 5
    assert run_cli(["normalize", f"(2*x1*y1^2)^{MAX_EXPONENT}"])[0] == 2
    # a power of a monomial in normal order is one product a step
    k = MAX_EXPONENT
    rc, out, _ = run_cli(["normalize", f"(x1^2*h*y2)^{k}", "--n", "2"])
    assert (rc, out) == (0, f"h^{k}*x1^{2 * k}*y2^{k}\n")


def test_divided_power_push_is_capped():
    # pushing dx1[3000]*dx2[3000] past x1^3000*x2^3000 takes 3,001^2 picks (it
    # ran past 30 s without a cap), and one index of the second push has about
    # 13.6 million options, refused before they are built
    start = time.perf_counter()
    for argv in (["dx1[3000]*dx2[3000]", "x1^3000*x2^3000", "--n", "2"],
                 ["dh[300]*dx1[300]*dy1[300]", "x1^300*y1^300"]):
        rc, out, err = run_cli(["compose", *argv])
        assert (rc, out) == (2, "")
        assert err == f"error: monomial product needs more than {MAX_PICKS} contraction picks\n"
    assert time.perf_counter() - start < 10


def test_longest_exponent_error_is_one_short_line():
    rc, out, err = run_cli(["normalize", "x1^" + "9" * MAX_DIGITS])
    assert (rc, out) == (2, "")
    assert err == f"error: exponent of {MAX_DIGITS} digits above the cap of {MAX_EXPONENT}\n"
    assert len(err) < 200


@pytest.mark.parametrize("expr", ["x1^" + "9" * 5_000, "9" * 5_000], ids=["exponent", "number"])
def test_too_long_literal_is_exit_one(expr):
    rc, out, err = run_cli(["normalize", expr])
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: number longer than {MAX_DIGITS} digits") and err.count("\n") == 1
    assert run_cli(["normalize", "9" * MAX_DIGITS]) == (0, "9" * MAX_DIGITS + "\n", "")


def test_too_long_coefficient_is_exit_two():
    # h^10000 dh^10000 dh has a coefficient of more than 4,300 digits,
    # beyond Python's int/str conversion cap
    rc, out, err = run_cli(["compose", "h^10000*dh^10000", "dh"])
    assert (rc, out, err) == (2, "", "error: coefficient too long to print\n")


def test_deep_nesting_is_exit_one():
    for expr in ["(" * 300 + "x1" + ")" * 300, "-" * 3000 + "x1"]:
        rc, out, err = run_cli(["normalize", "--", expr])
        assert (rc, out) == (1, "")
        assert err.startswith("error: nested deeper than") and err.count("\n") == 1
    assert run_cli(["normalize", "(" * 100 + "y1*x1" + ")" * 100])[:2] == (0, "x1*y1 - h\n")
    assert run_cli(["normalize", "--", "-(" * 100 + "x1" + ")" * 100])[:2] == (0, "x1\n")


def test_fixtures_regenerate_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location("generate", os.path.join(FIXTURES, "generate.py"))
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.main(str(tmp_path))
    committed = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json"))
    assert sorted(os.listdir(tmp_path)) == committed
    for name in committed:
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
