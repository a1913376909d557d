"""Command-line interface: exit codes, JSON schema, value agreement."""

import json
import pathlib
import shlex

import pytest

from chowkit.cli import main
from chowkit.worksheet import evaluate, parse

ROOT = pathlib.Path(__file__).resolve().parents[1]
FINAL = str(ROOT / "worksheets" / "final_degree.ws")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """The `chowkit ...  # -> VALUE` lines of the README's Command line block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = (line.partition("# ->") for line in block.splitlines())
    return [
        pytest.param(shlex.split(command)[1:], value.strip(), id=command.strip())
        for command, _, value in lines
        if value
    ]


@pytest.mark.parametrize("argv, value", readme_examples())
def test_readme_command_line_examples(argv, value, capsys):
    assert run_cli(capsys, *argv) == (0, value + "\n", "")


def test_worksheet_run_success(capsys):
    code, out, err = run_cli(capsys, "worksheet", "run", FINAL)
    assert code == 0
    assert "3/3 assertions passed" in out


def test_worksheet_run_json_schema(capsys):
    code, out, _ = run_cli(capsys, "worksheet", "run", FINAL, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["worksheet"] == FINAL
    assert set(doc) == {"worksheet", "bindings", "assertions", "notes"}
    for b in doc["bindings"]:
        assert set(b) == {"name", "value"}
    for a in doc["assertions"]:
        assert set(a) == {"expression", "expected", "actual", "pass"}
        assert a["pass"] is True
    assert any(b["name"] == "degXS" and b["value"] == "152" for b in doc["bindings"])


def test_json_and_plain_agree(capsys):
    _, plain, _ = run_cli(capsys, "worksheet", "run", FINAL)
    _, out, _ = run_cli(capsys, "worksheet", "run", FINAL, "--json")
    doc = json.loads(out)
    for b in doc["bindings"]:
        assert f"{b['name']} = {b['value']}" in plain


def test_failing_assertion_exit_codes(tmp_path, capsys):
    ws = tmp_path / "fail.ws"
    ws.write_text("assert 1 == 2\n")
    code, out, _ = run_cli(capsys, "worksheet", "run", str(ws))
    assert code == 0
    assert "FAIL" in out
    code, _, _ = run_cli(capsys, "worksheet", "run", str(ws), "--strict")
    assert code == 1


def test_parse_error_exits_2(tmp_path, capsys):
    ws = tmp_path / "bad.ws"
    ws.write_text("let x = \n")
    code, _, err = run_cli(capsys, "worksheet", "run", str(ws))
    assert code == 2
    assert "missing expression" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "worksheet", "run", str(tmp_path / "nope.ws"))
    assert code == 2
    assert err


def test_multiple_files_one_bad(tmp_path, capsys):
    ws = tmp_path / "bad.ws"
    ws.write_text("let x = \n")
    code, out, err = run_cli(capsys, "worksheet", "run", FINAL, str(ws))
    assert code == 2
    # the good worksheet still ran and reported
    assert "3/3 assertions passed" in out


def test_schubert_pdeg(capsys):
    code, out, _ = run_cli(
        capsys, "schubert", "pdeg", "--gr", "3,5", "120*s[1,1,1] + 16*s[2,1]", "3"
    )
    assert code == 0
    assert out.strip() == "152"


def test_schubert_mult(capsys):
    code, out, _ = run_cli(capsys, "schubert", "mult", "--gr", "3,5", "s[1]*s[1]*s[1]")
    assert code == 0
    assert out.strip() == "s[1,1,1] + 2*s[2,1]"


def test_schubert_bad_expression_exits_2(capsys):
    code, _, err = run_cli(capsys, "schubert", "pdeg", "--gr", "3,5", "s[2,1", "3")
    assert code == 2
    assert err


def test_chern_tau(capsys):
    code, out, _ = run_cli(capsys, "chern", "tau", "6", "0", "0", "24")
    assert code == 0
    assert out.strip() == "210"


def test_curve_subcommands(capsys):
    cases = [
        (["curve", "odd_theta", "4"], "120"),
        (["curve", "hurwitz", "13", "4", "2"], "12"),
        (["curve", "coincidences", "72", "540"], "612"),
        (["curve", "secant_pluecker", "6", "4"], "21"),
        (["curve", "degmult", "3"], "8"),
        (["curve", "residual", "624", "216", "360", "32"], "16"),
        (["curve", "tau", "6", "0", "0", "24"], "210"),
        (["curve", "glue_genus", "3", "4", "2"], "8"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip() == expected


def test_curve_salmon_cayley(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "salmon_cayley", "1", "6", "18", "0", "0", "36"
    )
    assert code == 0
    assert out.strip() == "degree=180 m1=72 m2=18 m3=6"


def test_curve_pluecker(capsys):
    code, out, _ = run_cli(capsys, "curve", "pluecker", "d=6", "nodes=6", "cusps=0")
    assert code == 0
    assert "bitangents=96" in out
    assert "genus=4" in out


def test_curve_pluecker_matches_worksheet(capsys):
    code, out, _ = run_cli(capsys, "curve", "pluecker", "d=6", "nodes=6")
    assert code == 0
    assert out == "d=6 m=18 nodes=6 cusps=0 bitangents=96 flexes=36 genus=4\n"
    record = evaluate(parse("let P = pluecker{d=6, nodes=6}\n")).bindings[0][1]
    fields = out.split()
    assert record == "{" + ", ".join(fields) + "}"


def test_curve_unknown_argument_exits_2(capsys):
    code, _, err = run_cli(capsys, "curve", "pluecker", "q=3")
    assert code == 2
    assert err.startswith("error: pluecker: unknown argument 'q'")


def test_curve_missing_argument_exits_2(capsys):
    code, _, err = run_cli(capsys, "curve", "odd_theta")
    assert code == 2
    assert err.startswith("error: odd_theta: wrong number of arguments")
    assert "expected (g)" in err


def test_curve_unknown_formula_exits_2(capsys):
    code, _, err = run_cli(capsys, "curve", "frobnicate", "1")
    assert code == 2
    assert "unknown curve formula" in err


def test_curve_bad_arity_exits_2(capsys):
    code, _, _ = run_cli(capsys, "curve", "odd_theta", "4", "5")
    assert code == 2


REFERENCES = ROOT / "perfbench" / "references"


@pytest.mark.parametrize(
    "stem", sorted(p.stem for p in (ROOT / "worksheets").glob("*.ws"))
)
def test_worksheet_json_matches_reference(stem, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(capsys, "worksheet", "run", f"worksheets/{stem}.ws", "--json")
    assert code == 0
    assert out.encode("utf-8") == (REFERENCES / f"{stem}.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "coincidences", "1/0", "2"],
        ["curve", "odd_theta", "1001"],
        ["chern", "tau", "1/0", "0", "0", "0"],
        ["schubert", "mult", "--gr", "3,x", "s[1]"],
        ["schubert", "mult", "--gr", "5,3", "s[1]"],
        ["schubert", "mult", "--gr", "3,5", "x"],
        ["schubert", "mult", "--gr", "3,5", "frob(1)"],
        ["worksheet", "run", "NOT_UTF8"],
        ["worksheet", "run", "DEEP_PARENS"],
        ["worksheet", "run", "LONG_SUM"],
    ],
    ids=[
        "zero-denominator",
        "exponent-above-cap",
        "tau-zero-denominator",
        "bad-gr",
        "k-above-n",
        "undeclared-name",
        "unknown-function",
        "not-utf8",
        "nested-parentheses",
        "flat-sum",
    ],
)
def test_bad_input_exits_2_with_error(argv, tmp_path, capsys):
    files = {
        "NOT_UTF8": "# caf\xe9\n".encode("latin-1"),
        "DEEP_PARENS": ("let x = " + "(" * 3000 + "1" + ")" * 3000 + "\n").encode(),
        "LONG_SUM": ("let x = " + " + ".join(["1"] * 5000) + "\n").encode(),
    }
    for name, content in files.items():
        (tmp_path / f"{name}.ws").write_bytes(content)
    argv = [str(tmp_path / f"{a}.ws") if a in files else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
