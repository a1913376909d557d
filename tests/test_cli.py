"""Command-line interface: exit codes, JSON schema, value agreement."""

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chowkit
import chowkit.curves as curves
import chowkit.grassmann as grassmann
import chowkit.lattice as lattice
from chowkit.cli import main
from chowkit.linexpr import LinExpr, collapse
from chowkit.worksheet import evaluate, parse
from chowkit.worksheet.builtins import BUILTINS, integer, number, scalar
from chowkit.worksheet.evaluate import WorksheetRuntimeError

from _oracles import (
    genus_by_the_bilinear_sum,
    localized_integral,
    odd_refinements,
    per_pair_product,
    pieri_degree,
    reference_plucker_solve,
    secants_by_projection,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_ROOT = pathlib.Path(chowkit.__file__).resolve().parents[1]  # the package under test, installed or not
FINAL = str(ROOT / "worksheets" / "final_degree.ws")
# the record `pluecker{d=6, nodes=6}` prints: the nodal sextic
SEXTIC = "{d=6, m=18, nodes=6, cusps=0, bitangents=96, flexes=36, genus=4}"


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
    for dim in ("3", "1+2"):  # DIM is an expression too
        code, out, _ = run_cli(
            capsys, "eval", "--gr", "3,5", f"pdeg(120*s[1,1,1] + 16*s[2,1], {dim})"
        )
        assert code == 0
        assert out.strip() == "152"


def test_schubert_mult(capsys):
    for gr in ("3,5", " 3 , 5 "):  # blanks around K and N, as in `grassmannian (3, 5)`
        code, out, _ = run_cli(capsys, "eval", "--gr", gr, "s[1]*s[1]*s[1]")
        assert code == 0
        assert out.strip() == "s[1,1,1] + 2*s[2,1]"


HYPERPLANE_POWER = "*".join(["s[1]"] * 25)


@pytest.mark.parametrize(
    "argv, value",
    [
        # deg Gr(5,10): the standard tableaux of the 5 x 5 box
        (["--gr", "5,10", f"pdeg({HYPERPLANE_POWER}, 0)"], "701149020"),
        (
            ["--gr", "3,6", "(s[1] + 1/2*s[2]) * (s[1] - s[1,1])"],
            "s[1,1] - s[1,1,1] + s[2] - 1/2*s[2,1] - 1/2*s[2,1,1] + 1/2*s[3] - 1/2*s[3,1]",
        ),
        # s[2] * s[1] and s[1,1] * s[1] both give s[2,1] on Gr(2,4), and nothing else fits
        (["--gr", "2,4", "(s[2] - s[1,1]) * s[1]"], "0"),
    ],
    ids=["hyperplane-power", "two-term-factors", "terms-that-cancel"],
)
def test_schubert_multi_term_products(argv, value, capsys):
    assert run_cli(capsys, "eval", *argv) == (0, value + "\n", "")


@pytest.mark.parametrize(
    "rows, code, digest, err",
    [
        # printed in full: 1,433 and 10,873 terms, pinned by the SHA-256 of stdout
        (5, 0, "eb93e7f18754427b5a6f75c8ebe20d6edaa659b6f065923e0428df9f93a8d260", ""),
        (6, 0, "b8449ec803e06b23d948be2d624d529f01037424a792d43ddd4ebbd951272949", ""),
        # refused at the real MAX_STATES, with nothing on stdout
        (7, 2, hashlib.sha256(b"").hexdigest(),
         "error: line 1, column 17: Schubert product needs more than 100000 strip states (stopped at 100002)\n"),
    ],
    ids=["gr-10-20", "gr-12-24", "gr-14-28-refused"],
)
def test_staircase_squares(rows, code, digest, err, capsys):
    """s[rows,...,1]^2 on Gr(2 rows, 4 rows), whose box it fills."""
    square = f"s[{','.join(str(i) for i in range(rows, 0, -1))}]"
    got, out, got_err = run_cli(capsys, "eval", "--gr", f"{2 * rows},{4 * rows}", f"{square}*{square}")
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest(), got_err) == (code, digest, err)


def test_a_cheap_product_on_a_big_grassmannian_runs_and_a_costly_one_exits_2(capsys, monkeypatch):
    assert run_cli(capsys, "eval", "--gr", "14,28", "s[1]*s[1]") == (0, "s[1,1] + s[2]\n", "")
    # s(5,4,3,2,1)^2 in Gr(10,20) makes 4,519 strip states
    monkeypatch.setattr(grassmann, "MAX_STATES", 1000)
    want = "error: line 1, column 13: Schubert product needs more than 1000 strip states (stopped at 1001)\n"
    assert run_cli(capsys, "eval", "--gr", "10,20", "s[5,4,3,2,1]*s[5,4,3,2,1]") == (2, "", want)


HUGE = ("100000000000000000000", "100000000000000000001")  # Gr(10^20, 10^20 + 1): one column


@pytest.mark.parametrize(
    "expr, value, message",
    [
        ("s[1]*s[1]", "s[1,1]", None),
        ("integrate(s[1])", "0", None),
        ("integrate(s[1]*s[1])", "0", None),
        (
            "pdeg(s[1], 99999999999999999999)",
            None,
            "pdeg: Pluecker degree needs 99999999999999999999 hook-length cells, more than 40000",
        ),
    ],
    ids=["product", "integrate", "integrate-a-product", "pdeg-past-the-cell-cap"],
)
def test_a_huge_grassmannian_keeps_the_exit_code_contract(expr, value, message, tmp_path, capsys):
    code, out, err = run_cli(capsys, "eval", "--gr", ",".join(HUGE), expr)
    if value is None:
        assert (code, out, err) == (2, "", f"error: line 1, column 1: {message}\n")
    else:
        assert (code, out, err) == (0, value + "\n", "")
    sheet = tmp_path / "huge.ws"
    sheet.write_text(f"grassmannian ({HUGE[0]}, {HUGE[1]})\nlet x = {expr}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "worksheet", "run", "--json", str(sheet))
    if value is None:
        assert (code, out, err) == (2, "", f"{sheet}: error: line 2, column 9: {message}\n")
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["bindings"] == [{"name": "x", "value": value}]


@pytest.mark.parametrize(
    "gr, dim, want",
    [
        ("1,40001", 40000, (0, "1\n", "")),
        (
            "1,40002",
            40001,
            (2, "", "error: line 1, column 1: pdeg: Pluecker degree needs 40001 hook-length cells, more than 40000\n"),
        ),
    ],
    ids=["at-the-cap", "one-cell-past-the-cap"],
)
def test_pdeg_walks_at_most_max_cells(gr, dim, want, capsys):
    assert run_cli(capsys, "eval", "--gr", gr, f"pdeg(s[], {dim})") == want


def test_pdeg_counts_the_cells_of_every_term(capsys, monkeypatch):
    argv = ("eval", "--gr", "3,5", "pdeg(120*s[1,1,1] + 16*s[2,1], 3)")  # two terms of 3 cells
    monkeypatch.setattr(grassmann, "MAX_CELLS", 6)
    assert run_cli(capsys, *argv) == (0, "152\n", "")
    monkeypatch.setattr(grassmann, "MAX_CELLS", 5)
    want = "error: line 1, column 1: pdeg: Pluecker degree needs 6 hook-length cells, more than 5\n"
    assert run_cli(capsys, *argv) == (2, "", want)


def test_schubert_bad_expression_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--gr", "3,5", "pdeg(s[2,1, 3)")
    assert code == 2
    assert err


def test_chern_tau(capsys):
    code, out, _ = run_cli(capsys, "eval", "tau(6, 0, 0, 24)")
    assert code == 0
    assert out.strip() == "210"


def test_eval_prints_a_record_as_a_worksheet_binds_it(capsys):
    code, out, err = run_cli(capsys, "eval", "pluecker{d=6, nodes=6}")
    assert (code, err) == (0, "")
    assert out == evaluate(parse("let P = pluecker{d=6, nodes=6}\n")).bindings[0][1] + "\n"


def test_eval_takes_an_expression_that_starts_with_minus_after_double_dash(capsys):
    assert run_cli(capsys, "eval", "--", "-1/2") == (0, "-1/2\n", "")
    with pytest.raises(SystemExit) as exc:  # without `--` it reads as an option
        main(["eval", "--gr", "3,5", "-s[1]"])
    assert exc.value.code == 2


def test_eval_without_gr_names_the_option_a_schubert_class_needs(capsys):
    code, out, err = run_cli(capsys, "eval", "s[1]")
    assert (code, out) == (2, "")
    assert err == (
        "error: line 1, column 1: a Schubert class needs a Grassmannian:"
        " use chowkit eval with --gr K,N\n"
    )


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on str(int)"
)
def test_eval_of_a_result_too_long_to_print_gives_its_length(capsys):
    huge = "*".join(["degmult(1000)"] * 15)  # 4516 digits
    code, out, err = run_cli(capsys, "eval", huge)
    assert (code, out, err) == (2, "", "error: cannot print the result: <4516 digits>\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on str(int)"
)
def test_curve_argument_too_long_to_print_gives_its_length(capsys):
    huge = "*".join(["degmult(1000)"] * 15)  # 4516 digits
    code, out, err = run_cli(capsys, "eval", f"odd_theta({huge}/3)")
    want = "error: line 1, column 1: odd_theta: expected an integer, got <4516 digits>/3\n"
    assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize("argv", [["schubert", "mult", "--gr", "3,5", "s[1]"],
                                  ["chern", "tau", "6", "0", "0", "24"],
                                  ["curve", "odd_theta", "4"]])
def test_schubert_and_chern_commands_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_curve_subcommands(capsys):
    cases = [
        ("odd_theta(4)", "120"),
        ("hurwitz(13, 4, 2)", "12"),
        ("coincidences(72, 540)", "612"),
        ("secant_pluecker(6, 4)", "21"),
        ("degmult(3)", "8"),
        ("residual(624; 216, 360, 32)", "16"),
        ("tau(6, 0, 0, 24)", "210"),
        ("glue_genus(3, 4, 2)", "8"),
        ("glue_genus(-1/2, 3, 1)", "5/2"),
        ("tau(-1/2, 0, 0, 0)", "-15/2"),
        ("odd_theta(2*2)", "120"),  # every argument is a worksheet expression
        (" coincidences( 3,1 ) ", "4"),
        ("pluecker{d=3*2, nodes=6}", SEXTIC),
    ]
    for text, expected in cases:
        assert run_cli(capsys, "eval", "--", text) == (0, expected + "\n", "")


def test_curve_salmon_cayley(capsys):
    code, out, _ = run_cli(capsys, "eval", "salmon_cayley(1, 6, 18; 0, 0, 36)")
    assert code == 0
    assert out == "{degree=180, m1=72, m2=18, m3=6}\n"


def test_the_derivation_script_reports_a_broken_worksheet_without_a_traceback(tmp_path):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run_derivation.py").write_bytes((ROOT / "scripts" / "run_derivation.py").read_bytes())
    (tmp_path / "worksheets").mkdir()
    for ws in (ROOT / "worksheets").glob("*.ws"):
        (tmp_path / "worksheets" / ws.name).write_bytes(ws.read_bytes())
    broken = tmp_path / "worksheets" / "tau_k3.ws"
    lines = len(broken.read_text(encoding="utf-8").splitlines())
    with broken.open("a", encoding="utf-8") as f:
        f.write("let x =\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    script = tmp_path / "scripts" / "run_derivation.py"
    out = subprocess.run([sys.executable, "-W", "error", str(script)], env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr == f"{broken}: error: line {lines + 1}, column 8: missing expression\n"
    assert "Traceback" not in out.stdout + out.stderr
    assert "degXS = 152" in out.stdout  # the worksheets after it still run


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, chowkit.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


def test_curve_pluecker(capsys):
    code, out, _ = run_cli(capsys, "eval", "pluecker{d=6, nodes=6, cusps=0}")
    assert code == 0
    assert "bitangents=96" in out
    assert "genus=4" in out


def test_curve_pluecker_matches_worksheet(capsys):
    code, out, _ = run_cli(capsys, "eval", "pluecker{d=6, nodes=6}")
    assert code == 0
    assert out == SEXTIC + "\n"
    for field in out[1:-2].split(", "):  # each field reads as the record prints it
        key, value = field.split("=")
        assert run_cli(capsys, "eval", f"pluecker{{d=6, nodes=6}}.{key}") == (0, value + "\n", "")


# The builtins that take numbers only, which a worksheet calls without a context.
CONTEXT_FREE = sorted(
    name
    for name, b in BUILTINS.items()
    if all(kind in (integer, number, scalar) for group in b.groups for _, kind in group)
)
VALUE_TEXTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.fractions(-12, 12, max_denominator=6).map(str),
    st.builds("{}{}{}".format, st.integers(0, 9), st.sampled_from("+-*"), st.integers(0, 9)),
)


@st.composite
def curve_calls(draw):
    """A call of a context-free builtin with the right shape of arguments."""
    name = draw(st.sampled_from(CONTEXT_FREE))
    b = BUILTINS[name]
    if b.named:
        keys = draw(st.lists(st.sampled_from(b.named), min_size=1, max_size=4, unique=True))
        return name + "{" + ", ".join(f"{k}={draw(VALUE_TEXTS)}" for k in keys) + "}"
    groups = [
        draw(st.lists(VALUE_TEXTS, min_size=1, max_size=3))
        if group[0][0].endswith("...")
        else [draw(VALUE_TEXTS) for _ in group]
        for group in b.groups
    ]
    return name + "(" + "; ".join(", ".join(g) for g in groups) + ")"


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(call=curve_calls())
def test_curve_prints_what_a_worksheet_binds(call, capsys):
    got = run_cli(capsys, "eval", call)
    try:
        report = evaluate(parse(f"let v = {call}\n"))
    except WorksheetRuntimeError as exc:  # the builtin refused the values
        column = exc.pos[1] - len("let v = ")
        assert got == (2, "", f"error: line 1, column {column}: {exc.message}\n")
    else:
        assert got == (0, report.bindings[0][1] + "\n", "")


@pytest.mark.parametrize("spelling", ["4.0", "1e3", "0.5", "1_000", "+3", "1e5000", "4.", "4.e3", "4.E3", "4.e+3"])
def test_python_number_spellings_are_positioned_syntax_errors(spelling, capsys):
    for argv, column in [
        ([f"pluecker{{d={spelling}}}"], 12),
        ([f"tau(0, 0, 0, {spelling})"], 14),
        (["--gr", "3,5", f"pdeg(s[1], {spelling})"], 12),
    ]:
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1, column ") and err.count("\n") == 1, err
        if "." in spelling:  # at the literal, not at what follows the point
            assert err == f"error: line 1, column {column}: numbers are exact, such as 4 or 9/2, and have no decimal point\n"


def test_help_keeps_the_usage_lines_apart(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for usage in ["    chowkit worksheet run <file>... [--json] [--strict]", "    chowkit eval [--gr K,N] EXPR"]:
        assert usage in lines


@pytest.mark.parametrize(
    "args, bad",
    [
        (["d=3", "nodes=4"], "m=-2, flexes=-15, genus=-3"),
        (["d=1/2", "nodes=0"], "d=1/2, m=-1/4, bitangents=105/32, flexes=-9/4, genus=3/8"),
        (["d=0"], "d=0, m=0"),
        (["d=1"], "d=1, m=0, flexes=-3"),
        (["m=0", "bitangents=0", "flexes=0"], "d=0, m=0"),
    ],
    ids=["negative-characters", "fractional-degree", "degree-zero", "line", "dual-degree-zero"],
)
def test_curve_pluecker_rejects_characters_of_no_plane_curve(args, bad, capsys):
    code, out, err = run_cli(capsys, "eval", "pluecker{" + ", ".join(args) + "}")
    want = f"error: line 1, column 1: pluecker: no plane curve has {bad}\n"
    assert (code, out, err) == (2, "", want)


def test_schubert_expression_is_followed_only_by_blank_lines_and_comments(capsys):
    ok = run_cli(capsys, "eval", "--gr", "3,5", "s[1] # c\n\n")
    assert ok == (0, "s[1]\n", "")
    code, out, err = run_cli(capsys, "eval", "--gr", "3,5", "s[1] # c\n\n s[2]\n")
    assert (code, out) == (2, "")
    assert err == "error: line 3, column 2: trailing input 's'\n"


def test_schubert_pdeg_of_a_number_names_the_argument(capsys):
    code, _, err = run_cli(capsys, "eval", "--gr", "3,5", "pdeg(2, 0)")
    assert (code, err) == (2, "error: line 1, column 1: pdeg: expected a Schubert class, got 2\n")


def test_schubert_pdeg_too_long_to_print_exits_2(capsys):
    # deg Gr(60, 120) has 5018 digits, above Python's limit for str(int)
    code, out, err = run_cli(capsys, "eval", "--gr", "60,120", "pdeg(s[], 3600)")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on str(int)"
)
def test_schubert_pdeg_dimension_too_long_to_print_names_the_range(capsys):
    huge = "*".join(["degmult(1000)"] * 15)  # 4516 digits
    code, out, err = run_cli(capsys, "eval", "--gr", "3,5", f"pdeg(s[1], {huge})")
    assert (code, out) == (2, "")
    assert err == (
        "error: line 1, column 1: pdeg: dimension <4516 digits> is out of range 0..6"
        " for Gr(3, 5)\n"
    )


def test_curve_schubert_value_names_the_command_that_takes_a_grassmannian(capsys):
    code, out, err = run_cli(capsys, "eval", "glue_genus(1, 2*s[1], 0)")
    assert (code, out) == (2, "")
    assert err == (
        "error: line 1, column 17: a Schubert class needs a Grassmannian:"
        " use chowkit eval with --gr K,N\n"
    )
    # a worksheet can declare one, and its message says so
    with pytest.raises(WorksheetRuntimeError) as exc:
        evaluate(parse("let x = 1 + s[1]\n"))
    assert str(exc.value) == (
        "line 1, column 13: no grassmannian context declared before Schubert class"
    )


SCHUBERT_FRAGMENTS = [
    "s[", "0", "1", "2", "12", ",", "]", "*", "+", "(", ")", "\n", "x",
    "odd_theta(", "pluecker{d=", "}",
]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    gr=st.sampled_from([[], ["--gr", "3,5"], ["--gr", ",".join(HUGE)]]),
    expr=st.lists(st.sampled_from(SCHUBERT_FRAGMENTS), max_size=12).map("".join),
    dim=st.one_of(st.none(), st.integers(0, 6)),
)
def test_schubert_expressions_keep_the_exit_code_contract(gr, expr, dim, capsys):
    if dim is not None:
        expr = f"pdeg({expr}, {dim})"
    code = main(["eval", *gr, "--", expr])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (err == "") == (out != "")


CURVE_NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.fractions(-12, 12, max_denominator=6).map(str),
    st.sampled_from(["", "x", "=", "1/0", "0/0", "2.5", "-", "1e2", "1e5000", "nan", "--", "d==3"]),
)
CURVE_ARGUMENTS = st.one_of(
    CURVE_NUMBERS,
    st.builds(
        "{}={}".format,
        st.sampled_from(["d", "m", "nodes", "cusps", "bitangents", "flexes", "genus", "g", "q"]),
        CURVE_NUMBERS,
    ),
)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(sorted(BUILTINS)),
    groups=st.lists(st.lists(CURVE_ARGUMENTS, max_size=4), min_size=1, max_size=2),
    braces=st.booleans(),
)
def test_every_builtin_keeps_the_exit_code_contract(name, groups, braces, capsys):
    if braces:  # the groups' arguments, in one list
        text = name + "{" + ", ".join(a for g in groups for a in g) + "}"
    else:  # a second group follows a ';'
        text = name + "(" + "; ".join(", ".join(g) for g in groups) + ")"
    code = main(["eval", "--", text])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (err == "") == (out != "")


def test_curve_unknown_argument_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "pluecker{q=3}")
    assert code == 2
    assert err.startswith("error: line 1, column 1: pluecker: unknown argument 'q'")


def test_curve_duplicate_argument_exits_2(capsys):
    for second in ("d=4", "d =4", "d = 4"):  # blanks around '=' are allowed
        code, out, err = run_cli(capsys, "eval", f"pluecker{{d=3, {second}}}")
        assert (code, out, err) == (2, "", "error: line 1, column 15: duplicate argument 'd'\n")


@pytest.mark.parametrize("nodes", ["nodes=6", "nodes =6", " nodes=6", "nodes = 6"])
def test_curve_named_value_may_have_blanks_around_its_name(nodes, capsys):
    code, out, err = run_cli(capsys, "eval", f"pluecker{{d=6,{nodes}}}")
    assert (code, out, err) == (0, SEXTIC + "\n", "")


@pytest.mark.parametrize(
    "spec, limit, want",
    [
        pytest.param(spec, None, f" {spec!r}: expected K,N, two integers such as 3,5", id=spec)
        for spec in ("3", "3,5,7", "a,b", "", "1_0,+20", "+3,5")
    ]
    + [  # K and N are capped as `grassmannian (K, N)` caps them, by Python's int(str) limit
        pytest.param("1, " + "1" * 4301, None, ": N is longer than 4300 digits", id="over-the-default-cap"),
        pytest.param(
            "7" * 641 + ",9", 640, ": K is longer than 640 digits", id="over-a-lowered-limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int(str) limit"
            ),
        ),
    ],
)
def test_bad_gr_names_the_k_n_form(spec, limit, want, capsys, request):
    if limit:
        before = sys.get_int_max_str_digits()
        request.addfinalizer(lambda: sys.set_int_max_str_digits(before))
        sys.set_int_max_str_digits(limit)
    code, out, err = run_cli(capsys, "eval", "--gr", spec, "s[1]")
    assert (code, out, err) == (2, "", f"error: bad --gr value{want}\n")


def test_curve_missing_argument_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "odd_theta()")
    assert code == 2
    assert err == "error: line 1, column 1: odd_theta: wrong number of arguments, expected (g)\n"


def test_curve_unknown_formula_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "frobnicate(1)")
    assert (code, err) == (2, "error: line 1, column 1: unknown function 'frobnicate'\n")


def test_curve_bad_arity_exits_2(capsys):
    code, _, _ = run_cli(capsys, "eval", "odd_theta(4, 5)")
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


def _localized_integral(e):
    """The integral of e, one term at a time, by torus localization at seed 1."""
    total = sum(c * localized_integral(e.space, [lam], 0, seed=1) for lam, c in e.terms.items())
    return collapse(LinExpr.coerce(total))


def _genus_by_the_bilinear_sum(C):
    K = C.space.canonical
    return genus_by_the_bilinear_sum(C.space, C.terms, None if K is None else K.terms)


# Each kernel an oracle stands in for, under the builtin that calls it (`*`
# for Schubert products): its module, its name and the oracle.
ORACLES = {
    "*": (grassmann, "multiply", per_pair_product),
    "integrate": (grassmann, "integrate", _localized_integral),
    "pdeg": (grassmann, "plucker_degree", pieri_degree),
    "odd_theta": (curves, "odd_theta_count", odd_refinements),
    "pluecker": (curves, "plucker_solve", reference_plucker_solve),
    "secant_pluecker": (curves, "secant_plucker_degree", secants_by_projection),
    "genus": (lattice, "adjunction_genus", _genus_by_the_bilinear_sum),
}

# The builtins the shipped worksheets call that stay on the kernels when the
# oracles above stand in for theirs.
KERNEL_BUILTINS = {
    "coincidences", "degmult", "hurwitz", "jet2_c2", "residual", "salmon_cayley", "tau",
}


def on_the_oracles(monkeypatch, builtins) -> dict:
    """Put the kernels of `builtins` on their oracles; the dict counts each one's calls."""
    calls = dict.fromkeys(builtins, 0)
    for builtin in builtins:
        module, name, oracle = ORACLES[builtin]

        def counted(*args, builtin=builtin, oracle=oracle, **kwargs):
            calls[builtin] += 1
            return oracle(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_worksheets_match_the_references_under_the_oracles(capsys, monkeypatch):
    """The derivation a second time: with Schubert products, integrals, Pluecker
    degrees, odd theta counts, Pluecker characters, secant degrees and genera
    from the oracles, every worksheet prints its reference byte for byte.  The
    oracles share no algorithm with the kernels they replace; the secant
    degree goes through `curves.plucker_solve`, by way of a plane projection."""
    monkeypatch.chdir(ROOT)
    calls = on_the_oracles(monkeypatch, ORACLES)
    called = set()
    for path in sorted((ROOT / "worksheets").glob("*.ws")):
        text = re.sub(r"#.*", "", path.read_text(encoding="utf-8"))
        called |= set(re.findall(r"(\w+)[({]", text)) & set(BUILTINS)
        code, out, _ = run_cli(capsys, "worksheet", "run", f"worksheets/{path.name}", "--json", "--strict")
        assert code == 0, path.name
        assert out.encode("utf-8") == (REFERENCES / path.name).with_suffix(".json").read_bytes()
    assert all(calls.values()), calls
    assert called - set(ORACLES) == KERNEL_BUILTINS


def test_the_bulk_suite_reports_the_same_under_the_oracles(monkeypatch):
    """perfbench's seed-1 worksheet-bulk suite, at full size, reports the same
    with its products, integrals, Pluecker degrees and characters, secant
    degrees and genera from the oracles as from the kernels.  `odd_theta`
    stays on the kernel: `odd_refinements(g)` takes 16^g steps, 4^g vectors for
    each of 4^g refinements, and the suite asks for g up to 8."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import bulkgen
    import workloads

    suite = bulkgen.generate_suite(1, workloads.PROFILES["worksheet-bulk"]["full"]["suite"])

    def reports():
        return [json.dumps(evaluate(parse(sheet.text)).as_dict()) for sheet in suite]

    on_the_kernels = reports()
    calls = on_the_oracles(monkeypatch, set(ORACLES) - {"odd_theta"})
    assert reports() == on_the_kernels
    assert all(calls.values()), calls


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "coincidences(1/0, 2)"],
        ["eval", "odd_theta(1001)"],
        ["eval", "tau(1/0, 0, 0, 0)"],
        ["eval", "--gr", "3,x", "s[1]"],
        ["eval", "--gr", "5,3", "s[1]"],
        ["eval", "--gr", "3,5", "x"],
        ["eval", "--gr", "3,5", "frob(1)"],
        ["worksheet", "run", "NOT_UTF8"],
        ["worksheet", "run", "DEEP_PARENS"],
        ["worksheet", "run", "LONG_SUM"],
        ["eval", "--gr", "3,5", "pdeg(2, 0)"],
        ["eval", "--gr", "3,5", "120*s[1,1,1]\n+ 16*s[2,1]"],
        ["eval", "pluecker{d=3, d=4}"],
        ["worksheet", "run", "DUPLICATE_ARGUMENT"],
        ["eval", f"coincidences({'9' * 4300}, 1)"],  # the sum has 4301 digits
        ["eval", "--gr", "3", "s[1]"],
        ["eval", "--gr", "3,5,7", "s[1]"],
        ["eval", "--gr", "a,b", "s[1]"],
        ["eval", "--gr", "", "pdeg(s[1], 5)"],
        ["eval", "--gr", "3,5", "pdeg(s[1], 99999999999999999999)"],
        ["eval", "--gr", "3,5", "pdeg(s[1], -1)"],
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
        "pdeg-of-a-number",
        "trailing-line",
        "curve-duplicate-argument",
        "worksheet-duplicate-argument",
        "value-too-long-to-print",
        "gr-one-number",
        "gr-three-numbers",
        "gr-not-numbers",
        "gr-empty",
        "pdeg-dimension-above-range",
        "pdeg-dimension-below-range",
    ],
)
def test_bad_input_exits_2_with_error(argv, tmp_path, capsys):
    files = {
        "NOT_UTF8": "# caf\xe9\n".encode("latin-1"),
        "DEEP_PARENS": ("let x = " + "(" * 3000 + "1" + ")" * 3000 + "\n").encode(),
        "LONG_SUM": ("let x = " + " + ".join(["1"] * 5000) + "\n").encode(),
        "DUPLICATE_ARGUMENT": b"let P = pluecker{d=3, d=4}\n",
    }
    for name, content in files.items():
        (tmp_path / f"{name}.ws").write_bytes(content)
    argv = [str(tmp_path / f"{a}.ws") if a in files else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
