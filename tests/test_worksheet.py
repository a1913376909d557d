"""Worksheet language: parsing, evaluation, round-trips, determinism."""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowkit.worksheet import (
    WorksheetRuntimeError,
    WorksheetSyntaxError,
    evaluate,
    parse,
    pretty_print,
)
from chowkit.worksheet.builtins import BUILTINS

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKSHEETS = sorted((ROOT / "worksheets").glob("*.ws"))


def run(text):
    return evaluate(parse(text))


def test_let_and_assert():
    report = run("let x = 2 + 3 * 4\nassert x == 14\n")
    assert report.bindings == [("x", "14")] or report.bindings[0][0] == "x"
    assert report.all_passed


def test_assert_failure_is_recorded_not_fatal():
    report = run("assert 1 == 2\nlet y = 7\nassert y == 7\n")
    assert not report.all_passed
    marks = [a.passed for a in report.assertions]
    assert marks == [False, True]


def test_input_statement_records_note():
    report = run('input n = 5 from "external count"\nassert n == 5\n')
    assert report.all_passed
    assert any("external count" in note for note in report.notes)


def test_comments_and_blank_lines():
    report = run("# leading comment\n\nlet a = 1  # trailing\n\nassert a == 1\n")
    assert report.all_passed


def test_schubert_literals_and_pdeg():
    text = (
        "grassmannian (3, 5)\n"
        "let e = 120 * s[1,1,1] + 16 * s[2,1]\n"
        "assert pdeg(e, 3) == 152\n"
    )
    assert run(text).all_passed


def test_solve_substitutes_into_schubert_classes():
    text = (
        "grassmannian (3, 5)\n"
        "unknown a\n"
        "let x = a*s[1,1,1] + 16*s[2,1]\n"
        "solve { a == 120 }\n"
        "assert pdeg(x, 3) == 152\n"
    )
    assert run(text).all_passed


def test_unit_schubert_class_reads_back():
    # the unit class prints as s[]; the parser reads that form back
    text = (
        "grassmannian (3, 5)\n"
        "let x = s[1] + 1\n"
        "assert s[1] + 1 == s[] + s[1]\n"
        "assert x * s[2,1] == s[] * s[2,1] + s[1] * s[2,1]\n"
    )
    report = run(text)
    assert report.all_passed
    assert report.bindings[0][1] == "s[] + s[1]"
    assert parse(pretty_print(parse(text))) == parse(text)


@pytest.mark.parametrize(
    "space, zero",
    [
        ("grassmannian (3, 5)", "s[1] - s[1]"),
        ("surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }", "2*H - H - H"),
        ("lattice L { basis l, F; l.l = 1, l.F = 1, F.F = 0 }", "l - l"),
    ],
    ids=["schubert", "surface", "lattice"],
)
def test_zero_class_equals_zero(space, zero):
    assert run(f"{space}\nassert {zero} == 0\n").all_passed


def test_surface_block_and_jets():
    text = (
        "surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }\n"
        "assert jet2_c2(H) == 210\n"
        "assert tau(6, 0, 0, 24) == 210\n"
    )
    assert run(text).all_passed


def test_lattice_solve_and_field_access():
    text = (
        "lattice L { basis l, F; unknown x;"
        " l.F = 1, F.F = 0, l.l = x;"
        " canonical = -2*l + 33*F;"
        " class H = l + 15*F }\n"
        "solve { H * l == 6 }\n"
        "assert x == -9\n"
        "assert genus(6 * H) == 442\n"
    )
    assert run(text).all_passed


def test_record_field_access():
    text = (
        "let T = salmon_cayley(1, 6, 18; 0, 0, 36)\n"
        "assert T.degree == 180\n"
        "assert T.m1 == 72\n"
    )
    assert run(text).all_passed


def test_missing_expression_position():
    with pytest.raises(WorksheetSyntaxError) as exc:
        parse("let x = \n")
    assert "line 1" in str(exc.value)
    assert "missing expression" in str(exc.value)


def test_unbalanced_bracket_reported():
    with pytest.raises(WorksheetSyntaxError):
        parse("let x = s[2,1\n")


def test_use_before_definition_rejected():
    with pytest.raises(WorksheetSyntaxError):
        parse("assert y == 1\n")


def test_duplicate_binding_rejected():
    with pytest.raises(WorksheetSyntaxError):
        parse("let x = 1\nlet x = 2\n")


def test_unknown_function_rejected():
    with pytest.raises(WorksheetSyntaxError):
        parse("let x = frobnicate(3)\n")


def test_readme_lists_the_builtin_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Builtins", 1)[1]
    block = section.split("```")[1]
    listed = re.findall(r"^(\w+)[({]", block, re.MULTILINE)
    assert sorted(listed) == sorted(BUILTINS)
    for name, builtin in BUILTINS.items():
        assert name + builtin.signature in block


def test_runtime_error_for_schubert_without_context():
    with pytest.raises(WorksheetRuntimeError):
        run("let e = s[1]\nlet d = pdeg(e, 1)\n")


def test_division_by_zero_is_runtime_error():
    with pytest.raises(WorksheetRuntimeError):
        run("let x = 1 / 0\n")


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.name)
def test_shipped_worksheets_all_pass(path):
    report = run(path.read_text(encoding="utf-8"))
    assert report.assertions, "worksheet should assert something"
    assert report.all_passed, [
        a.expression for a in report.assertions if not a.passed
    ]


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.name)
def test_shipped_worksheets_round_trip(path):
    program = parse(path.read_text(encoding="utf-8"))
    printed = pretty_print(program)
    assert parse(printed) == program
    # printing is idempotent
    assert pretty_print(parse(printed)) == printed


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.name)
def test_evaluation_is_deterministic(path):
    text = path.read_text(encoding="utf-8")
    r1 = run(text).as_dict()
    r2 = run(text).as_dict()
    assert r1 == r2


names = st.sampled_from(["a", "b", "c", "d"])
ints = st.integers(-50, 50)


@st.composite
def small_programs(draw):
    lines = []
    bound = []
    for name in ["a", "b", "c"]:
        if draw(st.booleans()) or not bound:
            terms = [str(draw(ints))]
            for prev in bound:
                if draw(st.booleans()):
                    terms.append(f"{draw(st.integers(0, 9))} * {prev}")
            lines.append(f"let {name} = " + " + ".join(terms))
            bound.append(name)
    lines.append(f"assert {bound[-1]} == {bound[-1]}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(small_programs())
def test_generated_programs_round_trip(text):
    program = parse(text)
    assert parse(pretty_print(program)) == program
    report = evaluate(program)
    assert report.all_passed
