"""Worksheet language: parsing, evaluation, round-trips, determinism."""

import gc
import importlib.util
import pathlib
import platform
import re
import sys
from fractions import Fraction

import pytest
from _oracles import BUILTIN_ORACLES, reference_tokenize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chowkit.cli import main
from chowkit.linexpr import LinExpr
from chowkit.worksheet import (
    WorksheetRuntimeError,
    WorksheetSyntaxError,
    evaluate,
    parse,
    pretty_print,
)
from chowkit.worksheet.builtins import BUILTINS
from chowkit.worksheet.evaluate import Evaluator
from chowkit.worksheet.parse import ClassDecl, IntLit, Let, tokenize

# the syntax module: the package's own `parse` attribute is the function
ast = importlib.import_module("chowkit.worksheet.parse")

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
        # the solve sets C's coefficient of l to 0, which C then drops
        (
            "unknown a\nlattice L { basis l, F; l.l = 1, l.F = 1, F.F = 0; class C = a*l + F }\n"
            "solve { a == 0 }",
            "C - F",
        ),
    ],
    ids=["schubert", "surface", "lattice", "lattice-solved-coefficient"],
)
def test_zero_class_equals_zero(space, zero):
    assert run(f"{space}\nassert {zero} == 0\n").all_passed


@pytest.mark.parametrize(
    "space, cls, printed",
    [
        ("grassmannian (2, 4)", "s[1]", "1/2*s[1]"),
        ("surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }", "H + 3*K", "1/2*H + 3/2*K"),
        ("lattice L { basis l, F; l.l = 1, l.F = 1, F.F = 0 }", "2*l - F", "l - 1/2*F"),
    ],
    ids=["schubert", "surface", "lattice"],
)
def test_a_class_divides_by_a_number(space, cls, printed):
    report = run(f"{space}\nlet y = ({cls}) / 2\nassert y == (1/2) * ({cls})\n")
    assert report.all_passed and report.bindings[-1] == ("y", printed)


@pytest.mark.parametrize(
    "space, cls, printed",
    [
        ("grassmannian (2, 4)", "s[1]", "2*s[1]"),
        ("surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }", "H", "2*H"),
        ("lattice L { basis l, F; l.l = 1, l.F = 1, F.F = 0 }", "l", "2*l"),
    ],
    ids=["schubert", "surface", "lattice"],
)
def test_a_number_multiplies_a_class_on_either_side(space, cls, printed):
    report = run(f"{space}\nlet y = {cls} * 2\nassert y == 2 * {cls}\n")
    assert report.all_passed and report.bindings[-1] == ("y", printed)


def test_surface_block_and_jets():
    text = (
        "surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }\n"
        "assert jet2_c2(H) == 210\n"
        "assert tau(6, 0, 0, 24) == 210\n"
    )
    assert run(text).all_passed


def test_jet2_c2_reads_the_surface_of_its_divisor():
    text = (
        "surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }\n"
        "let H1 = H\n"
        "surface { D, K2; D.D = 2, D.K2 = 0, K2.K2 = 0; euler = 12 }\n"
        "let t = jet2_c2(H1)\n"
    )
    assert run(text).bindings[-1] == ("t", "210")


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


@pytest.mark.parametrize(
    "text",
    [
        "unknown a\n"
        "lattice L { basis l, F; l.F = 1, F.F = 0, l.l = a }\n"
        "solve { a == -9 }\n"
        "assert l * l == -9\n",
        # a lattice solved first must not block a later solve of `a`
        "unknown a\n"
        "lattice L { basis l, F; l.F = 1, F.F = 0, l.l = a }\n"
        "lattice M { basis m, G; unknown y; m.G = 1, G.G = 0, m.m = y }\n"
        "solve { m * m == 33 }\n"
        "solve { a == -9 }\n"
        "assert l * l == -9\n"
        "assert m * m == 33\n"
        "assert y == 33\n",
    ],
    ids=["one-solve", "after-another-lattice-solve"],
)
def test_solve_substitutes_a_top_level_unknown_in_a_gram_entry(text):
    report = run(text)
    assert report.assertions and report.all_passed


@pytest.mark.parametrize(
    "surface",
    [
        "unknown a\nsurface { H, K; H.H = a, H.K = 0, K.K = 0; euler = 24 }\nsolve { a == 6 }\n",
        "unknown e\nsurface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = e }\nsolve { e == 24 }\n",
    ],
    ids=["gram-entry", "euler"],
)
def test_solve_substitutes_into_a_surface(surface):
    report = run(surface + "let t = jet2_c2(H)\nlet hh = H * H\n")
    assert report.bindings[-2:] == [("t", "210"), ("hh", "6*pt")]


SURFACE = "surface { H, K; H.H = 6, "


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SURFACE + "H.K = 0, K.H = 5, K.K = 0; euler = 24 }\nlet t = jet2_c2(H)\n",
            "line 1, column 35: intersection number K.H declared twice",
        ),
        (
            SURFACE + "H.K = 0, H.K = 5, K.K = 0; euler = 24 }\nlet t = jet2_c2(H)\n",
            "line 1, column 35: intersection number H.K declared twice",
        ),
        (
            "lattice L { basis l, F; l.F = 1, F.l = 2, F.F = 0, l.l = 0 }\nlet x = l * F\n",
            "line 1, column 34: intersection number F.l declared twice",
        ),
        (
            "lattice L { basis l, F; l.F = 1 }\nlet x = l * l\n",
            "line 2, column 11: intersection number l.l was never declared",
        ),
        (
            SURFACE + "H.X = 0, K.K = 0; euler = 24 }\n",
            "line 1, column 26: gram entry for unknown classes (H, X)",
        ),
        (
            SURFACE + "H.K = 0; euler = 24 }\n",
            "line 1, column 1: missing intersection number K.K",
        ),
    ],
    ids=[
        "surface-entry-twice",
        "surface-entry-twice-same-order",
        "lattice-entry-twice",
        "lattice-entry-never-declared",
        "surface-entry-outside-basis",
        "surface-entry-missing",
    ],
)
def test_intersection_number_errors(text, message, tmp_path, capsys):
    with pytest.raises(WorksheetRuntimeError) as exc:
        run(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.ws"
    path.write_text(text, encoding="utf-8")
    assert main(["worksheet", "run", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_record_field_access():
    text = (
        "let T = salmon_cayley(1, 6, 18; 0, 0, 36)\n"
        "assert T.degree == 180\n"
        "assert T.m1 == 72\n"
    )
    assert run(text).all_passed


def test_records_print_their_fields_in_order():
    report = run(
        "let P = pluecker{d=6, nodes=6}\n"
        "let T = salmon_cayley(1, 6, 18; 0, 0, 36)\n"
    )
    assert report.bindings == [
        ("P", "{d=6, m=18, nodes=6, cusps=0, bitangents=96, flexes=36, genus=4}"),
        ("T", "{degree=180, m1=72, m2=18, m3=6}"),
    ]


def test_missing_expression_position():
    with pytest.raises(WorksheetSyntaxError) as exc:
        parse("let x = \n")
    assert "line 1" in str(exc.value)
    assert "missing expression" in str(exc.value)


LATTICE = "lattice L { basis l, F; l.l = 0, l.F = 1, F.F = 0; "


@pytest.mark.parametrize(
    "text, message",
    [
        ("let a = 1\nassert b == 1\n", "line 2, column 8: use of undeclared name 'b'"),
        ("let x = 1\nunknown y\nlet x = 2\n", "line 3, column 1: duplicate binding of 'x'"),
        ("let H = 1\nsurface { H; H.H = 1; euler = 1 }\n", "line 2, column 1: duplicate binding of 'H'"),
        ("let L = 1\nlattice L { basis l }\n", "line 2, column 1: duplicate binding of 'L'"),
        (LATTICE + "\n  class l = F }\n", "line 2, column 3: duplicate binding of 'l'"),
        ("let x = x\n", "line 1, column 9: use of undeclared name 'x'"),
        ("let y = 2 * frob(1)\n", "line 1, column 13: unknown function 'frob'"),
        (LATTICE + "class G = G }\n", "line 1, column 62: use of undeclared name 'G'"),
        (
            LATTICE + "class H = l + K; canonical = -2*l }\n",
            "line 1, column 66: use of undeclared name 'K'",
        ),
        ('let a = 1\ninput n = 5 from "no end\n', "line 2, column 18: unterminated string literal"),
        ("let a = 1\nlet b = a $ 2\n", "line 2, column 11: unexpected character '$'"),
        ("let x = \u00b2\n", "line 1, column 9: unexpected character '\u00b2'"),
        ("let x = # note", "line 1, column 15: missing expression"),
        ("let x = # note\nlet y = 1\n", "line 1, column 15: missing expression"),
        ("surface { H; H.H = H; euler = 1 }\n", "line 1, column 20: use of undeclared name 'H'"),
        ("let a = b\nlet c = (\n", "line 1, column 9: use of undeclared name 'b'"),
        ("let P = pluecker{d=3, d=4}\n", "line 1, column 23: duplicate argument 'd'"),
        ("let P = (pluecker{d=3, nodes=0,\n  d=\n", "line 2, column 3: duplicate argument 'd'"),
        ("let x = " + "1" * 5000, "line 1, column 9: integer literal longer than 4300 digits"),
        (
            "grassmannian (3, " + "1" * 5000 + ")\n",
            "line 1, column 18: integer literal longer than 4300 digits",
        ),
        (
            "grassmannian (3, 6)\nlet y = s[2, " + "1" * 5000 + "]\n",
            "line 2, column 14: integer literal longer than 4300 digits",
        ),
        (
            "surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24; euler = 0 }\n"
            "let t = jet2_c2(H)\n",
            "line 1, column 56: euler declared twice",
        ),
        ("surface { H; H.H = 1, }\n", "line 1, column 23: expected divisor name, got '}'"),
        ("lattice L { basis l; l.l = 0, }\n", "line 1, column 31: expected class name, got '}'"),
        ("unknown a\nsolve { a == 1, }\n", "line 2, column 17: expected an expression, got '}'"),
        ("unknown a\nsolve { a == 1,\n}\n", "line 3, column 1: expected an expression, got '}'"),
        (
            "unknown a, b\nsolve { a == 1, ; b == 2 }\n",
            "line 2, column 17: expected an expression, got ';'",
        ),
        (
            "surface { H; H.H = 1 euler = 2 }\n",
            "line 1, column 22: expected ';' or '}' in surface block, got 'euler'",
        ),
        (
            "lattice L { basis l; l.l = 0 class x = l }\n",
            "line 1, column 30: expected ';' or '}' in lattice block, got 'class'",
        ),
        (
            "unknown a\nsolve { a == 1 a }\n",
            "line 2, column 16: expected ';' or '}' in solve block, got 'a'",
        ),
        (
            "unknown a\nsolve { a == 1\n",
            "line 3, column 1: expected ';' or '}' in solve block, got end of input",
        ),
        ("lattice L { basis l; l.1 = 0 }\n", "line 1, column 24: expected class name, got '1'"),
        ("surface { H; H.1 = 0; euler = 1 }\n", "line 1, column 16: expected divisor name, got '1'"),
        ("unknown", "line 1, column 8: expected unknown name, got end of input"),
        ("lattice L { basis", "line 1, column 18: expected class name, got end of input"),
        ('input x = 1', "line 1, column 12: expected keyword 'from', got end of input"),
        ("let x = 1 +\n", "line 1, column 12: missing expression"),
        ("let x\nlet y = 1\n", "line 1, column 6: expected '=' after binding name, got end of line"),
        ("unknown a,\nlet x = 1\n", "line 2, column 1: expected unknown name, got 'let'"),
        ("surface { H; H.H = 6 }\n", "line 1, column 1: surface block must declare euler = ..."),
        ("solve { }\n", "line 1, column 1: empty solve block"),
        ('input x = 1 form "c"\n', "line 1, column 13: expected keyword 'from', got 'form'"),
        ("lattice L { basis l; l.l = 0; canonical 2 }\n", "line 1, column 41: expected '=' after 'canonical', got '2'"),
        ("surface { basis; H.H = 1; euler = 1 }\n", "line 1, column 16: expected divisor name, got ';'"),
        ("surface { H; basis K; euler = 1 }\n", "line 1, column 14: expected divisor name, got 'basis'"),
        ("surface { euler = 1; H.H = 1 }\n", "line 1, column 11: expected divisor name, got 'euler'"),
    ],
    ids=[
        "undeclared",
        "duplicate-let",
        "duplicate-surface-basis",
        "duplicate-lattice-name",
        "duplicate-lattice-class",
        "self-reference",
        "unknown-function",
        "class-self-reference",
        "K-before-canonical",
        "unterminated-string",
        "unexpected-character",
        "superscript-digit",
        "end-after-trailing-comment",
        "newline-after-trailing-comment",
        "surface-basis-inside-its-block",
        "scope-error-before-syntax-error",
        "duplicate-argument",
        "duplicate-argument-before-its-value",
        "literal-too-long",
        "grassmannian-too-long",
        "partition-part-too-long",
        "euler-twice",
        "surface-trailing-comma",
        "lattice-trailing-comma",
        "solve-trailing-comma",
        "solve-comma-before-a-line-end-and-brace",
        "solve-comma-before-semicolon",
        "surface-missing-separator",
        "lattice-missing-separator",
        "solve-missing-separator",
        "block-never-closed",
        "lattice-entry-names-a-class",
        "surface-entry-names-a-divisor",
        "name-at-end-of-input",
        "class-name-at-end-of-input",
        "keyword-at-end-of-input",
        "operand-at-end-of-line",
        "name-at-end-of-line",
        "name-after-a-line-final-comma",
        "surface-without-euler",
        "empty-solve",
        "input-without-from",
        "canonical-without-equals",
        "surface-basis-keyword-without-names",
        "surface-basis-keyword-past-the-first-section",
        "surface-euler-in-the-first-section",
    ],
)
def test_error_message_and_position(text, message):
    with pytest.raises(WorksheetSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_an_integer_literal_of_the_cap_length_parses():
    digits = "9" * 4300
    program = parse(f"grassmannian (3, {digits})\nlet x = s[{digits}] + {digits}\n")
    k_n, let = program.statements
    assert k_n.n == let.expr.left.parts[0] == let.expr.right.value == int(digits)


needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int(str) limit"
)


@pytest.fixture
def int_max_str_digits():
    """Sets Python's int(str) digit limit for one test, and restores it after."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@needs_int_limit
def test_the_literal_cap_follows_a_lowered_python_limit(int_max_str_digits, tmp_path, capsys):
    int_max_str_digits(640)
    long, most = "1" * 1000, "7" * 640
    for text, col in [(f"let x = {long}", 9), (f"grassmannian (3, {long})", 18),
                      (f"grassmannian (2, 4)\nlet y = s[{long}]", 11)]:
        with pytest.raises(WorksheetSyntaxError) as exc:
            parse(text)
        assert str(exc.value).endswith(
            f", column {col}: integer literal longer than 640 digits"
        )
    assert parse(f"let x = {most}").statements[0].expr.value == int(most)
    path = tmp_path / "long.ws"
    path.write_text(f"let x = {long}\n", encoding="utf-8")
    assert main(["worksheet", "run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"{path}: error: line 1, column 9: integer literal longer than 640 digits"
    )


@needs_int_limit
def test_a_python_limit_of_zero_lifts_the_literal_cap(int_max_str_digits):
    int_max_str_digits(0)
    digits = "1" * 5000
    assert parse(f"let x = {digits}").statements[0].expr.value == int(digits)


def test_the_literal_cap_is_4300_where_python_has_no_limit(monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    with pytest.raises(WorksheetSyntaxError) as exc:
        parse("let x = " + "1" * 4301)
    assert str(exc.value) == "line 1, column 9: integer literal longer than 4300 digits"


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


def test_every_builtin_has_an_oracle_or_a_definitional_note():
    assert sorted(BUILTIN_ORACLES) == sorted(BUILTINS)
    for name, checks in BUILTIN_ORACLES.items():
        assert checks, name
        for check in checks:
            if check.startswith("definitional: "):
                continue
            module, _, test = check.partition("::")
            assert callable(getattr(importlib.import_module(module[:-3]), test, None)), (name, check)


def test_runtime_error_for_schubert_without_context():
    with pytest.raises(WorksheetRuntimeError):
        run("let e = s[1]\nlet d = pdeg(e, 1)\n")


@pytest.mark.parametrize("call", ["odd_theta(1001)", "degmult(1001)"])
def test_exponent_cap_is_a_runtime_error_with_a_position(call):
    with pytest.raises(WorksheetRuntimeError, match=r"^line 2, column 9: .* above the cap of 1000$"):
        run(f"let x = 1\nlet y = {call}\n")


def test_a_degree_too_long_to_print_is_a_runtime_error_with_a_position():
    # deg Gr(60, 120) has 5018 digits, above Python's limit for str(int)
    with pytest.raises(WorksheetRuntimeError) as exc:
        run("grassmannian (60, 120)\nlet d = pdeg(s[], 3600)\n")
    assert str(exc.value) == "line 2, column 1: cannot print d: <5018 digits>"


def test_a_value_too_long_to_print_is_a_runtime_error_with_a_position():
    # 2^1000 to the 15th has 4516 digits, above Python's limit for str(int)
    product = " * ".join(["a"] * 15)
    with pytest.raises(WorksheetRuntimeError) as exc:
        run(f"let a = degmult(1000)\nlet b = {product}\n")
    assert str(exc.value) == "line 2, column 1: cannot print b: <4516 digits>"


# 2^1000 to the 15th, 4516 digits, above Python's limit for str(int)
HUGE = " * ".join(["degmult(1000)"] * 15)


@needs_int_limit
@pytest.mark.parametrize(
    "text, message",
    [
        (f"let B = {HUGE}\n", "line 1, column 1: cannot print B: <4516 digits>"),
        (f"let B = -{HUGE}/3\n", "line 1, column 1: cannot print B: -<4516 digits>/3"),
        (
            f"grassmannian (3, 5)\nlet B = {HUGE}*s[1]\n",
            "line 2, column 1: cannot print B: <a value too long to print>",
        ),
        (f"assert {HUGE} == 1\n", "line 1, column 1: cannot print the left side: <4516 digits>"),
        (
            f"let x = odd_theta({HUGE}/3)\n",
            "line 1, column 9: odd_theta: expected an integer, got <4516 digits>/3",
        ),
        (
            f"grassmannian (3, 5)\nlet x = pdeg(s[1], {HUGE}*s[1])\n",
            "line 2, column 9: pdeg: expected an integer, got <a value too long to print>",
        ),
        (  # (B + 1)^2 for B = 2^8000 has 4817 digits
            "lattice L { basis l; l.l = 1; canonical = 0*l }\n"
            f"let g = genus(({' * '.join(['degmult(1000)'] * 8)} + 1)*l)\n",
            "line 2, column 9: genus: C^2 + C.K = <4817 digits> is odd",
        ),
    ],
    ids=[
        "let", "let-fraction", "let-class", "assert", "integer-argument", "class-argument",
        "genus",
    ],
)
def test_a_value_too_long_to_print_names_where_it_stands(text, message):
    with pytest.raises(WorksheetRuntimeError) as exc:
        run(text)
    assert str(exc.value) == message


@needs_int_limit
@pytest.mark.parametrize(
    "call, message",
    [
        (f"pdeg(s[1], {HUGE})", "pdeg: dimension <4516 digits> is out of range 0..6 for Gr(3, 5)"),
        (f"odd_theta({HUGE})", "odd_theta: genus <4516 digits> is above the cap of 1000"),
        (f"degmult({HUGE})", "degmult: contact count <4516 digits> is above the cap of 1000"),
        (f"hurwitz(0, {HUGE}, 2)", "hurwitz: invalid cover data: ramification -<4517 digits> < 0"),
        (f"residual(1; {HUGE})", "residual: ledger residual -<4516 digits> is negative"),
        (
            f"secant_pluecker(3, {HUGE})",
            "secant_pluecker: a degree-3 space curve cannot have genus <4516 digits>",
        ),
        (
            f"pluecker{{d={HUGE}, m=3, nodes=0, cusps=0}}",
            "pluecker: relation violated on cusps=0, d=<4516 digits>, m=3, nodes=0",
        ),
        (f"pluecker{{d=-{HUGE}}}", "pluecker: no plane curve has d=-<4516 digits>"),
        (
            f"pluecker{{d={HUGE}/7}}",
            "pluecker: no plane curve has d=<4516 digits>/7, m=<9031 digits>/49,"
            " bitangents=<18062 digits>/2401, flexes=<9032 digits>/49, genus=<9031 digits>/49",
        ),
    ],
    ids=[
        "pdeg", "odd_theta", "degmult", "hurwitz", "residual", "secant_pluecker",
        "pluecker-inconsistent", "pluecker-negative-degree", "pluecker-fractional-degree",
    ],
)
def test_a_number_too_long_to_print_shows_its_length_in_a_message(call, message):
    with pytest.raises(WorksheetRuntimeError) as exc:
        run(f"grassmannian (3, 5)\nlet x = {call}\n")
    assert str(exc.value) == f"line 2, column 9: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("grassmannian (5, 3)\n", "line 1, column 1: need 0 < k < n, got Gr(5, 3)"),
        (
            "unknown a\nsolve { a == 1; a == 2 }\n",
            "line 2, column 1: constraints have no common solution",
        ),
        (
            "unknown a\nlet x = glue_genus(a, 1, 1)\n",
            "line 2, column 9: glue_genus: expected a number, got a",
        ),
        ("unknown a\nlet x = residual(6; a)\n", "line 2, column 9: residual: expected a number, got a"),
        (
            "unknown a\nlet x = coincidences(a, 1)\n",
            "line 2, column 9: coincidences: expected a number, got a",
        ),
        (
            "unknown a\nlet x = pluecker{d=a, nodes=0}\n",
            "line 2, column 9: pluecker: expected a number, got a",
        ),
        (
            "let P = pluecker{genus=1, nodes=0, cusps=0}\n",
            "line 1, column 9: pluecker: cannot determine: bitangents, d, flexes, m",
        ),
        (
            "grassmannian (2, 4)\nlattice L { basis l; l.l = s[1] }\n",
            "line 2, column 28: expected a scalar value, got s[1]",
        ),
        (
            "let a = 1\nlet P = pluecker{d=3, nodes=4}\n",
            "line 2, column 9: pluecker: no plane curve has m=-2, flexes=-15, genus=-3",
        ),
        (
            "let P = pluecker{d=1/2, nodes=0}\n",
            "line 1, column 9: pluecker: no plane curve has"
            " d=1/2, m=-1/4, bitangents=105/32, flexes=-9/4, genus=3/8",
        ),
        ("let P = pluecker{d=0}\n", "line 1, column 9: pluecker: no plane curve has d=0, m=0"),
        (
            "let P = pluecker{d=1}\n",
            "line 1, column 9: pluecker: no plane curve has d=1, m=0, flexes=-3",
        ),
        (
            "let P = pluecker{m=0, bitangents=0, flexes=0}\n",
            "line 1, column 9: pluecker: no plane curve has d=0, m=0",
        ),
        ("let a = 1\nlet x = 2 + 1/0\n", "line 2, column 14: division by zero"),
        ("let x = 1/(2 - 2)\n", "line 1, column 10: division by zero"),
        ("let x = odd_theta(1/2)\n", "line 1, column 9: odd_theta: expected an integer, got 1/2"),
        (
            "let P = pluecker{d=3}\nlet y = -P\n",
            "line 2, column 9: unsupported operand type for -: a record",
        ),
        (
            "unknown a\nlet x = 1 / a\n",
            "line 2, column 11: unsupported operand types for /:"
            " a number and an expression with unknowns",
        ),
        (
            "unknown a, b\nlet x = a / b\n",
            "line 2, column 11: unsupported operand types for /:"
            " an expression with unknowns and an expression with unknowns",
        ),
        (
            "grassmannian (3, 5)\nlet d = pdeg(s[1], 99999999999999999999)\n",
            "line 2, column 9: pdeg: dimension 99999999999999999999 is out of range 0..6 for Gr(3, 5)",
        ),
        (
            "grassmannian (3, 5)\nlet d = pdeg(s[1], -1)\n",
            "line 2, column 9: pdeg: dimension -1 is out of range 0..6 for Gr(3, 5)",
        ),
        (
            "lattice L { basis l; l.l = 1; canonical = l }\nlet g = genus(1/2*l)\n",
            "line 2, column 9: genus: C^2 + C.K = 3/4 is not an integer",
        ),
        (
            "unknown a\nlattice L { basis l; l.l = a; canonical = -2*l }\nlet g = genus(l)\n",
            "line 3, column 9: genus: C^2 + C.K = -a holds unknowns",
        ),
        ("lattice L { basis l; l.l = 0; class C = 2 }\n", "line 1, column 41: expected a lattice class, got 2"),
        ("lattice L { basis l; l.l = 0; canonical = 2 }\n", "line 1, column 43: expected a lattice class, got 2"),
        (
            "surface { H; H.H = 6; euler = 24 }\nlet t = jet2_c2(H)\n",
            "line 2, column 9: jet2_c2: surface must declare a canonical divisor named K",
        ),
        ("let x = odd_theta(4).genus\n", "line 1, column 21: cannot access field 'genus' on 120"),
        (
            "let x = pluecker{d=6, nodes=6}.foo\n",
            "line 1, column 31: record has no field 'foo'"
            " (has: d, m, nodes, cusps, bitangents, flexes, genus)",
        ),
        ("let x = degmult(-1)\n", "line 1, column 9: degmult: contact count must be non-negative"),
        ("let x = secant_pluecker(5, -1)\n", "line 1, column 9: secant_pluecker: genus must be non-negative"),
        ("grassmannian (2, 4)\nlet x = s[3]\n", "line 2, column 9: s[3] does not fit the 2x2 box"),
    ],
    ids=[
        "grassmannian-out-of-range",
        "solve-inconsistent",
        "glue-genus-unknown",
        "residual-unknown",
        "coincidences-unknown",
        "pluecker-unknown",
        "pluecker-quadratic-in-d",
        "lattice-entry-not-scalar",
        "pluecker-negative-characters",
        "pluecker-fractional-degree",
        "pluecker-degree-zero",
        "pluecker-line",
        "pluecker-dual-degree-zero",
        "division-by-a-literal-zero",
        "division-by-a-computed-zero",
        "integer-argument-not-integral",
        "negated-record",
        "number-over-unknown",
        "unknown-over-unknown",
        "pdeg-dimension-above-range",
        "pdeg-dimension-below-range",
        "genus-not-an-integer",
        "genus-of-an-unknown-intersection",
        "class-not-a-lattice-class",
        "canonical-not-a-lattice-class",
        "jet2-c2-without-K",
        "field-of-a-number",
        "record-without-the-field",
        "degmult-negative",
        "secant-pluecker-negative-genus",
        "schubert-class-outside-the-box",
    ],
)
def test_runtime_error_message_and_position(text, message):
    with pytest.raises(WorksheetRuntimeError) as exc:
        run(text)
    assert str(exc.value) == message


def test_pluecker_solves_the_cubic_from_its_dual():
    report = run(
        "let P = pluecker{m=6, nodes=0, cusps=0, bitangents=0, flexes=9}\n"
        "assert P.d == 3\n"
        "assert P.genus == 1\n"
    )
    assert report.all_passed and len(report.assertions) == 2


def test_division_by_zero_is_runtime_error():
    with pytest.raises(WorksheetRuntimeError):
        run("let x = 1 / 0\n")


def test_scalars_stay_int_until_a_division_needs_a_fraction():
    ev = Evaluator()
    report = ev.run(
        parse(
            "let x = 1/3\n"
            "assert x * 3 == 1\n"
            "let y = 6/3\n"
            "let z = 2 * 3 + 1\n"
            "let w = -z\n"
        )
    )
    assert report.bindings == [("x", "1/3"), ("y", "2"), ("z", "7"), ("w", "-7")]
    assert report.all_passed
    assert ev.env["x"] == Fraction(1, 3)
    assert type(ev.env["z"]) is int and type(ev.env["w"]) is int


def test_an_integral_quotient_is_an_integer_argument():
    report = run("let x = odd_theta(4/2)\nassert x == 6\n")
    assert report.bindings == [("x", "6")] and report.all_passed


def test_a_let_of_an_unknown_holds_the_solved_value():
    ev = Evaluator()
    report = ev.run(
        parse("unknown a\nlet x = 2*a + 1\nsolve { a == 1/2 }\nlet y = x + 1\nassert x == 2\n")
    )
    assert report.bindings[-1] == ("y", "3")
    assert report.all_passed
    assert ev.env["x"] == 2 and not isinstance(ev.env["x"], LinExpr)


def test_a_class_left_open_by_one_solve_is_substituted_by_the_next():
    ev = Evaluator()
    report = ev.run(
        parse(
            "lattice L { basis l, F; unknown x, y; l.l = 1, l.F = 1, F.F = 0;"
            " class C = x*l + y*F }\n"
            "solve { x == 2 }\n"
            "let C1 = C\n"
            "solve { C * l == 5 }\n"
            "let C2 = C\n"
            "assert C1 * l == C * l\n"
            "assert C * F == 2\n"
        )
    )
    bound = dict(report.bindings)
    assert bound["C1"] == "2*l + (y)*F"
    assert bound["y"] == "3"
    assert bound["C2"] == "2*l + 3*F"
    assert report.all_passed and len(report.assertions) == 2
    assert str(ev.env["C1"]) == "2*l + 3*F"


def test_a_lattice_prints_its_unknowns_until_each_is_solved():
    report = run(
        "lattice L { basis l, F; unknown x, y; l.l = x, l.F = 1, F.F = 0 }\n"
        "let M0 = L\n"
        "solve { x == 2 }\n"
        "let M1 = L\n"
        "solve { y == 3 }\n"
        "let M2 = L\n"
        "let t = y + l * l\n"
    )
    assert report.bindings == [
        ("L", "lattice()"), ("l", "l"), ("F", "F"), ("x", "x"), ("y", "y"),
        ("M0", "lattice(l, F; unknown x, y)"),
        ("x", "2"),
        ("M1", "lattice(l, F; unknown y)"),
        ("y", "3"),
        ("M2", "lattice(l, F)"),
        ("t", "5"),
    ]


def test_a_space_stays_open_until_nothing_in_it_holds_an_unknown():
    program = parse(
        "unknown a, w\n"
        "lattice L { basis l, F; unknown u; l.l = 1, l.F = 1, F.F = 0 }\n"
        "lattice N { basis p; p.p = 2 }\n"
        "lattice Q { basis q; q.q = a + 1; canonical = w * q }\n"
        "surface { H; H.H = 1; euler = a }\n"
        "surface { E; E.E = -1; euler = 3 }\n"
        "solve { a == 3 }\n"
        "let M = L\n"
        "solve { w == 2 }\n"
        "let g = genus(q)\n"
        "solve { u == 1 }\n"
        "let M2 = L\n"
    )
    ev = Evaluator()
    open_after = []
    for s in program.statements:
        ev.statement(s)
        open_after.append([str(space) if hasattr(space, "unknowns") else space.basis
                           for space in ev.spaces])
    assert open_after == [
        [],
        ["lattice(l, F; unknown u)"],  # only its `unknown u` holds one
        ["lattice(l, F; unknown u)", "lattice(p)"],  # N holds none, and the next solve drops it
        ["lattice(l, F; unknown u)", "lattice(p)", "lattice(q)"],
        ["lattice(l, F; unknown u)", "lattice(p)", "lattice(q)", ("H",)],
        ["lattice(l, F; unknown u)", "lattice(p)", "lattice(q)", ("H",), ("E",)],
        ["lattice(l, F; unknown u)", "lattice(q)"],  # only Q's canonical holds one
        ["lattice(l, F; unknown u)", "lattice(q)"],
        ["lattice(l, F; unknown u)"],
        ["lattice(l, F; unknown u)"],
        [],
        [],
    ]
    assert ev.report.bindings[-6:] == [
        ("a", "3"), ("M", "lattice(l, F; unknown u)"), ("w", "2"), ("g", "7"),
        ("u", "1"), ("M2", "lattice(l, F)"),
    ]


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


def test_reformatting_leaves_the_program_equal():
    assert parse("let x = 1\n") == parse("\n\nlet  x=1 # c\n")


def test_nodes_compare_by_class_and_fields_not_position():
    one = IntLit(1, (1, 9))
    let = Let("x", one, (1, 1))
    moved = Let("x", IntLit(1, (3, 7)), (3, 1))
    assert let == moved and not let != moved
    assert hash(let) == hash(moved)
    assert let != Let("y", one, (1, 1))
    assert let != ClassDecl("x", one, (1, 1))
    assert let != ("x", one) and ("x", one) != let
    assert let != ("x", one, (1, 1))


def test_traced_statement_kinds_name_node_classes():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert [k for k in spans.STATEMENT_KINDS if not hasattr(ast, k)] == []


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.name)
def test_evaluation_is_deterministic(path):
    text = path.read_text(encoding="utf-8")
    r1 = run(text).as_dict()
    r2 = run(text).as_dict()
    assert r1 == r2


@pytest.mark.parametrize(
    "lines, one_line",
    [
        (
            "lattice L {\n  basis l, F\n  l.l = 0,\n  l.F = 1, F.F = 0\n}\n",
            "lattice L { basis l, F; l.l = 0, l.F = 1, F.F = 0 }\n",
        ),
        (
            "surface {\n  H,\n  K\n  H.H = 6, H.K = 0,\n  K.K = 0\n  euler = 24\n}\n",
            "surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }\n",
        ),
        ("unknown a, b\nsolve {\n a == 1,\n b == 2\n}\n", "unknown a, b\nsolve { a == 1, b == 2 }\n"),
        ("let P = pluecker{d=6,\n nodes=6}\n", "let P = pluecker{d=6, nodes=6}\n"),
        ("unknown a,\n b\n", "unknown a, b\n"),
    ],
    ids=["lattice", "surface", "solve", "brace-call", "unknown"],
)
def test_a_comma_may_end_a_line_in_every_block(lines, one_line):
    """In every block, and in a brace call and an `unknown` list as well."""
    program = parse(lines)
    assert program == parse(one_line)
    assert parse(pretty_print(program)) == program


def test_a_surface_may_name_its_divisors_after_basis():
    surface = "surface { H, K; H.H = 6, H.K = 0, K.K = 0; euler = 24 }\n"
    assert parse(surface.replace("{ H", "{ basis H")) == parse(surface)


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


def _sections(draw, items: list) -> list:
    """`items` in a drawn order, cut into one or more sections."""
    items = draw(st.permutations(items))
    cuts = sorted(draw(st.sets(st.integers(1, len(items) - 1)))) if len(items) > 1 else []
    return [items[i:j] for i, j in zip([0, *cuts], [*cuts, len(items)])]


def _block(head: str, sections: list, pick) -> str:
    """`head { ... }` over `sections`, lists of items, with each separator
    chosen by `pick` from its options: `;` or line ends between sections,
    `,` with or without a line end between items."""
    text = head + " {" + pick([" ", "", "\n", "; "])
    for i, items in enumerate(sections):
        if i:
            text += pick(["; ", "\n", ";\n", "\n\n  ", " ; ;\n", "  # note\n"])
        text += items[0]
        for item in items[1:]:
            text += pick([", ", ",\n", ",  # note\n  "]) + item
    return text + pick([" }", "\n}", ";}", ";\n}"])


@st.composite
def block_programs(draw):
    """A worksheet with a surface, a lattice and a solve block, twice: with
    `; ` and `, ` as every separator, and with each separator drawn."""
    h, k, kk, e, v, w = (draw(ints) for _ in range(6))
    surface = [["H", "K"], *_sections(draw, [f"H.H = {h}", f"H.K = {k}", f"K.K = {kk}"])]
    surface.insert(draw(st.integers(1, len(surface))), [f"euler = {e}"])
    if draw(st.booleans()):
        surface[0] = ["basis H", "K"]
    lattice = [["basis l", "F"], ["unknown x"]] + draw(st.permutations(
        _sections(draw, ["l.l = x", "l.F = 1", "F.F = 0"])
        + [["class C = l + 2 * F"], ["class G = l - F"]]
    ))
    solve = _sections(draw, [f"l * l == {v}", f"u == {w}"])

    def worksheet(pick):
        return "\n".join([
            "unknown u",
            _block("surface", surface, pick),
            f"assert jet2_c2(H) == tau({h}, {k}, {kk}, {e})",
            _block("lattice L", lattice, pick),
            _block("solve", solve, pick),
            f"assert l * l == {v}",
            f"assert u == {w}",
            f"assert C * G == {v} + 1",
        ]) + "\n"

    return worksheet(lambda options: options[0]), worksheet(
        lambda options: draw(st.sampled_from(options))
    )


@settings(max_examples=150, deadline=None)
@given(block_programs())
def test_every_layout_of_a_block_parses_to_the_same_node(texts):
    plain, drawn = texts
    program = parse(drawn)
    assert program == parse(plain)
    assert parse(pretty_print(program)) == program
    assert evaluate(program).all_passed


def _source(token):
    """The text a `(kind, text, line, col)` token was read from."""
    kind, text = token[0], token[1]
    return {"STRING": f'"{text}"', "NEWLINE": "\n"}.get(kind, text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["let", "x2'", " ", "\t", "\r", "\n", "# note", "(", ")", "[", "]",
             "==", "=", "12", "\u0663", '"cite"', "\u00e9", "+"]
        ),
        max_size=40,
    ).map("".join)
)
def test_tokens_sit_at_their_positions(text):
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    tokens = tokenize(text)
    for token in tokens[:-1]:
        _, _, line, col = token
        assert text.startswith(_source(token), starts[line - 1] + col - 1), token
    kind, _, line, col = tokens[-1]
    assert kind == "EOF"
    assert starts[line - 1] + col - 1 == len(text)


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.stem)
def test_tokens_are_plain_tuples_the_gc_can_untrack(path):
    tokens = tokenize(path.read_text(encoding="utf-8"))
    assert [t for t in tokens if type(t) is not tuple] == []
    assert [t for t in tokens if tuple(map(type, t)) != (str, str, int, int)] == []
    if platform.python_implementation() == "CPython":
        gc.collect()
        assert [t for t in tokens if gc.is_tracked(t)] == []


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.stem)
def test_node_positions_are_plain_tuples_the_gc_can_untrack(path):
    positions = [node.pos for node in _nodes(parse(path.read_text(encoding="utf-8")).statements)]
    assert positions and [p for p in positions if type(p) is not tuple] == []
    assert [p for p in positions if tuple(map(type, p)) != (int, int)] == []
    if platform.python_implementation() == "CPython":
        gc.collect()
        assert [p for p in positions if gc.is_tracked(p)] == []


def _expression(draw, names, depth, inside, atom=False):
    """Source text of an expression over `names`, an atom if `atom`.  Inside
    ( ) or [ ] the gaps between tokens may also break the line and hold a
    comment."""
    gaps = ["", " ", "\t"] + (["\n  ", "  # (note)\n"] if inside else [])

    def gap():
        return draw(st.sampled_from(gaps))

    def sub(inner=inside, atom=False):
        return _expression(draw, names, depth + 1, inner, atom)

    kinds = ["int", "name", "schubert"]
    if depth < 3:
        kinds += ["call", "brace", "paren", "field"] + ([] if atom else ["neg", "binop"])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return draw(st.sampled_from(["0", "7", "042", "12345678901234567890"]))
    if kind == "name":
        return draw(st.sampled_from(names))
    if kind == "schubert":
        parts = draw(st.lists(st.sampled_from(["2", "1", "01"]), max_size=3))
        return "s[" + gap() + f"{gap()},".join(parts) + gap() + "]"
    if kind == "call":
        args = [sub(True) for _ in range(draw(st.integers(1, 2)))]
        rest = f";{gap()}{sub(True)}" if draw(st.booleans()) else ""
        return draw(st.sampled_from(["pdeg", "genus", "hurwitz"])) + f"({', '.join(args)}{rest})"
    if kind == "brace":
        keys = draw(st.lists(st.sampled_from(["d", "nodes", "cusps"]), min_size=1, unique=True))
        return "pluecker{" + ",".join(f"{gap()}{k}{gap()}={gap()}{sub()}" for k in keys) + "}"
    if kind == "paren":
        return f"({gap()}{sub(True)}{gap()})"
    if kind == "neg":
        return f"-{gap()}" + sub(atom=True)
    if kind == "binop":
        return f"{sub()}{gap()}{draw(st.sampled_from('+-*/'))}{gap()}{sub()}"
    # no e, E or e<digits>: after an integer, `.e3` is an exponent, not a field
    return f"{sub(atom=True)}{gap()}.{gap()}" + draw(st.sampled_from(["genus", "m"]))


@st.composite
def spaced_programs(draw):
    text = "grassmannian (2, 4)\nunknown a, b\n"
    names = ["a", "b"]
    for name in ["c", "d", "e"][: draw(st.integers(1, 3))]:
        text += f"let {name} = " + _expression(draw, names, 0, False)
        text += draw(st.sampled_from(["\n", "  # note\n", "\n\n# note\n"]))
        names.append(name)
    return text


def _nodes(x):
    """Every node in `x`, which is a node or a tuple of nodes and values."""
    if isinstance(x, ast._Node):
        yield x
        x = x[:-1]
    if isinstance(x, tuple):
        for item in x:
            yield from _nodes(item)


# what each node's position points at: a name, digits or one character
_WORD = re.compile(r"[A-Za-z_][\w']*|\d+|.", re.DOTALL)
_AT = {
    ast.Name: lambda n: n.name,
    ast.Call: lambda n: n.func,
    ast.IntLit: lambda n: n.value,
    ast.SchubertLit: lambda n: "s",
    ast.BinOp: lambda n: n.op,
    ast.Neg: lambda n: "-",
    ast.FieldAccess: lambda n: ".",
    ast.Let: lambda n: "let",
    ast.UnknownDecl: lambda n: "unknown",
    ast.GrassmannianDecl: lambda n: "grassmannian",
}


@settings(max_examples=300, deadline=None)
@given(spaced_programs())
def test_node_positions_point_at_their_own_source(text):
    # offsets come from the text's line starts, not from the lexer
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    nodes = list(_nodes(parse(text).statements))
    assert {type(n) for n in nodes} <= set(_AT)
    for node in nodes:
        line, col = node.pos
        word = _WORD.match(text, starts[line - 1] + col - 1)[0]
        expected = _AT[type(node)](node)
        assert (int(word) if type(node) is ast.IntLit else word) == expected, node


ALPHABET = "abcsxKL_'0123456789 \t\n#\"()[]{},;.=+-*/$\u00e9\u00b2\u0663"
HEADS = ["let x =", "input y =", "assert", "grassmannian (", "unknown", "surface {",
         "lattice L {", "solve {", ""]
FRAGMENTS = [
    "x", "y", "K", "s[", "pdeg(", "pluecker{", "from", "basis", "class", "canonical",
    "euler", "1", "==", "=", ")", "}", "]", ",", ";", ".", "+", "*", "-", '"c"',
    "\u00e9", "\u00b2", "\u0663",
]
statements = st.builds(
    lambda head, tail: " ".join([head, *tail]),
    st.sampled_from(HEADS),
    st.lists(st.sampled_from(FRAGMENTS), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet=ALPHABET, max_size=60),
        st.lists(statements, max_size=4).map("\n".join),
    )
)
def test_parse_returns_or_raises_a_syntax_error(text):
    try:
        parse(text)
    except WorksheetSyntaxError:
        pass


def _reference(text: str) -> list:
    """`reference_tokenize`'s tokens as `(kind, text, line, col)` tuples."""
    return [(t.kind, t.text, *t.pos) for t in reference_tokenize(text)]


def _lexed(lex, text) -> str:
    """The tokens of `text` with their classes, or the syntax error it raises."""
    try:
        return repr(lex(text))
    except WorksheetSyntaxError as exc:
        return f"WorksheetSyntaxError: {exc}"


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(alphabet=ALPHABET, max_size=60),
        st.lists(statements, max_size=4).map("\n".join),
    )
)
def test_tokenize_matches_the_reference_lexer(text):
    assert _lexed(tokenize, text) == _lexed(_reference, text)


@pytest.mark.parametrize("path", WORKSHEETS, ids=lambda p: p.stem)
def test_tokenize_matches_the_reference_lexer_on_the_shipped_worksheets(path):
    text = path.read_text(encoding="utf-8")
    assert repr(tokenize(text)) == repr(_reference(text))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(["\n", "\n\n", ",", " ", "# note", "(", ")", "[", "]", "{", "}", ";", "x", "1"]),
        max_size=30,
    ).map("".join)
)
def test_no_newline_token_starts_the_text_repeats_or_follows_a_comma(text):
    """The layout rule lives in `tokenize`, so the parser never skips line ends."""
    kinds = [t[0] for t in tokenize(text)]
    assert kinds[0] != "NEWLINE"
    for before, kind in zip(kinds, kinds[1:]):
        assert kind != "NEWLINE" or before not in ("NEWLINE", ","), kinds


SHIPPED_TOKENS = [
    [t for t in tokenize(p.read_text(encoding="utf-8")) if t[0] != "EOF"]
    for p in WORKSHEETS
]


@st.composite
def mutated_worksheets(draw):
    tokens = list(draw(st.sampled_from(SHIPPED_TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(map(_source, tokens))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=mutated_worksheets(), strict=st.booleans())
def test_mutated_worksheets_keep_the_exit_code_contract(text, strict, tmp_path, capsys):
    path = tmp_path / "mutated.ws"
    path.write_text(text, encoding="utf-8")
    code = main(["worksheet", "run", str(path)] + ["--strict"] * strict)
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
