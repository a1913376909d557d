"""Lexer and recursive-descent parser for `.ws` worksheet files.

The grammar is line oriented: one statement per line, `#` comments, and
the brace blocks `surface`, `lattice` and `solve`, all read by `block`:
`;` or a newline ends a section, and `,` separates the items of a section
and may end a line.  A surface declares `euler` once.  See the README.

`tokenize` is one `finditer` pass of one regular expression: each match
is one token together with the blanks and comments before it, and the
last alternatives are the end of the text and any character no token
starts with, which is reported.  A token is a plain tuple `(kind, text,
line, col)`, where `kind` is NAME, INT, STRING, NEWLINE, EOF or the
punctuation itself.  It holds only `str` and `int`, so the cyclic GC
untracks it.

The parser keeps the token it is at in `cur`.  A node's or an error's
position is its token's `(line, col)` slice, `t[2:]`.  The nodes it builds
most (`IntLit`, `Name`, `BinOp`, `Neg`) are made positionally with
`tuple.__new__`, which skips the named tuples' Python-level `__new__`.
It checks scope as it reads: every name is bound once (by `let`, `input`,
`unknown`, a surface basis, a lattice, its `basis`, `unknown` and
`class` items, and `canonical`, which binds `K`) and is in scope from the
end of its binding on.  A worksheet that parses therefore uses no
undeclared name and calls no unknown function.
"""

from __future__ import annotations

import re
import sys

from .ast import (
    Assert,
    BasisDecl,
    BinOp,
    Call,
    CanonicalDecl,
    ClassDecl,
    FieldAccess,
    GramEntry,
    GrassmannianDecl,
    Input,
    IntLit,
    Let,
    LatticeDecl,
    Name,
    Neg,
    SchubertLit,
    SolveBlock,
    SurfaceDecl,
    UnknownDecl,
    WorksheetError,
    WorksheetProgram,
    pretty_print,
)
from .builtins import BUILTINS

KEYWORDS = {
    "let",
    "input",
    "from",
    "assert",
    "grassmannian",
    "surface",
    "lattice",
    "solve",
    "basis",
    "unknown",
    "class",
    "canonical",
    "euler",
}

# Nesting levels allowed in one expression, which parsing and evaluation recurse
# through: each (sub-)expression, field access and chained operator is one.
MAX_DEPTH = 100


def max_digits() -> int:
    """The longest integer literal, in digits, or 0 for no cap.

    It is Python's own limit on `int(str)`, which PYTHONINTMAXSTRDIGITS and
    `sys.set_int_max_str_digits` can move, so a longer literal is a positioned
    syntax error, not `int()`'s ValueError.  Where Python has no such limit
    (3.10 before 3.10.7), it is 4300, Python's default.
    """
    limit = getattr(sys, "get_int_max_str_digits", None)
    return 4300 if limit is None else limit()


# One named group per token kind, after a prefix of blanks and comments.
# `==` is tried before `=`.  `[^\W\d]` also admits numerals such as `²`, so a
# name that does not start with an ASCII letter or `_` is an UNAME, and
# `tokenize` checks that it starts with a letter.  BAD is any other character
# and END the end of the text.
_TOKEN = re.compile(
    r"""
    (?: [ \t\r]+ | \#[^\n]* )*
    (?:
      (?P<NAME>    [A-Za-z_][\w']* )
    | (?P<INT>     \d+ )
    | (?P<PUNCT>   == | [{},;.=+\-*/] )
    | (?P<NEWLINE> \n )
    | (?P<OPEN>    [(\[] )
    | (?P<CLOSE>   [)\]] )
    | (?P<STRING>  "[^"\n]*" )
    | (?P<UNAME>   [^\W\d][\w']* )
    | (?P<BAD>     . )
    | (?P<END>     \Z )
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# the `e3` of `4.e3` and the `e` of `4.e+3`: an exponent, not a field name
_EXPONENT = re.compile(r"[eE][0-9]*")

_new = tuple.__new__


class WorksheetSyntaxError(WorksheetError):
    """A lexical, grammar or scope error, found before evaluation starts."""


def tokenize(text: str) -> list:
    """The tokens of `text`, each `(kind, text, line, col)`, ending with EOF."""
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    depth = 0  # inside ( ) or [ ]: newlines are plain whitespace
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        col = start - line_start + 1
        if kind == "NAME" or kind == "INT":
            append((kind, m[kind], line, col))
        elif kind == "PUNCT":
            p = m[kind]
            append((p, p, line, col))
        elif kind == "NEWLINE":
            if depth == 0 and tokens and tokens[-1][0] != "NEWLINE":
                append(("NEWLINE", "\n", line, col))
            line, line_start = line + 1, start + 1
        elif kind == "OPEN" or kind == "CLOSE":
            depth = depth + 1 if kind == "OPEN" else max(0, depth - 1)
            p = m[kind]
            append((p, p, line, col))
        elif kind == "STRING":
            append(("STRING", m[kind][1:-1], line, col))
        elif kind == "END":
            # after blanks or a comment that end the text, `finditer` would
            # also yield the empty match at the end
            append(("EOF", "", line, col))
            break
        elif kind == "UNAME" and text[start].isalpha():
            append(("NAME", m[kind], line, col))
        else:
            c = text[start]
            if c == '"':
                raise WorksheetSyntaxError("unterminated string literal", (line, col))
            raise WorksheetSyntaxError(f"unexpected character {c!r}", (line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]  # the token at `i`; only `advance` moves them
        self.depth = 0
        self.scope = set()  # names bound so far; each is bound once
        self.max_digits = max_digits()

    def advance(self) -> tuple:
        t = self.cur
        if t[0] != "EOF":
            self.i += 1
            self.cur = self.tokens[self.i]
        return t

    def unexpected(self, what: str) -> WorksheetSyntaxError:
        """The error for `what` where the current token stands."""
        t = self.cur
        got = "end of input" if t[0] == "EOF" else repr(t[1])
        return WorksheetSyntaxError(f"{what}, got {got}", t[2:])

    def expect(self, kind: str, hint: str | None = None) -> tuple:
        if self.cur[0] != kind:
            raise self.unexpected(hint or f"expected {kind!r}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.cur[0] == "NAME" and self.cur[1] == word

    def expect_keyword(self, word: str) -> tuple:
        if not self.at_keyword(word):
            raise self.unexpected(f"expected keyword {word!r}")
        return self.advance()

    def nest(self, t: tuple):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise WorksheetSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", t[2:])

    def skip_newlines(self):
        while self.cur[0] == "NEWLINE":
            self.advance()

    def integer(self, t: tuple) -> int:
        """The value of the INT token `t`, at most `max_digits()` digits long."""
        cap = self.max_digits
        if cap and len(t[1]) > cap:
            raise WorksheetSyntaxError(f"integer literal longer than {cap} digits", t[2:])
        return int(t[1])

    # -- program ------------------------------------------------------

    def program(self) -> WorksheetProgram:
        stmts = []
        self.skip_newlines()
        while self.cur[0] != "EOF":
            stmts.append(self.statement())
            if self.cur[0] != "EOF":
                self.expect("NEWLINE", "expected end of statement")
                self.skip_newlines()
        return WorksheetProgram(tuple(stmts))

    def statement(self):
        t = self.cur
        pos = t[2:]
        if self.at_keyword("let"):
            self.advance()
            return Let(*self.binding("binding name", pos), pos=pos)
        if self.at_keyword("input"):
            self.advance()
            name, expr = self.binding("input name", pos)
            self.expect_keyword("from")
            cite = self.expect("STRING", "expected citation string")[1]
            return Input(name, expr, cite, pos=pos)
        if self.at_keyword("assert"):
            self.advance()
            left = self.expr_required()
            self.expect("==", "expected '==' in assertion")
            return Assert(left, self.expr_required(), pos=pos)
        if self.at_keyword("grassmannian"):
            self.advance()
            self.expect("(", "expected '(k, n)' after 'grassmannian'")
            k = self.integer(self.expect("INT", "expected subspace dimension k"))
            self.expect(",")
            n = self.integer(self.expect("INT", "expected ambient dimension n"))
            self.expect(")")
            return GrassmannianDecl(k, n, pos=pos)
        if self.at_keyword("unknown"):
            self.advance()
            names = self.declare(self.name_list("unknown name"), pos)
            return UnknownDecl(names, pos=pos)
        if self.at_keyword("surface"):
            self.advance()
            return self.surface_block(pos)
        if self.at_keyword("lattice"):
            self.advance()
            name = self.ident("lattice name")
            self.declare([name], pos)
            return self.lattice_block(name, pos)
        if self.at_keyword("solve"):
            self.advance()
            return self.solve_block(pos)
        raise self.unexpected(
            "expected a statement (let, input, assert, grassmannian, surface,"
            " lattice, solve, unknown)"
        )

    def ident(self, what: str) -> str:
        t = self.cur
        if t[0] != "NAME" or t[1] in KEYWORDS:
            raise self.unexpected(f"expected {what}")
        self.advance()
        return t[1]

    def declare(self, names, pos: tuple) -> tuple:
        """Bring `names` into scope for the rest of the worksheet."""
        for name in names:
            if name in self.scope:
                raise WorksheetSyntaxError(f"duplicate binding of {name!r}", pos)
            self.scope.add(name)
        return tuple(names)

    def binding(self, what: str, pos: tuple):
        """Read `NAME = EXPR`; NAME is in scope after EXPR, not inside it."""
        name = self.ident(what)
        self.expect("=", f"expected '=' after {what}")
        expr = self.expr_required()
        self.declare([name], pos)
        return name, expr

    def comma_list(self, read, lines: bool = False) -> list:
        """Read one or more items with `read`, separated by `,`; where `lines`,
        as in a block, a `,` may end a line."""
        items = [read()]
        while self.cur[0] == ",":
            self.advance()
            if lines and self.cur[0] == "NEWLINE":
                self.advance()  # one token however many lines end here
            items.append(read())
        return items

    def name_list(self, what: str, lines: bool = False) -> list:
        return self.comma_list(lambda: self.ident(what), lines)

    # -- blocks -------------------------------------------------------

    def block(self, what: str, section):
        """Read `{ ... }`, calling `section` for each section: `;` or a newline
        ends a section, and `,` separates its items (`comma_list` with `lines`)."""
        self.expect("{", f"expected '{{' opening {what} block")
        fresh = True  # after `{`, `;` or a newline, where a section may start
        while self.cur[0] != "}" and self.cur[0] != "EOF":
            if self.cur[0] == ";" or self.cur[0] == "NEWLINE":
                self.advance()
                fresh = True
            elif fresh:
                section()
                fresh = False
            else:
                break
        self.expect("}", f"expected ';' or '}}' in {what} block")

    def surface_block(self, pos: tuple) -> SurfaceDecl:
        basis, gram, euler = [], [], []

        def section():
            if not basis:  # the first section names the divisors
                if self.at_keyword("basis"):
                    self.advance()
                basis.extend(self.name_list("divisor name", True))
            elif self.at_keyword("euler"):
                if euler:
                    raise WorksheetSyntaxError("euler declared twice", self.cur[2:])
                self.advance()
                self.expect("=", "expected '=' after 'euler'")
                euler.append(self.expr_required())
            else:
                gram.extend(self.comma_list(lambda: self.gram_entry("divisor name"), True))

        self.block("surface", section)
        if not euler:
            raise WorksheetSyntaxError("surface block must declare euler = ...", pos)
        # the divisors are bound once the block is read, as evaluation binds them
        return SurfaceDecl(self.declare(basis, pos), tuple(gram), euler[0], pos=pos)

    def gram_entry(self, what: str) -> GramEntry:
        """`a.b = EXPR`, with `a` and `b` each a `what`."""
        pos = self.cur[2:]
        a = self.ident(what)
        self.expect(".", "expected '.' in intersection entry")
        b = self.ident(what)
        self.expect("=", "expected '=' in intersection entry")
        return GramEntry(a, b, self.expr_required(), pos=pos)

    def lattice_block(self, name: str, pos: tuple) -> LatticeDecl:
        items = []

        def section():
            at = self.cur[2:]
            if self.at_keyword("basis"):
                self.advance()
                names = self.declare(self.name_list("class name", True), at)
                items.append(BasisDecl(names, pos=at))
            elif self.at_keyword("unknown"):
                self.advance()
                names = self.declare(self.name_list("unknown name", True), at)
                items.append(UnknownDecl(names, pos=at))
            elif self.at_keyword("class"):
                self.advance()
                items.append(ClassDecl(*self.binding("class name", at), pos=at))
            elif self.at_keyword("canonical"):
                self.advance()
                self.expect("=", "expected '=' after 'canonical'")
                items.append(CanonicalDecl(self.expr_required(), pos=at))
                self.declare(["K"], at)
            else:
                items.extend(self.comma_list(lambda: self.gram_entry("class name"), True))

        self.block("lattice", section)
        return LatticeDecl(name, tuple(items), pos=pos)

    def solve_block(self, pos: tuple) -> SolveBlock:
        constraints = []

        def constraint():
            left = self.expr_required()
            self.expect("==", "expected '==' in solve constraint")
            constraints.append((left, self.expr_required()))

        self.block("solve", lambda: self.comma_list(constraint, True))
        if not constraints:
            raise WorksheetSyntaxError("empty solve block", pos)
        return SolveBlock(tuple(constraints), pos=pos)

    # -- expressions --------------------------------------------------

    def expr_required(self):
        if self.cur[0] in ("NEWLINE", "EOF"):
            raise WorksheetSyntaxError("missing expression", self.cur[2:])
        return self.expr()

    def expr(self):
        depth = self.depth
        self.nest(self.cur)
        node = self.term()
        while self.cur[0] in ("+", "-"):
            op = self.advance()
            self.nest(op)
            node = _new(BinOp, (op[0], node, self.term(), op[2:]))
        self.depth = depth
        return node

    def term(self):
        """Products and quotients of atoms, each one possibly negated."""
        depth = self.depth
        t = self.cur
        node = self.atom() if t[0] != "-" else self.negated(t)
        while self.cur[0] in ("*", "/"):
            op = self.advance()
            self.nest(op)
            t = self.cur
            right = self.atom() if t[0] != "-" else self.negated(t)
            node = _new(BinOp, (op[0], node, right, op[2:]))
        self.depth = depth
        return node

    def negated(self, minus: tuple):
        self.advance()
        return _new(Neg, (self.atom(), minus[2:]))

    def atom(self):
        """A literal, name, call or parenthesized expression, then its `.field`s."""
        t = self.cur
        kind, text = t[0], t[1]
        if kind == "INT":
            self.advance()
            node = _new(IntLit, (self.integer(t), t[2:]))
        elif kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "expected closing ')'")
        elif kind != "NAME":
            raise WorksheetSyntaxError(
                f"expected an expression, got {text!r}"
                if kind != "EOF"
                else "missing expression",
                t[2:],
            )
        elif text == "s" and self.tokens[self.i + 1][0] == "[":
            self.advance()
            self.advance()
            parts = []
            if self.cur[0] != "]":  # s[] is the unit class
                parts = self.comma_list(self.partition_part)
            self.expect("]", "expected ']' closing Schubert class")
            node = SchubertLit(tuple(parts), pos=t[2:])
        elif text in KEYWORDS:
            raise WorksheetSyntaxError(
                f"keyword {text!r} cannot be used in an expression", t[2:]
            )
        else:
            self.advance()
            if self.cur[0] in ("(", "{"):
                if text not in BUILTINS:
                    raise WorksheetSyntaxError(f"unknown function {text!r}", t[2:])
                node = self.call(t) if self.cur[0] == "(" else self.brace_call(t)
            elif text in self.scope:
                node = _new(Name, (text, t[2:]))
            else:
                raise WorksheetSyntaxError(f"use of undeclared name {text!r}", t[2:])
        if kind == "INT" and self.cur[0] == ".":
            after = self.tokens[self.i + 1]
            if after[0] != "NAME" or _EXPONENT.fullmatch(after[1]):
                # 4.0, 0.5, 4. or 4.e3: a decimal, where a field name would be an error
                raise WorksheetSyntaxError("numbers are exact, such as 4 or 9/2, and have no decimal point", t[2:])
        while self.cur[0] == ".":
            dot = self.advance()
            self.nest(dot)
            node = FieldAccess(node, self.ident("field name"), pos=dot[2:])
        return node

    def partition_part(self) -> int:
        return self.integer(self.expect("INT", "expected partition part"))

    def call(self, fname: tuple) -> Call:
        self.expect("(")
        args, args2 = [], None
        if self.cur[0] != ")":
            args = self.comma_list(self.expr)
            if self.cur[0] == ";":
                self.advance()
                args2 = self.comma_list(self.expr)
        self.expect(")", "expected ')' closing call")
        return Call(
            fname[1],
            tuple(args),
            tuple(args2) if args2 is not None else None,
            (),
            pos=fname[2:],
        )

    def brace_call(self, fname: tuple) -> Call:
        self.expect("{")
        kwargs = {}

        def argument():
            t = self.cur
            key = self.ident("argument name")
            if key in kwargs:
                raise WorksheetSyntaxError(f"duplicate argument {key!r}", t[2:])
            self.expect("=", "expected '=' after argument name")
            kwargs[key] = self.expr()

        self.comma_list(argument)
        self.expect("}", "expected '}' closing arguments")
        return Call(fname[1], (), None, tuple(kwargs.items()), pos=fname[2:])


def parse(text: str) -> WorksheetProgram:
    return _Parser(tokenize(text)).program()


def parse_expression(text: str):
    """Read one expression; only blank lines and comments may follow it."""
    parser = _Parser(tokenize(text))
    expr = parser.expr_required()
    parser.skip_newlines()
    t = parser.cur
    if t[0] != "EOF":
        raise WorksheetSyntaxError(f"trailing input {t[1]!r}", t[2:])
    return expr


__all__ = ["parse", "parse_expression", "pretty_print", "tokenize", "WorksheetSyntaxError"]
