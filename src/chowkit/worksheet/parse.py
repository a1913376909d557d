"""Lexer and recursive-descent parser for `.ws` worksheet files.

The grammar is line oriented: one statement per line, `#` comments,
block constructs (`surface`, `lattice`, `solve`) in braces where both
newlines and `;` separate sections and `,` separates items inside a
section.  See the grammar section of the README.

`tokenize` is one `finditer` pass of one regular expression, whose last
alternative takes any character no token starts with and reports it.
The parser keeps the token it is at in `cur`, and checks scope as it
reads: every name is bound once (by `let`, `input`,
`unknown`, a surface basis, a lattice, its `basis`, `unknown` and
`class` items, and `canonical`, which binds `K`) and is in scope from the
end of its binding on.  A worksheet that parses therefore uses no
undeclared name and calls no unknown function.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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
    Pos,
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

# One named group per token kind; blanks and comments match without a group.
# `==` is tried before `=`.  `[^\W\d]` also admits numerals such as `²`, so a
# name that does not start with an ASCII letter or `_` is an UNAME, and
# `tokenize` checks that it starts with a letter.  BAD is any other character.
_TOKEN = re.compile(
    r"""
      [ \t\r]+
    | \#[^\n]*
    | (?P<NAME>    [A-Za-z_][\w']* )
    | (?P<INT>     \d+ )
    | (?P<PUNCT>   == | [{},;.=+\-*/] )
    | (?P<NEWLINE> \n )
    | (?P<OPEN>    [(\[] )
    | (?P<CLOSE>   [)\]] )
    | (?P<STRING>  "[^"\n]*" )
    | (?P<UNAME>   [^\W\d][\w']* )
    | (?P<BAD>     . )
    """,
    re.VERBOSE | re.DOTALL,
)


class WorksheetSyntaxError(WorksheetError):
    """A lexical, grammar or scope error, found before evaluation starts."""


class Token(NamedTuple):
    kind: str  # NAME INT STRING NEWLINE EOF or a punctuation literal
    text: str
    pos: Pos


def tokenize(text: str):
    # tokens and positions are built as plain tuples of their class, which
    # skips the named tuples' Python-level __new__
    new = tuple.__new__
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    depth = 0  # inside ( ) or [ ]: newlines are plain whitespace
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blanks or a comment
            continue
        col = m.start() - line_start + 1
        if kind == "NAME" or kind == "INT":
            append(new(Token, (kind, m[0], new(Pos, (line, col)))))
        elif kind == "PUNCT":
            p = m[0]
            append(new(Token, (p, p, new(Pos, (line, col)))))
        elif kind == "NEWLINE":
            if depth == 0 and tokens and tokens[-1].kind != "NEWLINE":
                append(new(Token, ("NEWLINE", "\n", new(Pos, (line, col)))))
            line, line_start = line + 1, m.end()
        elif kind == "OPEN" or kind == "CLOSE":
            depth = depth + 1 if kind == "OPEN" else max(0, depth - 1)
            p = m[0]
            append(new(Token, (p, p, new(Pos, (line, col)))))
        elif kind == "STRING":
            append(new(Token, ("STRING", m[0][1:-1], new(Pos, (line, col)))))
        elif kind == "UNAME" and m[0][0].isalpha():
            append(new(Token, ("NAME", m[0], new(Pos, (line, col)))))
        else:
            c = m[0][0]
            if c == '"':
                raise WorksheetSyntaxError("unterminated string literal", Pos(line, col))
            raise WorksheetSyntaxError(f"unexpected character {c!r}", Pos(line, col))
    append(new(Token, ("EOF", "", new(Pos, (line, len(text) - line_start + 1)))))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]  # the token at `i`; only `advance` moves them
        self.depth = 0
        self.scope = set()  # names bound so far; each is bound once

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "EOF":
            self.i += 1
            self.cur = self.tokens[self.i]
        return t

    def expect(self, kind: str, hint: str | None = None) -> Token:
        t = self.cur
        if t.kind != kind:
            what = hint or f"expected {kind!r}"
            got = "end of input" if t.kind == "EOF" else repr(t.text)
            raise WorksheetSyntaxError(f"{what}, got {got}", t.pos)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "NAME" and self.cur.text == word

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise WorksheetSyntaxError(
                f"expected keyword {word!r}, got {self.cur.text!r}", self.cur.pos
            )
        return self.advance()

    def nest(self, t: Token):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise WorksheetSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", t.pos)

    def skip_newlines(self):
        while self.cur.kind == "NEWLINE":
            self.advance()

    # -- program ------------------------------------------------------

    def program(self) -> WorksheetProgram:
        stmts = []
        self.skip_newlines()
        while self.cur.kind != "EOF":
            stmts.append(self.statement())
            if self.cur.kind != "EOF":
                self.expect("NEWLINE", "expected end of statement")
                self.skip_newlines()
        return WorksheetProgram(tuple(stmts))

    def statement(self):
        t = self.cur
        if self.at_keyword("let"):
            self.advance()
            return Let(*self.binding("binding name", t.pos), pos=t.pos)
        if self.at_keyword("input"):
            self.advance()
            name, expr = self.binding("input name", t.pos)
            self.expect_keyword("from")
            cite = self.expect("STRING", "expected citation string").text
            return Input(name, expr, cite, pos=t.pos)
        if self.at_keyword("assert"):
            self.advance()
            left = self.expr_required()
            self.expect("==", "expected '==' in assertion")
            return Assert(left, self.expr_required(), pos=t.pos)
        if self.at_keyword("grassmannian"):
            self.advance()
            self.expect("(", "expected '(k, n)' after 'grassmannian'")
            k = int(self.expect("INT", "expected subspace dimension k").text)
            self.expect(",")
            n = int(self.expect("INT", "expected ambient dimension n").text)
            self.expect(")")
            return GrassmannianDecl(k, n, pos=t.pos)
        if self.at_keyword("unknown"):
            self.advance()
            names = self.declare(self.name_list("unknown name"), t.pos)
            return UnknownDecl(names, pos=t.pos)
        if self.at_keyword("surface"):
            self.advance()
            return self.surface_block(t.pos)
        if self.at_keyword("lattice"):
            self.advance()
            name = self.ident("lattice name")
            self.declare([name], t.pos)
            return self.lattice_block(name, t.pos)
        if self.at_keyword("solve"):
            self.advance()
            return self.solve_block(t.pos)
        raise WorksheetSyntaxError(
            "expected a statement (let, input, assert, grassmannian, surface,"
            f" lattice, solve, unknown), got {t.text!r}",
            t.pos,
        )

    def ident(self, what: str) -> str:
        t = self.cur
        if t.kind != "NAME" or t.text in KEYWORDS:
            raise WorksheetSyntaxError(f"expected {what}, got {t.text!r}", t.pos)
        self.advance()
        return t.text

    def declare(self, names, pos: Pos) -> tuple:
        """Bring `names` into scope for the rest of the worksheet."""
        for name in names:
            if name in self.scope:
                raise WorksheetSyntaxError(f"duplicate binding of {name!r}", pos)
            self.scope.add(name)
        return tuple(names)

    def binding(self, what: str, pos: Pos):
        """Read `NAME = EXPR`; NAME is in scope after EXPR, not inside it."""
        name = self.ident(what)
        self.expect("=", f"expected '=' after {what}")
        expr = self.expr_required()
        self.declare([name], pos)
        return name, expr

    def comma_list(self, read) -> list:
        """Read one or more items with `read`, separated by `,`."""
        items = [read()]
        while self.cur.kind == ",":
            self.advance()
            items.append(read())
        return items

    def name_list(self, what: str) -> list:
        return self.comma_list(lambda: self.ident(what))

    # -- blocks -------------------------------------------------------

    def block_sep(self):
        """Skip `;` / newline separators inside a brace block."""
        seen = False
        while self.cur.kind in (";", "NEWLINE"):
            self.advance()
            seen = True
        return seen

    def surface_block(self, pos: Pos) -> SurfaceDecl:
        self.expect("{", "expected '{' after 'surface'")
        self.block_sep()
        gram = []
        euler = None
        # first section: comma-separated divisor names (optional 'basis')
        if self.at_keyword("basis"):
            self.advance()
        basis = self.name_list("divisor name")
        while self.block_sep() and self.cur.kind != "}":
            if self.at_keyword("euler"):
                self.advance()
                self.expect("=", "expected '=' after 'euler'")
                euler = self.expr_required()
            else:
                gram += self.comma_list(self.gram_entry)
        self.expect("}", "expected '}' closing surface block")
        if euler is None:
            raise WorksheetSyntaxError("surface block must declare euler = ...", pos)
        # the divisors are bound once the block is read, as evaluation binds them
        return SurfaceDecl(self.declare(basis, pos), tuple(gram), euler, pos=pos)

    def gram_entry(self) -> GramEntry:
        t = self.cur
        a = self.ident("divisor name")
        self.expect(".", "expected '.' in intersection entry")
        b = self.ident("divisor name")
        self.expect("=", "expected '=' in intersection entry")
        return GramEntry(a, b, self.expr_required(), pos=t.pos)

    def lattice_block(self, name: str, pos: Pos) -> LatticeDecl:
        self.expect("{", "expected '{' after lattice name")
        items = []
        self.block_sep()
        while self.cur.kind != "}":
            t = self.cur
            if self.at_keyword("basis"):
                self.advance()
                names = self.declare(self.name_list("class name"), t.pos)
                items.append(BasisDecl(names, pos=t.pos))
            elif self.at_keyword("unknown"):
                self.advance()
                names = self.declare(self.name_list("unknown name"), t.pos)
                items.append(UnknownDecl(names, pos=t.pos))
            elif self.at_keyword("class"):
                self.advance()
                items.append(ClassDecl(*self.binding("class name", t.pos), pos=t.pos))
            elif self.at_keyword("canonical"):
                self.advance()
                self.expect("=", "expected '=' after 'canonical'")
                items.append(CanonicalDecl(self.expr_required(), pos=t.pos))
                self.declare(["K"], t.pos)
            else:
                items += self.comma_list(self.gram_entry)
            if not self.block_sep() and self.cur.kind != "}":
                raise WorksheetSyntaxError(
                    f"expected ';' or '}}' in lattice block, got {self.cur.text!r}",
                    self.cur.pos,
                )
        self.expect("}")
        return LatticeDecl(name, tuple(items), pos=pos)

    def solve_block(self, pos: Pos) -> SolveBlock:
        self.expect("{", "expected '{' after 'solve'")
        constraints = []
        self.block_sep()
        while self.cur.kind != "}":
            left = self.expr_required()
            self.expect("==", "expected '==' in solve constraint")
            right = self.expr_required()
            constraints.append((left, right))
            if self.cur.kind == ",":
                self.advance()
                self.block_sep()
            elif not self.block_sep() and self.cur.kind != "}":
                raise WorksheetSyntaxError(
                    f"expected ';' or '}}' in solve block, got {self.cur.text!r}",
                    self.cur.pos,
                )
        self.expect("}")
        if not constraints:
            raise WorksheetSyntaxError("empty solve block", pos)
        return SolveBlock(tuple(constraints), pos=pos)

    # -- expressions --------------------------------------------------

    def expr_required(self):
        if self.cur.kind in ("NEWLINE", "EOF"):
            raise WorksheetSyntaxError("missing expression", self.cur.pos)
        return self.expr()

    def expr(self):
        depth = self.depth
        self.nest(self.cur)
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            self.nest(op)
            node = BinOp(op.kind, node, self.term(), pos=op.pos)
        self.depth = depth
        return node

    def term(self):
        depth = self.depth
        node = self.factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            self.nest(op)
            node = BinOp(op.kind, node, self.factor(), pos=op.pos)
        self.depth = depth
        return node

    def factor(self):
        if self.cur.kind == "-":
            t = self.advance()
            return Neg(self.atom(), pos=t.pos)
        return self.atom()

    def atom(self):
        """A literal, name, call or parenthesized expression, then its `.field`s."""
        t = self.cur
        if t.kind == "INT":
            self.advance()
            node = IntLit(int(t.text), pos=t.pos)
        elif t.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "expected closing ')'")
        elif t.kind != "NAME":
            raise WorksheetSyntaxError(
                f"expected an expression, got {t.text!r}"
                if t.kind != "EOF"
                else "missing expression",
                t.pos,
            )
        elif t.text == "s" and self.tokens[self.i + 1].kind == "[":
            self.advance()
            self.advance()
            parts = []
            if self.cur.kind != "]":  # s[] is the unit class
                parts = self.comma_list(self.partition_part)
            self.expect("]", "expected ']' closing Schubert class")
            node = SchubertLit(tuple(parts), pos=t.pos)
        elif t.text in KEYWORDS:
            raise WorksheetSyntaxError(
                f"keyword {t.text!r} cannot be used in an expression", t.pos
            )
        else:
            self.advance()
            if self.cur.kind in ("(", "{"):
                if t.text not in BUILTINS:
                    raise WorksheetSyntaxError(f"unknown function {t.text!r}", t.pos)
                node = self.call(t) if self.cur.kind == "(" else self.brace_call(t)
            elif t.text in self.scope:
                node = Name(t.text, pos=t.pos)
            else:
                raise WorksheetSyntaxError(f"use of undeclared name {t.text!r}", t.pos)
        while self.cur.kind == ".":
            dot = self.advance()
            self.nest(dot)
            node = FieldAccess(node, self.ident("field name"), pos=dot.pos)
        return node

    def partition_part(self) -> int:
        return int(self.expect("INT", "expected partition part").text)

    def call(self, fname: Token) -> Call:
        self.expect("(")
        args, args2 = [], None
        if self.cur.kind != ")":
            args = self.comma_list(self.expr)
            if self.cur.kind == ";":
                self.advance()
                args2 = self.comma_list(self.expr)
        self.expect(")", "expected ')' closing call")
        return Call(
            fname.text,
            tuple(args),
            tuple(args2) if args2 is not None else None,
            (),
            pos=fname.pos,
        )

    def brace_call(self, fname: Token) -> Call:
        self.expect("{")
        kwargs = {}

        def argument():
            t = self.cur
            key = self.ident("argument name")
            if key in kwargs:
                raise WorksheetSyntaxError(f"duplicate argument {key!r}", t.pos)
            self.expect("=", "expected '=' after argument name")
            kwargs[key] = self.expr()

        self.comma_list(argument)
        self.expect("}", "expected '}' closing arguments")
        return Call(fname.text, (), None, tuple(kwargs.items()), pos=fname.pos)


def parse(text: str) -> WorksheetProgram:
    return _Parser(tokenize(text)).program()


def parse_expression(text: str):
    """Read one expression; only blank lines and comments may follow it."""
    parser = _Parser(tokenize(text))
    expr = parser.expr_required()
    parser.skip_newlines()
    if parser.cur.kind != "EOF":
        raise WorksheetSyntaxError(f"trailing input {parser.cur.text!r}", parser.cur.pos)
    return expr


__all__ = ["parse", "parse_expression", "pretty_print", "tokenize", "WorksheetSyntaxError"]
