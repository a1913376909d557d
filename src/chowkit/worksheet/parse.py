"""Lexer and recursive-descent parser for `.ws` worksheet files.

The grammar is line oriented: one statement per line, `#` comments,
block constructs (`surface`, `lattice`, `solve`) in braces where both
newlines and `;` separate sections and `,` separates items inside a
section.  See the grammar section of the README.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_PUNCT = ["==", "(", ")", "{", "}", "[", "]", ",", ";", ".", "=", "+", "-", "*", "/"]


class WorksheetSyntaxError(ValueError):
    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # NAME INT STRING NEWLINE EOF or a punctuation literal
    text: str
    pos: Pos


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    depth = 0  # inside ( ) or [ ]: newlines are plain whitespace
    n = len(text)
    while i < n:
        c = text[i]
        pos = Pos(line, col)
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            if depth == 0 and tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(Token("NEWLINE", "\n", pos))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise WorksheetSyntaxError("unterminated string literal", pos)
                j += 1
            if j >= n:
                raise WorksheetSyntaxError("unterminated string literal", pos)
            tokens.append(Token("STRING", text[i + 1 : j], pos))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("NAME", text[i:j], pos))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                if p in "([":
                    depth += 1
                elif p in ")]":
                    depth = max(0, depth - 1)
                tokens.append(Token(p, p, pos))
                col += len(p)
                i += len(p)
                break
        else:
            raise WorksheetSyntaxError(f"unexpected character {c!r}", pos)
    tokens.append(Token("EOF", "", Pos(line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str, hint: str | None = None) -> Token:
        t = self.cur
        if t.kind != kind:
            what = hint or f"expected {kind!r}"
            got = "end of input" if t.kind == "EOF" else repr(t.text)
            raise WorksheetSyntaxError(f"{what}, got {got}", t.pos)
        return self.advance()

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

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
        while self.at("NEWLINE"):
            self.advance()

    # -- program ------------------------------------------------------

    def program(self) -> WorksheetProgram:
        stmts = []
        self.skip_newlines()
        while not self.at("EOF"):
            stmts.append(self.statement())
            if not self.at("EOF"):
                self.expect("NEWLINE", "expected end of statement")
                self.skip_newlines()
        return WorksheetProgram(tuple(stmts))

    def statement(self):
        t = self.cur
        if self.at_keyword("let"):
            self.advance()
            name = self.ident("binding name")
            self.expect("=", "expected '=' after binding name")
            return Let(name, self.expr_required(), pos=t.pos)
        if self.at_keyword("input"):
            self.advance()
            name = self.ident("input name")
            self.expect("=", "expected '=' after input name")
            expr = self.expr_required()
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
            return UnknownDecl(tuple(self.name_list("unknown name")), pos=t.pos)
        if self.at_keyword("surface"):
            self.advance()
            return self.surface_block(t.pos)
        if self.at_keyword("lattice"):
            self.advance()
            name = self.ident("lattice name")
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

    def name_list(self, what: str):
        names = [self.ident(what)]
        while self.at(","):
            self.advance()
            names.append(self.ident(what))
        return names

    # -- blocks -------------------------------------------------------

    def block_sep(self):
        """Skip `;` / newline separators inside a brace block."""
        seen = False
        while self.at(";") or self.at("NEWLINE"):
            self.advance()
            seen = True
        return seen

    def surface_block(self, pos: Pos) -> SurfaceDecl:
        self.expect("{", "expected '{' after 'surface'")
        self.block_sep()
        basis = []
        gram = []
        euler = None
        # first section: comma-separated divisor names (optional 'basis')
        if self.at_keyword("basis"):
            self.advance()
        basis = self.name_list("divisor name")
        while True:
            if not self.block_sep():
                break
            if self.at("}"):
                break
            if self.at_keyword("euler"):
                self.advance()
                self.expect("=", "expected '=' after 'euler'")
                euler = self.expr_required()
                continue
            while True:
                gram.append(self.gram_entry())
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect("}", "expected '}' closing surface block")
        if euler is None:
            raise WorksheetSyntaxError("surface block must declare euler = ...", pos)
        return SurfaceDecl(tuple(basis), tuple(gram), euler, pos=pos)

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
        while not self.at("}"):
            t = self.cur
            if self.at_keyword("basis"):
                self.advance()
                items.append(BasisDecl(tuple(self.name_list("class name")), pos=t.pos))
            elif self.at_keyword("unknown"):
                self.advance()
                items.append(
                    UnknownDecl(tuple(self.name_list("unknown name")), pos=t.pos)
                )
            elif self.at_keyword("class"):
                self.advance()
                cname = self.ident("class name")
                self.expect("=", "expected '=' after class name")
                items.append(ClassDecl(cname, self.expr_required(), pos=t.pos))
            elif self.at_keyword("canonical"):
                self.advance()
                self.expect("=", "expected '=' after 'canonical'")
                items.append(CanonicalDecl(self.expr_required(), pos=t.pos))
            else:
                while True:
                    items.append(self.gram_entry())
                    if self.at(","):
                        self.advance()
                    else:
                        break
            if not self.block_sep() and not self.at("}"):
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
        while not self.at("}"):
            left = self.expr_required()
            self.expect("==", "expected '==' in solve constraint")
            right = self.expr_required()
            constraints.append((left, right))
            if self.at(","):
                self.advance()
                self.block_sep()
            elif not self.block_sep() and not self.at("}"):
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
        if self.at("NEWLINE") or self.at("EOF"):
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
        if self.at("-"):
            t = self.advance()
            return Neg(self.atom(), pos=t.pos)
        return self.atom()

    def atom(self):
        t = self.cur
        if t.kind == "INT":
            self.advance()
            return self.postfix(IntLit(int(t.text), pos=t.pos))
        if t.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "expected closing ')'")
            return self.postfix(node)
        if t.kind == "NAME":
            if t.text == "s" and self.tokens[self.i + 1].kind == "[":
                self.advance()
                self.advance()
                parts = []
                if not self.at("]"):  # s[] is the unit class
                    parts.append(int(self.expect("INT", "expected partition part").text))
                    while self.at(","):
                        self.advance()
                        parts.append(int(self.expect("INT", "expected partition part").text))
                self.expect("]", "expected ']' closing Schubert class")
                return self.postfix(SchubertLit(tuple(parts), pos=t.pos))
            if t.text in KEYWORDS:
                raise WorksheetSyntaxError(
                    f"keyword {t.text!r} cannot be used in an expression", t.pos
                )
            self.advance()
            if self.at("("):
                return self.postfix(self.call(t))
            if self.at("{"):
                return self.postfix(self.brace_call(t))
            return self.postfix(Name(t.text, pos=t.pos))
        raise WorksheetSyntaxError(
            f"expected an expression, got {t.text!r}"
            if t.kind != "EOF"
            else "missing expression",
            t.pos,
        )

    def postfix(self, node):
        while self.at("."):
            dot = self.advance()
            self.nest(dot)
            node = FieldAccess(node, self.ident("field name"), pos=dot.pos)
        return node

    def call(self, fname: Token) -> Call:
        self.expect("(")
        args, args2 = [], None
        if not self.at(")"):
            args.append(self.expr())
            while self.at(","):
                self.advance()
                args.append(self.expr())
            if self.at(";"):
                self.advance()
                args2 = [self.expr()]
                while self.at(","):
                    self.advance()
                    args2.append(self.expr())
        self.expect(")", "expected ')' closing call")
        return Call(
            fname.text,
            tuple(args),
            tuple(args2) if args2 is not None else None,
            pos=fname.pos,
        )

    def brace_call(self, fname: Token) -> Call:
        self.expect("{")
        kwargs = []
        while True:
            key = self.ident("argument name")
            self.expect("=", "expected '=' after argument name")
            kwargs.append((key, self.expr()))
            if self.at(","):
                self.advance()
            else:
                break
        self.expect("}", "expected '}' closing arguments")
        return Call(fname.text, (), None, tuple(kwargs), pos=fname.pos)


def _validate(program: WorksheetProgram):
    """Single-assignment and declare-before-use checks."""
    declared = set()

    def declare(name: str, pos: Pos):
        if name in declared:
            raise WorksheetSyntaxError(f"duplicate binding of {name!r}", pos)
        declared.add(name)

    def check_expr(e):
        if isinstance(e, Name):
            if e.name not in declared:
                raise WorksheetSyntaxError(f"use of undeclared name {e.name!r}", e.pos)
        elif isinstance(e, BinOp):
            check_expr(e.left)
            check_expr(e.right)
        elif isinstance(e, Neg):
            check_expr(e.operand)
        elif isinstance(e, FieldAccess):
            check_expr(e.base)
        elif isinstance(e, Call):
            if e.func not in BUILTINS:
                raise WorksheetSyntaxError(f"unknown function {e.func!r}", e.pos)
            for a in e.args:
                check_expr(a)
            for a in e.args2 or ():
                check_expr(a)
            for _, v in e.kwargs:
                check_expr(v)

    for s in program.statements:
        if isinstance(s, (Let, Input)):
            check_expr(s.expr)
            declare(s.name, s.pos)
        elif isinstance(s, Assert):
            check_expr(s.left)
            check_expr(s.right)
        elif isinstance(s, UnknownDecl):
            for n in s.names:
                declare(n, s.pos)
        elif isinstance(s, SurfaceDecl):
            for n in s.basis:
                declare(n, s.pos)
            for g in s.gram:
                check_expr(g.expr)
            check_expr(s.euler)
        elif isinstance(s, LatticeDecl):
            declare(s.name, s.pos)
            for item in s.items:
                if isinstance(item, (BasisDecl, UnknownDecl)):
                    for n in item.names:
                        declare(n, item.pos)
                elif isinstance(item, GramEntry):
                    check_expr(item.expr)
                elif isinstance(item, ClassDecl):
                    check_expr(item.expr)
                    declare(item.name, item.pos)
                elif isinstance(item, CanonicalDecl):
                    check_expr(item.expr)
                    declare("K", item.pos)
        elif isinstance(s, SolveBlock):
            for left, right in s.constraints:
                check_expr(left)
                check_expr(right)


def parse(text: str) -> WorksheetProgram:
    program = _Parser(tokenize(text)).program()
    _validate(program)
    return program


__all__ = ["parse", "pretty_print", "tokenize", "WorksheetSyntaxError"]
