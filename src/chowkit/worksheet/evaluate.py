"""Worksheet evaluation: deterministic, exact, assertion-collecting.

Assertion failures never halt a run; every assertion is evaluated and
reported.  Runtime errors (bad solve, missing context, ...) abort with
the offending statement's source position.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from numbers import Rational
from operator import add, mul, sub, truediv

from ..grassmann import GrassmannContext, SchubertElement
from ..lattice import ClassExpr, IntersectionForm, RuledLattice
from ..linexpr import LinExpr, collapse, holds_unknown, printed, shown, solve_linear
from ..surface import SurfaceClass, SurfaceRing
from .ast import (
    Assert,
    BasisDecl,
    BinOp,
    Call,
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
    _fmt_expr,
)
from .builtins import BUILTINS, Record


class WorksheetRuntimeError(WorksheetError):
    """An error met while evaluating a parsed worksheet."""


OPERATORS = {"+": add, "-": sub, "*": mul, "/": truediv}

KINDS = (  # a value's kind, as a type error names it
    (Rational, "a number"),
    (LinExpr, "an expression with unknowns"),
    (SchubertElement, "a Schubert class"),
    (ClassExpr, "a lattice class"),
    (SurfaceClass, "a surface class"),
    (RuledLattice, "a lattice"),
    (Record, "a record"),
)


def _kind(value) -> str:
    return next(word for cls, word in KINDS if isinstance(value, cls))


AssertionResult = namedtuple("AssertionResult", "expression expected actual passed")


class EvaluationReport(namedtuple("EvaluationReport", "bindings assertions notes")):
    """Lists of (name, rendered value) pairs, of AssertionResults and of notes."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def as_dict(self) -> dict:
        return {
            "bindings": [{"name": n, "value": v} for n, v in self.bindings],
            "assertions": [
                {
                    "expression": a.expression,
                    "expected": a.expected,
                    "actual": a.actual,
                    "pass": a.passed,
                }
                for a in self.assertions
            ],
            "notes": list(self.notes),
        }


class Evaluator:
    # what a Schubert literal reports where no Grassmannian is in force
    no_grassmannian = "no grassmannian context declared before Schubert class"

    def __init__(self):
        self.env: dict = {}
        self.grassmann: GrassmannContext | None = None
        self.spaces: list[IntersectionForm] = []  # those a `solve` can change
        self.open: set = set()  # the names in `env` whose value holds an unknown
        self.report = EvaluationReport([], [], [])

    # -- statements ---------------------------------------------------

    def run(self, program: WorksheetProgram) -> EvaluationReport:
        for s in program.statements:
            try:
                self.statement(s)
            except WorksheetError:
                raise
            except ValueError as exc:  # e.g. a bad Gr(k, n), a failed solve, a huge int
                raise WorksheetRuntimeError(str(exc), s.pos) from exc
        return self.report

    def statement(self, s):
        if isinstance(s, (Let, Input)):
            value = self.eval(s.expr)
            self.bind(s.name, value)
            if isinstance(s, Input):
                self.report.notes.append(
                    f'input {s.name} = {value} from "{s.citation}"'
                )
        elif isinstance(s, Assert):
            left = self.eval(s.left)
            right = self.eval(s.right)
            self.report.assertions.append(
                AssertionResult(
                    expression=f"{_fmt_expr(s.left)} == {_fmt_expr(s.right)}",
                    expected=printed(right, "the right side"),
                    actual=printed(left, "the left side"),
                    passed=left == right,
                )
            )
        elif isinstance(s, GrassmannianDecl):
            self.grassmann = GrassmannContext(s.k, s.n)
        elif isinstance(s, UnknownDecl):
            for n in s.names:
                self.bind(n, LinExpr.unknown(n))
        elif isinstance(s, SurfaceDecl):
            self.surface_decl(s)
        elif isinstance(s, LatticeDecl):
            self.lattice_decl(s)
        elif isinstance(s, SolveBlock):
            self.solve_block(s)
        else:
            raise WorksheetRuntimeError(f"cannot execute {s!r}", s.pos)

    def bind(self, name: str, value):
        self.env[name] = value
        self.open.discard(name)
        if holds_unknown(value):
            self.open.add(name)
        self.report.bindings.append((name, printed(value, name)))

    def set_gram(self, form: IntersectionForm, g: GramEntry):
        """Set the entry `g` on a surface or lattice; an error is reported at `g`."""
        value = self.scalar(g.expr)
        try:
            form.set_gram(g.a, g.b, value)
        except ValueError as exc:
            raise WorksheetRuntimeError(str(exc), g.pos)

    def surface_decl(self, s: SurfaceDecl):
        ring = SurfaceRing((), {})  # empty, so complete; entries are set one by one
        ring.basis = s.basis
        for g in s.gram:
            self.set_gram(ring, g)
        ring.euler = self.scalar(s.euler)
        ring.check_complete()
        if ring.is_open:
            self.spaces.append(ring)
        for name in s.basis:
            self.bind(name, ring.divisor(name))

    def lattice_decl(self, s: LatticeDecl):
        lat = RuledLattice([])
        self.bind(s.name, lat)
        for item in s.items:
            if isinstance(item, BasisDecl):
                lat.basis = lat.basis + tuple(item.names)
                for n in item.names:
                    self.bind(n, lat.generator(n))
            elif isinstance(item, UnknownDecl):
                for n in item.names:
                    self.bind(n, lat.add_unknown(n))
            elif isinstance(item, GramEntry):
                self.set_gram(lat, item)
            else:  # a ClassDecl, or the CanonicalDecl that binds K
                value = self.eval(item.expr)
                named = isinstance(item, ClassDecl)
                if not isinstance(value, ClassExpr):
                    what = f"class {item.name!r}" if named else "canonical class"
                    raise WorksheetRuntimeError(f"{what} must be a lattice class", item.pos)
                if not named:
                    lat.canonical = value
                self.bind(item.name if named else "K", value)
        if lat.is_open:
            self.spaces.append(lat)

    def solve_block(self, s: SolveBlock):
        eqs = [self.scalar(left) - self.scalar(right) for left, right in s.constraints]
        assignment = solve_linear(eqs)
        for name in sorted(assignment):
            self.bind(name, assignment[name])
        self.substitute_everywhere(assignment)

    def substitute_everywhere(self, assignment: dict):
        for space in self.spaces:
            space.substitute(assignment)
        self.spaces = [space for space in self.spaces if space.is_open]
        for name in self.open:
            self.env[name] = collapse(self.env[name].substitute(assignment))
        self.open = {name for name in self.open if holds_unknown(self.env[name])}

    # -- expressions --------------------------------------------------

    def eval(self, e):
        node = type(e)  # the common nodes first, by exact type
        if node is Name:
            return self.env[e.name]
        if node is IntLit:
            return e.value
        if node is BinOp:
            return self.binop(e.op, self.eval(e.left), self.eval(e.right), e.pos)
        if isinstance(e, SchubertLit):
            if self.grassmann is None:
                raise WorksheetRuntimeError(self.no_grassmannian, e.pos)
            try:
                return SchubertElement.sigma(self.grassmann, e.parts)
            except ValueError as exc:
                raise WorksheetRuntimeError(str(exc), e.pos)
        if isinstance(e, Neg):
            value = self.eval(e.operand)
            try:
                return -value
            except TypeError:
                raise WorksheetRuntimeError(
                    f"unsupported operand type for -: {_kind(value)}", e.pos
                )
        if isinstance(e, FieldAccess):
            base = self.eval(e.base)
            if not isinstance(base, Record):
                raise WorksheetRuntimeError(
                    f"cannot access field {e.name!r} on {shown(base)}", e.pos
                )
            if e.name not in base:
                raise WorksheetRuntimeError(
                    f"record has no field {e.name!r} (has: {', '.join(base)})", e.pos
                )
            return base[e.name]
        if isinstance(e, Call):
            return self.call(e)
        raise WorksheetRuntimeError(f"cannot evaluate {e!r}", e.pos)

    def binop(self, op, a, b, pos):
        try:
            if op == "/" and isinstance(b, (int, Fraction)):
                if b == 0:
                    raise ZeroDivisionError("division by zero")
                if isinstance(a, int):
                    return Fraction(a, b)  # exact: an int over an int is never a float
            return collapse(OPERATORS[op](a, b))
        except TypeError:
            raise WorksheetRuntimeError(
                f"unsupported operand types for {op}: {_kind(a)} and {_kind(b)}", pos
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise WorksheetRuntimeError(str(exc), pos)

    def scalar(self, e):
        """Evaluate to an exact scalar or a linear expression in unknowns."""
        v = self.eval(e)
        if isinstance(v, (int, Fraction, LinExpr)):
            return v
        raise WorksheetRuntimeError(f"expected a scalar value, got {shown(v)}", e.pos)

    # -- builtin functions --------------------------------------------

    def call(self, e: Call):
        groups = [[self.eval(a) for a in g] for g in e.groups]
        kwargs = {k: self.eval(v) for k, v in e.kwargs}
        try:
            return BUILTINS[e.func].call(groups, kwargs)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise WorksheetRuntimeError(f"{e.func}: {exc}", e.pos)


def evaluate(program: WorksheetProgram) -> EvaluationReport:
    """Evaluate a parsed worksheet; deterministic by construction."""
    return Evaluator().run(program)
