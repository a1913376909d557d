"""AST for the worksheet language, with canonical pretty printing.

Node equality is structural and ignores source positions, so
parse(pretty_print(p)) == p is a meaningful round-trip law.  A position
is a plain `(line, column)` tuple of ints, which the cyclic GC untracks.
"""

from __future__ import annotations

from collections import namedtuple


class WorksheetError(ValueError):
    """An error in a worksheet, tagged with the source position it concerns."""

    def __init__(self, message: str, pos: tuple):
        super().__init__(f"line {pos[0]}, column {pos[1]}: {message}")
        self.message = message
        self.pos = pos


class _Node(tuple):
    """Equal to a node of the same class with equal fields; `pos` is not compared."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), self[:-1]))


def _node(name: str, fields: str) -> type:
    """A node class: a named tuple of `fields` followed by `pos`."""
    base = namedtuple(name, f"{fields} pos")
    return type(name, (base, _Node), {"__slots__": (), "__module__": __name__})


# --- expressions -----------------------------------------------------------

IntLit = _node("IntLit", "value")
Name = _node("Name", "name")
SchubertLit = _node("SchubertLit", "parts")
BinOp = _node("BinOp", "op left right")  # op is one of + - * /
Neg = _node("Neg", "operand")
# groups holds the ';'-separated argument tuples, at most two and none empty;
# kwargs is ((name, expr), ...) for brace calls
Call = _node("Call", "func groups kwargs")
FieldAccess = _node("FieldAccess", "base name")

# --- statements ------------------------------------------------------------

Let = _node("Let", "name expr")
Input = _node("Input", "name expr citation")
Assert = _node("Assert", "left right")
GrassmannianDecl = _node("GrassmannianDecl", "k n")
UnknownDecl = _node("UnknownDecl", "names")
GramEntry = _node("GramEntry", "a b expr")
SurfaceDecl = _node("SurfaceDecl", "basis gram euler")  # gram is a tuple of GramEntry
ClassDecl = _node("ClassDecl", "name expr")
CanonicalDecl = _node("CanonicalDecl", "expr")
# items are BasisDecl, UnknownDecl, GramEntry, ClassDecl and CanonicalDecl nodes
LatticeDecl = _node("LatticeDecl", "name items")
BasisDecl = _node("BasisDecl", "names")
SolveBlock = _node("SolveBlock", "constraints")  # of (left, right) expression pairs


WorksheetProgram = namedtuple("WorksheetProgram", "statements")


# --- pretty printing -------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _fmt_expr(e, parent_prec=0, right_side=False):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, SchubertLit):
        return f"s[{','.join(map(str, e.parts))}]"
    if isinstance(e, FieldAccess):
        return f"{_fmt_expr(e.base, 3)}.{e.name}"
    if isinstance(e, Neg):
        inner = _fmt_expr(e.operand, 3)
        out = f"-{inner}"
        return f"({out})" if parent_prec >= 2 or right_side else out
    if isinstance(e, Call):
        if e.kwargs:
            inner = ", ".join(f"{k}={_fmt_expr(v)}" for k, v in e.kwargs)
            return f"{e.func}{{{inner}}}"
        inner = "; ".join(", ".join(map(_fmt_expr, g)) for g in e.groups)
        return f"{e.func}({inner})"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = _fmt_expr(e.left, prec, right_side=False)
        right = _fmt_expr(e.right, prec, right_side=True)
        out = f"{left} {e.op} {right}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            out = f"({out})"
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_stmt(s):
    if isinstance(s, Let):
        return f"let {s.name} = {_fmt_expr(s.expr)}"
    if isinstance(s, Input):
        return f'input {s.name} = {_fmt_expr(s.expr)} from "{s.citation}"'
    if isinstance(s, Assert):
        return f"assert {_fmt_expr(s.left)} == {_fmt_expr(s.right)}"
    if isinstance(s, GrassmannianDecl):
        return f"grassmannian ({s.k}, {s.n})"
    if isinstance(s, UnknownDecl):
        return f"unknown {', '.join(s.names)}"
    if isinstance(s, SurfaceDecl):
        gram = ", ".join(f"{g.a}.{g.b} = {_fmt_expr(g.expr)}" for g in s.gram)
        return (
            f"surface {{ {', '.join(s.basis)}; {gram}; euler = {_fmt_expr(s.euler)} }}"
        )
    if isinstance(s, LatticeDecl):
        bits = []
        for item in s.items:
            if isinstance(item, BasisDecl):
                bits.append(f"basis {', '.join(item.names)}")
            elif isinstance(item, UnknownDecl):
                bits.append(f"unknown {', '.join(item.names)}")
            elif isinstance(item, GramEntry):
                bits.append(f"{item.a}.{item.b} = {_fmt_expr(item.expr)}")
            elif isinstance(item, ClassDecl):
                bits.append(f"class {item.name} = {_fmt_expr(item.expr)}")
            elif isinstance(item, CanonicalDecl):
                bits.append(f"canonical = {_fmt_expr(item.expr)}")
            else:
                raise TypeError(f"bad lattice item {item!r}")
        return f"lattice {s.name} {{ {'; '.join(bits)} }}"
    if isinstance(s, SolveBlock):
        cs = "; ".join(f"{_fmt_expr(a)} == {_fmt_expr(b)}" for a, b in s.constraints)
        return f"solve {{ {cs} }}"
    raise TypeError(f"not a statement node: {s!r}")


def pretty_print(p: WorksheetProgram) -> str:
    return "\n".join(_fmt_stmt(s) for s in p.statements) + "\n"
