"""The builtin functions of the worksheet language, in one table.

`BUILTINS` maps each name to its argument groups, the function it calls
and the names of its keyword arguments.  The parser and the evaluator
read this table.

Entries call the kernels through their module (`curves.odd_theta_count`)
at call time, so a wrapper installed on a module attribute sees the call.
"""

from __future__ import annotations

from collections import namedtuple
from numbers import Rational

from .. import curves, grassmann, lattice, surface
from ..grassmann import SchubertElement
from ..lattice import ClassExpr
from ..linexpr import LinExpr, collapse, shown
from ..surface import SurfaceClass


class Record(dict):
    """Named exact values a builtin returns (e.g. a solved Pluecker set)."""

    __slots__ = ()

    def __str__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"{{{inner}}}"


# -- argument kinds: each checks a value and returns what the function takes


def integer(v) -> int:
    if isinstance(v, Rational) and v.denominator == 1:
        return int(v)
    raise ValueError(f"expected an integer, got {shown(v)}")


def _kind(what, test):
    def kind(v):
        if test(v):
            return v
        raise ValueError(f"expected {what}, got {shown(v)}")

    return kind


number = _kind("a number", lambda v: isinstance(v, Rational))
scalar = _kind("a scalar value", lambda v: isinstance(v, (Rational, LinExpr)))
schubert_class = _kind("a Schubert class", lambda v: isinstance(v, SchubertElement))
lattice_class = _kind("a lattice class", lambda v: isinstance(v, ClassExpr))
divisor = _kind(
    "a divisor class", lambda v: isinstance(v, SurfaceClass) and v.is_divisor
)


def _args(kind, names: str):
    """One argument group; a group of one name ending in '...' takes any number."""
    return tuple((name, kind) for name in names.split())


class Builtin(namedtuple("Builtin", "groups run named", defaults=((),))):
    """One builtin: its positional argument groups, separated by ';' in a
    call, its function, and the names of the number arguments given as
    name=value."""

    __slots__ = ()

    @property
    def signature(self) -> str:
        """The arguments as a worksheet writes them, e.g. `(total; part...)`."""
        if self.named:
            return "{" + ", ".join(f"{n}=..." for n in self.named) + "}"
        return "(" + "; ".join(", ".join(n for n, _ in g) for g in self.groups) + ")"

    def call(self, groups, named: dict):
        """Check and convert the arguments and call the function.

        `groups` holds the values of each ';'-separated group.
        """
        for key in named:
            if key not in self.named:
                raise ValueError(f"unknown argument {key!r}, expected {self.signature}")
        if len(groups) != len(self.groups) or any(
            len(values) != len(group) and not group[0][0].endswith("...")
            for values, group in zip(groups, self.groups)
        ):
            raise ValueError(f"wrong number of arguments, expected {self.signature}")
        args = [  # extra values of a '...' group take its one kind
            group[min(i, len(group) - 1)][1](v)
            for values, group in zip(groups, self.groups)
            for i, v in enumerate(values)
        ]
        kwargs = {k: number(v) for k, v in named.items()}
        return self.run(*args, **kwargs)


def _jet2_c2(D):
    ring = D.space
    if "K" not in ring.basis:
        raise ValueError("surface must declare a canonical divisor named K")
    omega = surface.cotangent_bundle(ring.divisor("K"), ring.euler)
    return collapse(surface.jet_chern(D, 2, omega).c2)


def _pluecker(**chars):
    # unmentioned singularities on a given side default to absent
    if "d" in chars:
        chars.setdefault("nodes", 0)
        chars.setdefault("cusps", 0)
    elif "m" in chars:
        chars.setdefault("bitangents", 0)
        chars.setdefault("flexes", 0)
    data = curves.plucker_solve(**chars)
    # a plane curve and its dual are curves of degree at least 2, not lines or points
    bad = [
        f"{c}={shown(v)}"
        for c, v in data.items()
        if v < (2 if c in ("d", "m") else 0) or v.denominator != 1
    ]
    if bad:
        raise ValueError(f"no plane curve has {', '.join(bad)}")
    return Record(data)


BUILTINS = {
    "integrate": Builtin(
        (_args(schubert_class, "x"),), lambda x: grassmann.integrate(x)
    ),
    "pdeg": Builtin(
        (_args(schubert_class, "x") + _args(integer, "dim"),),
        lambda x, dim: grassmann.plucker_degree(x, dim),
    ),
    "jet2_c2": Builtin((_args(divisor, "D"),), _jet2_c2),
    "tau": Builtin(
        (_args(scalar, "H2 HK K2 e"),), lambda *a: surface.triple_point_count(*a)
    ),
    "genus": Builtin(
        (_args(lattice_class, "C"),), lambda c: lattice.adjunction_genus(c)
    ),
    "glue_genus": Builtin(
        (_args(number, "p1 p2 inter"),), lambda *a: lattice.genus_additivity(*a)
    ),
    "hurwitz": Builtin(
        (_args(integer, "g_source g_target n"),),
        lambda *a: curves.hurwitz_ramification(*a),
    ),
    "coincidences": Builtin(
        (_args(number, "e f"),), lambda *a: curves.correspondence_coincidences(*a)
    ),
    "salmon_cayley": Builtin(
        (_args(integer, "n1 n2 n3"), _args(integer, "i12 i13 i23")),
        lambda *a: Record(zip(("degree", "m1", "m2", "m3"), curves.salmon_cayley(*a))),
    ),
    "secant_pluecker": Builtin(
        (_args(integer, "d g"),), lambda *a: curves.secant_plucker_degree(*a)
    ),
    "odd_theta": Builtin((_args(integer, "g"),), lambda g: curves.odd_theta_count(g)),
    "degmult": Builtin(
        (_args(integer, "contacts"),), lambda c: curves.degeneration_multiplicity(c)
    ),
    "residual": Builtin(
        (_args(number, "total"), _args(number, "part...")),
        lambda total, *parts: curves.residual_degree(total, [(1, p) for p in parts]),
    ),
    "pluecker": Builtin((), _pluecker, curves.CHARACTERS),
}
