"""Intersection forms, and numerical-class lattices of ruled surfaces.

An intersection form (Hartshorne, *Algebraic Geometry*, V.1) is a basis of
class names and a symmetric Gram matrix whose entries may hold named
unknowns; ruled-surface lattices and `surface.SurfaceRing` are both one.
Intersection numbers expand bilinearly to linear expressions in the
unknowns; `linexpr.solve_linear` pins them and `substitute` puts the
answers back, one solve at a time, as such computations are done by hand,
and reports whether any unknown remains.
"""

from __future__ import annotations

from .linexpr import (
    Combination,
    InconsistentSystem,
    LinExpr,
    NonlinearError,
    SpaceMismatch,
    UnderdeterminedSystem,
    _rational,
    collapse,
    holds_unknown,
    shown,
)

__all__ = [
    "IntersectionForm",
    "RuledLattice",
    "ClassExpr",
    "SpaceMismatch",
    "intersect",
    "adjunction_genus",
    "genus_additivity",
    "InconsistentSystem",
    "UnderdeterminedSystem",
    "NonlinearError",
]


class IntersectionForm:
    """`gram[(a, b)]` is the LinExpr a.b; a.b and b.a are one entry, set once."""

    def __init__(self, basis):
        self.basis = tuple(basis)
        self.gram = {}

    def set_gram(self, a, b, value):
        if a not in self.basis or b not in self.basis:
            raise ValueError(f"gram entry for unknown classes ({a}, {b})")
        if (a, b) in self.gram:
            raise ValueError(f"intersection number {a}.{b} declared twice")
        value = LinExpr.coerce(value)
        self.gram[(a, b)] = value
        self.gram[(b, a)] = value

    def pair(self, u: dict, v: dict) -> LinExpr:
        """Intersection number of two coefficient vectors over the basis."""
        terms = {}  # the terms of every u[a] * v[b] * (a.b), summed as they come
        for a, ca in u.items():
            for b, cb in v.items():
                try:
                    entry = self.gram[(a, b)]
                except KeyError:
                    raise ValueError(f"intersection number {a}.{b} was never declared")
                c = ca * cb
                if not c:  # adds nothing, and a Fraction 0 would make a later int a Fraction
                    continue
                if isinstance(c, LinExpr):  # NonlinearError if a.b holds unknowns too
                    c, entry = 1, c * entry
                for key, x in entry.terms.items():
                    x = terms[key] + c * x if key in terms else c * x
                    if x:
                        terms[key] = x
                    else:  # a sum that cancels is dropped, as `Combination._merge` does
                        del terms[key]
        return LinExpr._of(None, terms)

    def substitute(self, assignment: dict) -> bool:
        """Resolve solved unknowns in place, rebuilding only the entries that
        hold any (also a top-level `unknown a` in `l.l = a`).  Returns whether
        an entry still holds an unknown, so a later solve can change it."""
        left_open = False
        for key, v in self.gram.items():
            if not v.is_constant:
                v = self.gram[key] = v.substitute(assignment)
                left_open = left_open or not v.is_constant
        return left_open


class RuledLattice(IntersectionForm):
    def __init__(self, basis):
        super().__init__(basis)
        self.unknowns = []
        self._canonical = None  # K's terms: a ClassExpr would hold the lattice, a cycle

    @property
    def canonical(self) -> "ClassExpr | None":
        """The canonical class K, rebuilt from its terms on each read."""
        return None if self._canonical is None else ClassExpr._of(self, self._canonical)

    @canonical.setter
    def canonical(self, K):
        if K is not None and K.space is not self:
            raise SpaceMismatch("the canonical class lives on another lattice")
        self._canonical = None if K is None else K.terms

    def add_unknown(self, name: str) -> LinExpr:
        if name not in self.unknowns:
            self.unknowns.append(name)
        return LinExpr.unknown(name)

    def generator(self, name: str) -> "ClassExpr":
        return ClassExpr(self, {name: 1})

    def substitute(self, assignment: dict) -> bool:
        """Also in K, and drops the solved names from `unknowns`; whether anything is still open."""
        left_open = super().substitute(assignment)
        K = self.canonical
        if K is not None:
            K = self.canonical = K.substitute(assignment)
        self.unknowns = [u for u in self.unknowns if u not in assignment]
        return left_open or bool(self.unknowns) or holds_unknown(K)

    def __str__(self):
        head = f"lattice({', '.join(self.basis)}"
        if self.unknowns:
            head += f"; unknown {', '.join(self.unknowns)}"
        return head + ")"


class ClassExpr(Combination):
    """Linear combination of basis classes; coefficients may hold unknowns."""

    __slots__ = ()

    def _key(self, name):
        if name not in self.space.basis:
            raise ValueError(f"unknown basis class {name!r}")
        return name

    def _rank(self, name):
        return self.space.basis.index(name)

    def __mul__(self, other):
        if isinstance(other, ClassExpr):
            return intersect(self, other)
        return Combination.__mul__(self, other)


def intersect(a: ClassExpr, b: ClassExpr):
    """Bilinear expansion of a.b through the Gram matrix.

    Returns an exact rational when no unknowns survive, otherwise a
    LinExpr.  Unknown*unknown products are rejected as nonlinear.
    """
    a._check(b)
    return collapse(a.space.pair(a.terms, b.terms))


def adjunction_genus(C: ClassExpr) -> int:
    """Arithmetic genus 1 + (C^2 + C.K)/2; must come out integral."""
    K = C.space.canonical
    if K is None:
        raise ValueError("lattice has no canonical class")
    val = collapse(intersect(C, C) + intersect(C, K))
    if isinstance(val, LinExpr):
        raise ValueError(f"C^2 + C.K = {shown(val)} holds unknowns")
    if val.denominator != 1:
        raise ValueError(f"C^2 + C.K = {shown(val)} is not an integer")
    if val % 2 != 0:
        raise ValueError(f"C^2 + C.K = {shown(val)} is odd")
    return 1 + val // 2


def genus_additivity(p1, p2, inter):
    """Genus of a nodal union: p1 + p2 + (number of intersections) - 1."""
    return _rational(p1) + _rational(p2) + _rational(inter) - 1
