"""Classical enumerative formulas for curves and scrolls.

Pluecker system for plane curves, Riemann-Hurwitz ramification,
coincidence counting for correspondences on a line, the Salmon-Cayley
scroll of lines meeting three space curves, secant-scroll degrees,
odd theta-characteristic counts, degeneration multiplicities, and the
residual degree left by a specialization argument.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .linexpr import (
    InconsistentSystem,
    LinExpr,
    NonlinearError,
    UnderdeterminedSystem,
    collapse,
    shown,
)

# The largest exponent `odd_theta_count` and `degeneration_multiplicity` raise
# 2 to.  It is checked before the power is taken, so a huge argument costs
# nothing; odd_theta_count(1000) has 602 digits.
MAX_EXPONENT = 1000


# The numerical characters of a plane curve and its dual: d the degree, m the
# class, nodes and cusps on the curve, bitangents and flexes on the dual side,
# and the genus.
CHARACTERS = ("d", "m", "nodes", "cusps", "bitangents", "flexes", "genus")


# The five Pluecker relations (Griffiths-Harris, *Principles of Algebraic
# Geometry*, 2.4), each an expression in the characters that vanishes on a
# plane curve; the genus formula is doubled, so no relation divides.  Three
# are quadratic in d and two in m.
_RELATIONS = (
    lambda d, m, nodes, cusps, **_: m - d * (d - 1) + 2 * nodes + 3 * cusps,
    lambda d, nodes, cusps, flexes, **_: flexes - 3 * d * (d - 2) + 6 * nodes + 8 * cusps,
    lambda d, m, bitangents, flexes, **_: d - m * (m - 1) + 2 * bitangents + 3 * flexes,
    lambda m, bitangents, flexes, cusps, **_: (
        cusps - 3 * m * (m - 2) + 6 * bitangents + 8 * flexes
    ),
    lambda d, nodes, cusps, genus, **_: 2 * (genus + nodes + cusps) - (d - 1) * (d - 2),
)


def plucker_solve(**given) -> dict:
    """Complete a partial set of Pluecker characters, given by name.

    Returns all seven characters, in `CHARACTERS` order.  Each unset one is
    an unknown.  A relation that comes out linear in exactly one unknown,
    c*x + k == 0, is solved for it in place: x = -k/c, an int when integral,
    as `linexpr.solve_linear` gives it.  This goes on until no relation gives
    anything new; a relation quadratic in an unset d or m is not used until
    that character is known, since a linear solve cannot pick a root.  Raises
    InconsistentSystem if a relation fails on known values, and
    UnderdeterminedSystem if a character is left unset.
    """
    for name in given:
        if name not in CHARACTERS:
            raise ValueError(f"unknown Pluecker character {name!r}")
    vals = {n: Fraction(given[n]) if n in given else LinExpr.unknown(n) for n in CHARACTERS}
    changed = True
    while changed:
        changed = False
        for rel in _RELATIONS:
            try:
                r = collapse(rel(**vals))
            except NonlinearError:
                continue
            if isinstance(r, LinExpr):
                coeffs = r.coeffs
                if len(coeffs) == 1:  # c*x + const == 0, with c != 0
                    (name, c), = coeffs.items()
                    value = Fraction(-r.const) / c
                    vals[name] = value.numerator if value.denominator == 1 else value
                    changed = True
            elif r != 0:
                known = ", ".join(
                    f"{n}={shown(v)}" for n, v in sorted(vals.items()) if not isinstance(v, LinExpr)
                )
                raise InconsistentSystem(f"relation violated on {known}")
    unset = sorted(n for n, v in vals.items() if isinstance(v, LinExpr))
    if unset:
        raise UnderdeterminedSystem(f"cannot determine: {', '.join(unset)}")
    return vals


def hurwitz_ramification(g_source: int, g_target: int, n: int) -> Fraction:
    """Total ramification of a degree-n cover: 2g' - 2 - n(2g - 2)."""
    if n < 1:
        raise ValueError("covering degree must be at least 1")
    r = Fraction(2 * g_source - 2 - n * (2 * g_target - 2))
    if r < 0:
        raise ValueError(f"invalid cover data: ramification {shown(r)} < 0")
    return r


def correspondence_coincidences(e, f) -> Fraction:
    """Coincidence points of a correspondence of indices [e, f] on a line."""
    e, f = Fraction(e), Fraction(f)
    if e < 0 or f < 0:
        raise ValueError("correspondence indices must be non-negative")
    return e + f


def salmon_cayley(n1: int, n2: int, n3: int, i12: int = 0, i13: int = 0, i23: int = 0):
    """Degree and directrix multiplicities of the scroll of lines meeting
    three space curves of degrees n1, n2, n3, where curves i and j share
    ij points.

    degree = 2 n1 n2 n3 - (i23 n1 + i13 n2 + i12 n3); the multiplicity of
    curve i is nj*nk - ijk.  The pairwise-intersection correction is
    calibrated to the configuration of three mutually transverse curves
    with the stated common points; that covers every instance used here
    and agrees with the exact Schubert count when all ijk = 0.
    """
    if min(n1, n2, n3, i12, i13, i23) < 0:
        raise ValueError("scroll input data must be non-negative")
    deg = 2 * n1 * n2 * n3 - (i23 * n1 + i13 * n2 + i12 * n3)
    m1 = n2 * n3 - i23
    m2 = n1 * n3 - i13
    m3 = n1 * n2 - i12
    if deg < 0 or min(m1, m2, m3) < 0:
        raise ValueError("scroll configuration has negative degree or multiplicity")
    return Fraction(deg), Fraction(m1), Fraction(m2), Fraction(m3)


def secant_plucker_degree(d: int, g: int) -> Fraction:
    """Degree of the secant variety of a space curve in the Pluecker
    embedding: secants through a general point plus secants in a general
    plane, C(d-1, 2) - g + C(d, 2)."""
    if d < 3:
        raise ValueError("need degree at least 3")
    if g < 0:
        raise ValueError("genus must be non-negative")
    through_point = comb(d - 1, 2) - g
    if through_point < 0:
        raise ValueError(f"a degree-{shown(d)} space curve cannot have genus {shown(g)}")
    return Fraction(through_point + comb(d, 2))


def odd_theta_count(g: int) -> Fraction:
    """Number of odd theta-characteristics on a genus-g curve."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    if g > MAX_EXPONENT:
        raise ValueError(f"genus {shown(g)} is above the cap of {MAX_EXPONENT}")
    return Fraction(2 ** (g - 1) * (2**g - 1))


def degeneration_multiplicity(contacts: int) -> Fraction:
    """Multiplicity 2 per tangency trading for a double-curve passage."""
    if contacts < 0:
        raise ValueError("contact count must be non-negative")
    if contacts > MAX_EXPONENT:
        raise ValueError(f"contact count {shown(contacts)} is above the cap of {MAX_EXPONENT}")
    return Fraction(2**contacts)


def residual_degree(total, parts) -> Fraction:
    """Residual of a specialization ledger; must be non-negative."""
    r = Fraction(total) - sum(Fraction(m) * Fraction(d) for m, d in parts)
    if r < 0:
        raise ValueError(f"ledger residual {shown(r)} is negative")
    return r
