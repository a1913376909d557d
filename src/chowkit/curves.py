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

from .linexpr import InconsistentSystem, UnderdeterminedSystem, _rational, shown

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
# are quadratic in d and two in m.  A row is (q, linear, quadratic): the
# relation is quadratic(q) plus c * x for each (x, c) in linear.
_RELATIONS = (
    ("d", (("m", 1), ("nodes", 2), ("cusps", 3)), lambda d: -d * (d - 1)),
    ("d", (("flexes", 1), ("nodes", 6), ("cusps", 8)), lambda d: -3 * d * (d - 2)),
    ("m", (("d", 1), ("bitangents", 2), ("flexes", 3)), lambda m: -m * (m - 1)),
    ("m", (("cusps", 1), ("bitangents", 6), ("flexes", 8)), lambda m: -3 * m * (m - 2)),
    ("d", (("genus", 2), ("nodes", 2), ("cusps", 2)), lambda d: -(d - 1) * (d - 2)),
)


def plucker_solve(**given) -> dict:
    """Complete a partial set of Pluecker characters, given by name.

    Returns all seven characters, in `CHARACTERS` order: a given one as
    `linexpr._rational` reads it (an int stays an int), a solved one an int
    when integral.  A relation whose quadratic character is known and that
    has exactly one unset character, c*x + k == 0, is solved for it in
    place: x = -k/c, as `linexpr.solve_linear` gives it.  This goes on until
    no relation gives anything new; a relation quadratic in an unset d or m
    is not used until that character is known, since a linear solve cannot
    pick a root.  Raises InconsistentSystem if a relation fails on known
    values, and UnderdeterminedSystem if a character is left unset.
    """
    for name in given:
        if name not in CHARACTERS:
            raise ValueError(f"unknown Pluecker character {name!r}")
    known = {n: _rational(v) for n, v in given.items()}
    changed = True
    while changed:
        changed = False
        for q, linear, quadratic in _RELATIONS:
            if q not in known:
                continue
            k, unset = quadratic(known[q]), None
            for name, c in linear:
                if name in known:
                    k += c * known[name]
                elif unset:
                    break  # two unset characters
                else:
                    unset = name, c
            else:
                if unset:
                    name, c = unset
                    x = Fraction(-k, c)
                    known[name] = x.numerator if x.denominator == 1 else x
                    changed = True
                elif k:
                    shown_known = ", ".join(f"{n}={shown(v)}" for n, v in sorted(known.items()))
                    raise InconsistentSystem(f"relation violated on {shown_known}")
    unset = sorted(n for n in CHARACTERS if n not in known)
    if unset:
        raise UnderdeterminedSystem(f"cannot determine: {', '.join(unset)}")
    return {n: known[n] for n in CHARACTERS}


def hurwitz_ramification(g_source: int, g_target: int, n: int) -> int:
    """Total ramification of a degree-n cover: 2g' - 2 - n(2g - 2)."""
    if n < 1:
        raise ValueError("covering degree must be at least 1")
    r = 2 * g_source - 2 - n * (2 * g_target - 2)
    if r < 0:
        raise ValueError(f"invalid cover data: ramification {shown(r)} < 0")
    return r


def correspondence_coincidences(e, f):
    """Coincidence points of a correspondence of indices [e, f] on a line."""
    e, f = _rational(e), _rational(f)
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
    return deg, m1, m2, m3


def secant_plucker_degree(d: int, g: int) -> int:
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
    return through_point + comb(d, 2)


def odd_theta_count(g: int) -> int:
    """Number of odd theta-characteristics on a genus-g curve."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    if g > MAX_EXPONENT:
        raise ValueError(f"genus {shown(g)} is above the cap of {MAX_EXPONENT}")
    return 2 ** (g - 1) * (2**g - 1)


def degeneration_multiplicity(contacts: int) -> int:
    """Multiplicity 2 per tangency trading for a double-curve passage."""
    if contacts < 0:
        raise ValueError("contact count must be non-negative")
    if contacts > MAX_EXPONENT:
        raise ValueError(f"contact count {shown(contacts)} is above the cap of {MAX_EXPONENT}")
    return 2**contacts


def residual_degree(total, parts):
    """Residual of a specialization ledger; must be non-negative."""
    r = _rational(total) - sum(_rational(m) * _rational(d) for m, d in parts)
    if r < 0:
        raise ValueError(f"ledger residual {shown(r)} is negative")
    return r
