"""Sparse exact linear combinations, and linear expressions in named unknowns.

`Combination` is the one sparse linear combination behind every algebra
class: Schubert classes, lattice classes, surface classes and `LinExpr`
itself.  `LinExpr` is shared by the lattice solver (unknown Gram entries and
class coefficients), the symbolic surface ring (pairing symbols like
``H.K``), and the worksheet ``solve`` blocks.  Products of two non-constant
expressions are rejected: every system the workbench handles is linear
after expansion.

A combination's terms are summed: distinct keys, no zero coefficient, and
no LinExpr coefficient without unknowns.  The operations that can make like
keys meet re-sum their terms (`_summed`): the constructors, `_make`, a
product by a LinExpr, and `LinExpr.substitute`, which moves solved unknowns
into the constant.  The others build the dict directly: `scale` by a
nonzero scalar keeps every key and leaves no zero, `+` and `-` copy one
side and add, test and collapse only the keys both sides hold, and
`substitute` on a class changes coefficients, not keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log10
from numbers import Rational


class NonlinearError(ValueError):
    """Raised when a product would introduce an unknown*unknown term."""


class InconsistentSystem(ValueError):
    """Raised when a linear system has no solution."""


class UnderdeterminedSystem(ValueError):
    """Raised when a linear system does not pin every unknown."""


class SpaceMismatch(ValueError):
    """Two combinations from different spaces were combined."""


def _rational(x):
    """An exact scalar: an int as it is, any other rational as a Fraction."""
    if not isinstance(x, Rational):
        raise TypeError(f"expected a rational scalar, got {x!r}")
    return x if isinstance(x, int) else Fraction(x)


def shown(x) -> str:
    """A value as a message shows it, which never fails: `str(x)`, but an int
    too long for Python to print is its sign and length, `-<4516 digits>`, and
    any other value that holds one is `<a value too long to print>`."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{shown(x.numerator)}/{shown(x.denominator)}"
    try:
        return str(x)
    except ValueError:  # over sys.get_int_max_str_digits()
        if not isinstance(x, Rational):
            return "<a value too long to print>"
        n = abs(int(x))
        digits = int(n.bit_length() * log10(2)) + 1  # n's digits, or one more
        return f"{'-' if x < 0 else ''}<{digits - (10 ** (digits - 1) > n)} digits>"


def printed(x, what: str) -> str:
    """`str(x)`, or a ValueError naming `what` when x holds a number too long to print."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"cannot print {what}: {shown(x)}") from None


ONE = 1  # the key of a LinExpr's constant term and of a surface's unit class


def collapse(x):
    """A LinExpr without unknowns as its scalar, an int when it is integral;
    any other value unchanged.  A LinExpr sum drops a constant that cancels
    and takes the next one's type, so only this makes the type canonical."""
    if isinstance(x, LinExpr) and x.is_constant:
        c = x.const
        return c.numerator if c.denominator == 1 else c
    return x


def holds_unknown(value) -> bool:
    """A LinExpr, or a combination with a LinExpr coefficient, which `solve` changes."""
    return isinstance(value, LinExpr) or (isinstance(value, Combination) and any(
        isinstance(c, LinExpr) for c in value.terms.values()))


def _summed(pairs) -> dict:
    """The terms of sum(c * key) over (key, c) pairs: like keys added, zeros
    dropped, a LinExpr coefficient without unknowns collapsed."""
    terms = {}
    for key, c in pairs:
        terms[key] = terms[key] + c if key in terms else c
    return {key: collapse(c) for key, c in terms.items() if c}


class Combination:
    """sum(coefficient * key) over `terms`, a dict without zero coefficients.

    `space` is what the keys belong to (a Grassmannian, a lattice, a surface
    ring, or None for a LinExpr); only combinations of one space combine.
    A coefficient is an int, a Fraction, or a LinExpr that still holds
    unknowns.  Subclasses check keys (`_key`), order them for printing
    (`_rank`), label them (`_label`), and name the key a scalar stands for
    (`unit`, None when a scalar other than 0 is not a class).
    """

    __slots__ = ("space", "terms")
    unit = None

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = _summed((self._key(k), c) for k, c in (terms or {}).items())

    @classmethod
    def _make(cls, space, pairs):
        """sum(c * key) over (key, c) pairs whose keys are known to be valid."""
        return cls._of(space, _summed(pairs))

    @classmethod
    def _of(cls, space, terms: dict):
        """The combination with `terms`, which are known to be summed."""
        out = cls.__new__(cls)
        out.space = space
        out.terms = terms
        return out

    def _rank(self, key):
        return key

    def _label(self, key):
        """Printed after the coefficient; None prints the coefficient alone."""
        return str(key)

    def _check(self, other: "Combination"):
        if other.space != self.space:
            raise SpaceMismatch(f"{type(self).__name__}s live on different spaces")

    def _operand(self, other):
        """`other` as a combination of this space, or None when it is not one."""
        if isinstance(other, Rational) and self.unit is not None:
            return self._of(self.space, {self.unit: other} if other else {})
        if type(other) is not type(self):
            return None
        self._check(other)
        return other

    def _merge(self, other, negate: bool):
        """self + other, or self - other when `negate`; only shared keys are summed."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = self.terms.copy()
        for key, c in other.terms.items():
            if key in terms:
                c = terms[key] - c if negate else terms[key] + c
                if c:
                    terms[key] = collapse(c)
                else:
                    del terms[key]
            else:
                terms[key] = -c if negate else c
        return self._of(self.space, terms)

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._merge(other, True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, k):
        """k times this combination; k may be a LinExpr."""
        if isinstance(k, LinExpr):  # products may cancel, or lose their unknowns
            return self._make(self.space, ((key, k * c) for key, c in self.terms.items()))
        return self._of(self.space, {key: k * c for key, c in self.terms.items()} if k else {})

    def __mul__(self, k):
        if isinstance(k, (Rational, LinExpr)):
            return self.scale(k)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, k):
        k = _rational(collapse(k))
        if k == 0:
            raise ZeroDivisionError("division by zero")
        return self.scale(Fraction(1) / k)

    def substitute(self, assignment: dict):
        """Put in the values of solved unknowns, which sit in the coefficients."""
        terms = {}
        for key, c in self.terms.items():
            if isinstance(c, LinExpr):
                c = collapse(c.substitute(assignment))
                if not c:
                    continue
            terms[key] = c
        return self._of(self.space, terms)

    def __eq__(self, other):
        if isinstance(other, Rational):  # a scalar is that multiple of the unit
            return self.terms == ({self.unit: other} if other else {})
        if not isinstance(other, Combination):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {self.unit}:  # equal to a scalar: hash like it
            return hash(self.terms.get(self.unit, 0))
        return hash((self.space, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        parts = []
        for key in sorted(self.terms, key=self._rank):
            c, label = self.terms[key], self._label(key)
            if isinstance(c, LinExpr):
                sign, text = "+", f"({c})"
            else:
                sign, c = "-" if c < 0 else "+", abs(c)
                text = "" if c == 1 and label is not None else str(c)
            if label is not None:
                text = f"{text}*{label}" if text else label
            parts.append((sign, text))
        if not parts:
            return "0"
        head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return head + "".join(f" {sign} {text}" for sign, text in parts[1:])


class LinExpr(Combination):
    """const + sum(coeff[name] * name), coefficients exact rationals.

    The keys are the unknowns' names and ONE, the key of the constant.
    """

    __slots__ = ()
    unit = ONE

    def __init__(self, const=0, coeffs=None):
        terms = {**(coeffs or {}), ONE: const}
        self.space = None
        self.terms = _summed((key, _rational(c)) for key, c in terms.items())

    @staticmethod
    def unknown(name: str) -> "LinExpr":
        return LinExpr._of(None, {name: 1})

    @staticmethod
    def coerce(x) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        return LinExpr(x)

    @property
    def const(self):
        return self.terms.get(ONE, 0)

    @property
    def coeffs(self) -> dict:
        return {name: c for name, c in self.terms.items() if name != ONE}

    @property
    def is_constant(self) -> bool:
        return self.terms.keys() <= {ONE}

    def substitute(self, assignment: dict):
        """Put in the values of solved unknowns: each moves into the constant."""
        return self._make(None, (
            (ONE, c * _rational(assignment[key])) if key in assignment else (key, c)
            for key, c in self.terms.items()
        ))

    def _rank(self, key):
        return (key == ONE, key)

    def _label(self, key):
        return None if key == ONE else key

    def __mul__(self, other):
        if isinstance(other, LinExpr):
            if other.is_constant:
                other = other.const
            elif self.is_constant:
                return other.scale(self.const)
            else:
                raise NonlinearError(
                    "product of two expressions with unknowns is not linear"
                )
        return Combination.__mul__(self, other)

    __rmul__ = __mul__


def solve_linear(equations) -> dict:
    """Solve ``expr == 0`` for each LinExpr in `equations`, in the unknowns they name.

    Returns a full assignment name -> int or Fraction.  Raises InconsistentSystem
    if no solution exists, and UnderdeterminedSystem if any unknown is free.

    The elimination is fraction-free (Bareiss 1968, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination"): each augmented
    row is scaled to integers by the lcm of its denominators, and each step
    divides exactly by the previous pivot, so every entry stays an integer
    minor of the scaled system.  A row scaled by a nonzero factor keeps its
    zeros, so the pivots, the free unknowns and the errors are those of
    Gauss-Jordan over Fractions; only a non-integral answer is a Fraction.
    """
    equations = [LinExpr.coerce(e) for e in equations]
    unknowns = sorted({n for e in equations for n in e.terms if n != ONE})
    rows = []
    for e in equations:
        row = [e.terms.get(n, 0) for n in unknowns] + [-e.const]
        m = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (m // x.denominator) for x in row])

    ncols = len(unknowns)
    pivots = []  # the pivot column of each echelon row
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(col)
    for row in rows[len(pivots):]:
        if row[ncols]:
            raise InconsistentSystem("constraints have no common solution")
    free = [unknowns[c] for c in range(ncols) if c not in pivots]
    if free:
        raise UnderdeterminedSystem(
            f"system does not determine: {', '.join(free)}"
        )
    # Every column is a pivot.  The last pivot, `prev`, is the determinant of
    # the scaled rows the echelon rows were built from, so by Cramer's rule
    # prev * x is integral and each division below is exact.
    y = [0] * ncols
    for k in reversed(range(ncols)):
        row = rows[k]
        rest = sum(row[j] * y[j] for j in range(k + 1, ncols))
        y[k] = (prev * row[ncols] - rest) // row[k]
    return {n: y[k] // prev if y[k] % prev == 0 else Fraction(y[k], prev)
            for k, n in enumerate(unknowns)}
