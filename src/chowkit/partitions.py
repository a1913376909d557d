"""Partition combinatorics: the index set of the Schubert basis.

Partitions are plain tuples of weakly decreasing positive integers;
trailing zeros are trimmed on construction so equality is structural.
"""

from __future__ import annotations


def partition(parts) -> tuple:
    """Normalize an iterable of parts into a valid partition tuple."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x < 0:
            raise ValueError(f"negative part {x} in partition {p}")
        if i + 1 < len(p) and p[i + 1] > x:
            raise ValueError(f"parts not weakly decreasing: {p}")
    return p


def weight(lam: tuple) -> int:
    return sum(lam)


def fits_in_box(lam: tuple, rows: int, cols: int) -> bool:
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def conjugate(lam: tuple) -> tuple:
    """Transpose the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > c) for c in range(lam[0]))


def complement_in_box(lam: tuple, rows: int, cols: int) -> tuple:
    """Reversed box complement: mu[i] = cols - lam[rows - 1 - i]."""
    if not fits_in_box(lam, rows, cols):
        raise ValueError(f"partition {lam} does not fit in a {rows}x{cols} box")
    padded = tuple(lam) + (0,) * (rows - len(lam))
    return partition(cols - padded[rows - 1 - i] for i in range(rows))
