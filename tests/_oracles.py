"""Enumeration helpers that several test files share."""


def partitions_in_box(rows: int, cols: int, total: int | None = None):
    """All partitions fitting in a rows x cols box, optionally of fixed weight."""

    def rec(maxpart, remaining_rows):
        yield ()
        if remaining_rows == 0:
            return
        for first in range(1, maxpart + 1):
            for rest in rec(first, remaining_rows - 1):
                yield (first,) + rest

    for lam in rec(cols, rows):
        if total is None or sum(lam) == total:
            yield lam
