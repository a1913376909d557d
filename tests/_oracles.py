"""Enumeration helpers and slow reference computations that tests share."""


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


def bilinear_sum(form, u: dict, v: dict):
    """sum(u[a] * v[b] * (a.b)) over an intersection form, one product at a
    time through the public LinExpr arithmetic."""
    from chowkit.linexpr import LinExpr

    total = LinExpr(0)
    for a, ca in u.items():
        for b, cb in v.items():
            try:
                entry = form.gram[(a, b)]
            except KeyError:
                raise ValueError(f"intersection number {a}.{b} was never declared")
            total = total + ca * cb * entry
    return total
