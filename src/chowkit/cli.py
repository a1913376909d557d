"""Command-line front end.

    chowkit worksheet run <file>... [--json] [--strict]
    chowkit eval [--gr K,N] EXPR

EXPR is one worksheet expression, evaluated under the --gr Grassmannian
where there is one: `-1/2`, `3*2`, `odd_theta(4)` and
`pluecker{d=6, nodes=6}.genus` are values; `4.0`, `1e3` and `+3` are syntax
errors.  `eval` prints any value as a worksheet binds it, a record in braces;
an EXPR that starts with `-` goes after `--`.

Exit codes: 0 success, 1 assertion failures under --strict, 2 bad arguments,
parse or runtime errors.  All values print as exact integers or rationals.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .grassmann import GrassmannContext
from .linexpr import printed
from .worksheet import evaluate, parse
from .worksheet.evaluate import Evaluator
from .worksheet.parse import max_digits, parse_expression


def _parse_gr(spec: str) -> GrassmannContext:
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", spec)  # as `grassmannian (K, N)` reads them
    if m is None:
        raise ValueError(f"bad --gr value {spec!r}: expected K,N, two integers such as 3,5")
    for name, digits in zip("KN", m.groups()):  # capped as a worksheet literal is; 0 is no cap
        if 0 < max_digits() < len(digits):
            raise ValueError(f"bad --gr value: {name} is longer than {max_digits()} digits")
    return GrassmannContext(int(m[1]), int(m[2]))


def _value(text: str, ctx: GrassmannContext | None = None):
    """Evaluate an `eval` EXPR, such as 120*s[1,1,1]+16*s[2,1] or -1/2."""
    ev = Evaluator()
    ev.grassmann = ctx
    ev.no_grassmannian = "a Schubert class needs a Grassmannian: use chowkit eval with --gr K,N"
    return ev.eval(parse_expression(text))


def _run_worksheets(args) -> int:
    any_failed = False
    hard_error = False
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as f:
                report = evaluate(parse(f.read()))
        except (OSError, ValueError) as exc:  # syntax, runtime and decoding errors
            print(f"{path}: error: {exc}", file=sys.stderr)
            hard_error = True
            continue
        if not report.all_passed:
            any_failed = True
        if args.json:
            doc = {"worksheet": path}
            doc.update(report.as_dict())
            print(json.dumps(doc, indent=2))
        else:
            _print_report(path, report)
    if hard_error:
        return 2
    if any_failed and args.strict:
        return 1
    return 0


def _print_report(path, report):
    print(f"== {path}")
    for name, value in report.bindings:
        print(f"  {name} = {value}")
    for a in report.assertions:
        mark = "ok " if a.passed else "FAIL"
        line = f"  [{mark}] {a.expression}"
        if not a.passed:
            line += f"  (actual {a.actual}, expected {a.expected})"
        print(line)
    for note in report.notes:
        print(f"  note: {note}")
    passed = sum(a.passed for a in report.assertions)
    print(f"  {passed}/{len(report.assertions)} assertions passed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="chowkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ws = sub.add_parser("worksheet", help="run worksheet files")
    wssub = ws.add_subparsers(dest="ws_command", required=True)
    run = wssub.add_parser("run", help="evaluate worksheets and report")
    run.add_argument("files", nargs="+")
    run.add_argument("--json", action="store_true", help="emit JSON reports")
    run.add_argument(
        "--strict", action="store_true", help="exit 1 if any assertion fails"
    )

    ev = sub.add_parser("eval", help="print the value of one worksheet expression")
    ev.add_argument("--gr", metavar="K,N", help="the Grassmannian of Schubert classes")
    ev.add_argument("expr")

    args = ap.parse_args(argv)

    if args.command == "worksheet":
        return _run_worksheets(args)
    try:
        ctx = None if args.gr is None else _parse_gr(args.gr)
        out = printed(_value(args.expr, ctx), "the result")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)  # rendered in full above, so a failure prints nothing
    return 0


if __name__ == "__main__":
    sys.exit(main())
