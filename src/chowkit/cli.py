"""Command-line front end.

    chowkit worksheet run <file>... [--json] [--strict]
    chowkit schubert pdeg --gr K,N "EXPR" DIM
    chowkit schubert mult --gr K,N "EXPR"
    chowkit chern tau H2 HK K2 E
    chowkit curve <builtin> <value>... [<name>=<value>]...

Each value (EXPR, DIM, every curve and chern value) is one worksheet expression,
evaluated under the --gr Grassmannian where there is one: `-1/2`, `3*2` and
`pluecker{d=6, nodes=6}.genus` are values; `4.0`, `1e3` and `+3` are syntax errors.

Exit codes: 0 success, 1 assertion failures under --strict, 2 bad arguments,
parse or runtime errors.  All values print as exact integers or rationals.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .grassmann import GrassmannContext
from .worksheet import evaluate, parse
from .worksheet.builtins import BUILTINS, Record, schubert_class
from .worksheet.evaluate import Evaluator
from .worksheet.parse import parse_expression


def _parse_gr(spec: str) -> GrassmannContext:
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", spec)  # as `grassmannian (K, N)` reads them
    if m is None:
        raise ValueError(f"bad --gr value {spec!r}: expected K,N, two integers such as 3,5")
    return GrassmannContext(int(m[1]), int(m[2]))


def _value(text: str, ctx: GrassmannContext | None = None):
    """Evaluate one command-line value, such as 120*s[1,1,1]+16*s[2,1] or -1/2."""
    ev = Evaluator()
    ev.grassmann = ctx
    ev.no_grassmannian = "a Schubert class needs a Grassmannian: use chowkit schubert with --gr K,N"
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


def _run_builtin(name: str, tokens) -> int:
    """Call a worksheet builtin with command-line values and print the result.

    Positional values fill the builtin's argument groups in order and
    `name=value` tokens (a worksheet name before the first `=`, blanks
    around it allowed) fill its named arguments.
    """
    builtin = BUILTINS.get(name)
    if builtin is None:
        print(f"error: unknown curve formula {name!r}", file=sys.stderr)
        return 2
    values, named = [], {}
    try:
        for token in tokens:
            key, _, text = token.partition("=")
            key = key.strip()
            if not re.fullmatch(r"[A-Za-z_][\w']*", key):
                values.append(_value(token))
            elif key in named:
                raise ValueError(f"duplicate argument {key!r}")
            else:
                named[key] = _value(text)
        out = builtin.call(builtin.split(values), named)
        if isinstance(out, Record):
            out = " ".join(f"{k}={v}" for k, v in out.items())
        out = str(out)  # fails on an int too long to print, before anything is printed
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="chowkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    ws = sub.add_parser("worksheet", help="run worksheet files")
    wssub = ws.add_subparsers(dest="ws_command", required=True)
    run = wssub.add_parser("run", help="evaluate worksheets and report")
    run.add_argument("files", nargs="+")
    run.add_argument("--json", action="store_true", help="emit JSON reports")
    run.add_argument(
        "--strict", action="store_true", help="exit 1 if any assertion fails"
    )

    sch = sub.add_parser("schubert", help="Schubert calculus expressions")
    schsub = sch.add_subparsers(dest="sch_command", required=True)
    pdeg = schsub.add_parser("pdeg", help="Pluecker degree of a cycle")
    pdeg.add_argument("--gr", required=True, metavar="K,N")
    pdeg.add_argument("expr")
    pdeg.add_argument("dim")
    mult = schsub.add_parser("mult", help="normal form of a Schubert expression")
    mult.add_argument("--gr", required=True, metavar="K,N")
    mult.add_argument("expr")

    chern = sub.add_parser("chern", help="surface characteristic classes")
    chern.add_argument(
        "formula", choices=["tau"], help="tau: triple-point count from H2 HK K2 e"
    )
    curve = sub.add_parser(
        "curve", help="call a worksheet builtin that needs no worksheet context"
    )
    curve.add_argument("formula")
    for p in (chern, curve):  # the values follow a positional, so they may start with '-'
        p.add_argument("args", nargs=argparse.REMAINDER)

    args = ap.parse_args(argv)

    if args.command == "worksheet":
        return _run_worksheets(args)
    if args.command == "schubert":
        try:
            ctx = _parse_gr(args.gr)
            value = schubert_class(_value(args.expr, ctx))
            if args.sch_command == "pdeg":
                value = BUILTINS["pdeg"].call([[value, _value(args.dim, ctx)]], {})
            print(value)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    return _run_builtin(args.formula, args.args)


if __name__ == "__main__":
    sys.exit(main())
