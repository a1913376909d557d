"""Spans around chowkit's public functions, recorded from outside the library.

`Tracer.install()` replaces each traced function at every chowkit module
attribute that holds it, which is where callers look it up (for example
`chowkit.grassmann.multiply`, which `SchubertElement.__mul__` calls, and
`chowkit.worksheet.evaluate.solve_linear`).  `Tracer.uninstall()` puts the
originals back.  Spans are kept in memory in flat arrays and written out
once, at the end of a run.

A span's self time is its duration minus the time covered by its child
spans.  Self times, call counts and layer counters are summed per phase
sample and folded into one row per round by the benchmark.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# Statement node class -> span name; other statements count as evaluate.other.
STATEMENT_KINDS = {
    "Let": "evaluate.let",
    "Input": "evaluate.input",
    "Assert": "evaluate.assert",
    "SolveBlock": "evaluate.solve",
    "LatticeDecl": "evaluate.lattice",
    "SurfaceDecl": "evaluate.surface",
}

CURVE_FUNCTIONS = (
    "plucker_solve",
    "hurwitz_ramification",
    "correspondence_coincidences",
    "salmon_cayley",
    "secant_plucker_degree",
    "odd_theta_count",
    "degeneration_multiplicity",
    "residual_degree",
)


class NullTracer:
    """Calls straight through; used for the untraced measurements."""

    active = False

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    active = True

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per closed span
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_sample = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.next_id = 0
        self.stack: list[list] = []  # [span id, child time]
        self.sample = -1
        self.self_time: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.patches: list = []
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        stack = self.stack
        sid = self.next_id
        self.next_id += 1
        frame = [sid, 0.0]
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.self_time[name] += dur - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += dur
            nid = self.name_ids.get(name)
            if nid is None:
                nid = self.name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_name.append(nid)
            self.span_sample.append(self.sample)
            self.span_start.append(t0)
            self.span_end.append(t1)

    def take(self) -> tuple[dict, dict, dict]:
        """Return and reset the self times, call counts and counters so far."""
        out = (dict(self.self_time), dict(self.calls), dict(self.counters))
        self.self_time.clear()
        self.calls.clear()
        self.counters.clear()
        return out

    def harvest_lr_cache(self, lr):
        """Add the cache's hit count before the benchmark clears it."""
        self.counters["grassmann.lr_hits"] += lr.cache_info().hits

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, post=None):
        call = self.call
        counters = self.counters
        if post is None:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                out = call(name, fn, *args, **kwargs)
                post(counters, out, args)
                return out
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _replace(self, fn, wrapper):
        """Swap `fn` for `wrapper` at every chowkit module attribute holding it."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "chowkit" or modname.startswith("chowkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self.patches.append((mod, attr, fn))
                    found = True
        return found

    def _function(self, module, attr, name, post=None, extra=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(name, fn, post)
        for key, value in (extra or {}).items():
            setattr(wrapper, key, value)
        self._replace(fn, wrapper)

    def _method(self, cls, attr, wrapper):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, wrapper(orig))
        self.patches.append((cls, attr, orig))

    def install(self):
        import chowkit.curves as curves
        import chowkit.grassmann as grassmann
        import chowkit.lattice as lattice
        import chowkit.linexpr as linexpr
        import chowkit.surface as surface
        import chowkit.worksheet  # noqa: F401

        # the package re-exports functions named like these two modules
        evaluate = sys.modules["chowkit.worksheet.evaluate"]
        parse_mod = sys.modules["chowkit.worksheet.parse"]
        self._function(parse_mod, "tokenize", "worksheet.tokenize", _count_tokens)

        lr = grassmann.lr_coefficient
        self._function(
            grassmann,
            "lr_coefficient",
            "grassmann.lr",
            _count_nonzero,
            extra={"cache_info": lr.cache_info, "cache_clear": lr.cache_clear},
        )
        self._function(grassmann, "multiply", "grassmann.multiply")
        self._function(grassmann, "pieri", "grassmann.pieri")
        self._function(grassmann, "plucker_degree", "grassmann.plucker_degree")
        box = getattr(grassmann, "partitions_in_box", None)
        if box is None:
            self.missing.append("chowkit.grassmann.partitions_in_box")
        else:
            self._replace(box, self._box_wrapper(box))
        self._function(linexpr, "solve_linear", "linexpr.solve", _count_unknowns)
        self._function(lattice, "intersect", "lattice.intersect")
        self._function(surface, "jet_chern", "surface.jet_chern")
        for attr in CURVE_FUNCTIONS:
            self._function(curves, attr, "curves")

        call = self.call

        def statement(orig):
            def wrapper(ev, s):
                return call(STATEMENT_KINDS.get(type(s).__name__, "evaluate.other"), orig, ev, s)
            return wrapper

        def substitute(orig):
            def wrapper(ev, assignment):
                return call("evaluate.substitute", orig, ev, assignment)
            return wrapper

        self._method(evaluate.Evaluator, "statement", statement)
        self._method(evaluate.Evaluator, "substitute_everywhere", substitute)

    def _box_wrapper(self, fn):
        """partitions_in_box is a generator: enumerate it inside the span.

        The denominator of box_useful_ratio is the size of the whole box,
        C(rows + cols, rows), which a fixed-weight query walks today.
        """
        call = self.call
        counters = self.counters

        def wrapper(rows, cols, total=None):
            out = call("partitions.box", lambda: list(fn(rows, cols, total)))
            counters["partitions.yielded"] += len(out)
            counters["partitions.box_size"] += comb(rows + cols, rows)
            return iter(out)

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    # -- output ---------------------------------------------------------

    def write(self, path, meta: dict):
        """Write every span as one JSON line, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(self.span_start) if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"meta": meta, "names": self.names}) + "\n")
            for i in range(len(self.span_id)):
                f.write(
                    f"[{self.span_id[i]},{self.span_parent[i]},{self.span_name[i]},"
                    f"{self.span_sample[i]},{(self.span_start[i] - t0) * 1e6:.1f},"
                    f"{(self.span_end[i] - t0) * 1e6:.1f}]\n"
                )
        return len(self.span_id)


def _count_tokens(counters, out, args):
    counters["worksheet.tokens"] += len(out)


def _count_nonzero(counters, out, args):
    if out:
        counters["grassmann.lr_nonzero"] += 1


def _count_unknowns(counters, out, args):
    counters["linexpr.unknowns"] += len(out)
