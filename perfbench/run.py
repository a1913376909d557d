#!/usr/bin/env python3
"""chowkit benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload paper-derivation --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  One process drives chowkit from outside,
as a single caller in a closed loop: each round runs the five phases of
`workloads.py` once, one after the other, and rounds repeat until
`--seconds` have passed.  CLI subprocesses run one at a time.  Every output
is checked against the references outside the timed regions.

--trace 0 reports the end-to-end metrics: for each phase, the sum over its
jobs (worksheets, products, chains) of each job's fastest time in the run;
the median set-up time of fresh processes spread over the run; and peak
RSS.  Phase
metrics are built from minima, not medians, because on a small shared
machine the median of a 40-second run moves by about a fifth from run to
run with the load of other tenants, while a job's minimum moves by a few
percent.  The details line gives each phase's per-pass median, minimum,
sample count and high percentile as well.
--trace 1 reports the per-layer metrics instead.  Its rounds alternate
between traced (spans around chowkit's public functions) and untraced, so
the run also measures the tracing overhead; the spans are written to
.perfbench_out/.

The last line of standard output is the machine-readable result:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds
the details: environment, sample counts, high percentiles, the suite
checksum and failed_share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports no chowkit code)
from spans import NullTracer, Tracer  # noqa: E402

SETUP_SAMPLES = 11
TRIPLES = 12
CACHE_POLICY = "lr_coefficient.cache_clear() before every timed iteration (cold cache)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "derivation_s": "s",
    "cli_cold_s": "s",
    "staircase_s": "s",
    "chain_s": "s",
    "suite_s": "s",
    "peak_rss_mb": "MB",
}

KINDS = ("let", "input", "assert", "solve", "lattice", "surface")


def _self(*names):
    return lambda r: sum(r["self"].get(n, 0.0) for n in names)


def _calls(name):
    return lambda r: r["calls"].get(name, 0)


def _count(name):
    return lambda r: r["counters"].get(name, 0)


def _ratio(num, den):
    return lambda r: num(r) / den(r) if den(r) else 0.0


# per-layer metric -> (unit, how it is computed from one traced round)
PER_LAYER = {
    "tokenize.s": ("s", _self("worksheet.tokenize")),
    "tokenize.tokens_per_s": ("1/s", _ratio(_count("worksheet.tokens"), _self("worksheet.tokenize"))),
    "parse.self_s": ("s", _self("worksheet.parse")),
    "parse.statements": ("count", _count("worksheet.statements")),
    "evaluate.self_s": (
        "s",
        _self("worksheet.evaluate", "evaluate.other", *(f"evaluate.{k}" for k in KINDS)),
    ),
    **{f"evaluate.{k}_s": ("s", _self(f"evaluate.{k}")) for k in KINDS},
    "evaluate.substitute_s": ("s", _self("evaluate.substitute")),
    "grassmann.multiply_s": ("s", _self("grassmann.multiply")),
    "grassmann.multiply_calls": ("count", _calls("grassmann.multiply")),
    "grassmann.lr_s": ("s", _self("grassmann.lr")),
    "grassmann.lr_calls": ("count", _calls("grassmann.lr")),
    "grassmann.lr_hits": ("count", _count("grassmann.lr_hits")),
    "grassmann.lr_useful_ratio": ("ratio", _ratio(_count("grassmann.lr_nonzero"), _calls("grassmann.lr"))),
    "grassmann.pieri_s": ("s", _self("grassmann.pieri")),
    "grassmann.plucker_degree_s": ("s", _self("grassmann.plucker_degree")),
    "partitions.box_s": ("s", _self("partitions.box")),
    "partitions.box_useful_ratio": (
        "ratio",
        _ratio(_count("partitions.yielded"), _count("partitions.box_size")),
    ),
    "linexpr.solve_s": ("s", _self("linexpr.solve")),
    "linexpr.solve_calls": ("count", _calls("linexpr.solve")),
    "linexpr.unknowns": ("count", _count("linexpr.unknowns")),
    "lattice.intersect_s": ("s", _self("lattice.intersect")),
    "lattice.intersect_calls": ("count", _calls("lattice.intersect")),
    "surface.jet_chern_s": ("s", _self("surface.jet_chern")),
    "curves.s": ("s", _self("curves")),
    **{name: ("s", lambda r, name=name: r["cli"].get(name, 0.0))
       for name in ("cli.interpreter_s", "cli.import_s", "cli.run_s")},
}


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cache_policy": CACHE_POLICY,
        "loop": "closed loop, one caller, one process; CLI subprocesses one at a time",
    }


def summary(samples: list[float]) -> dict:
    """Minimum, median, sample count and the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"min": xs[0], "median": statistics.median(xs), "n": n}
    if n > 10:
        out["p_high"] = {"pct": round(100 * (n - 10) / n, 1), "value": xs[n - 11]}
    return out


def timed_setup(args):
    t0 = perf_counter()
    inputs = workloads.setup(args.workload, args.seed, args.size)
    return inputs, perf_counter() - t0


def setup_probe(args) -> float:
    """Set-up time of a fresh process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"]


def measure(args, runner, tracer, setup_s) -> list:
    """Round-robin the phases until the time is up; return the per-round rows.

    Unless `setup_s` is None, set-up probes run between rounds at evenly
    spaced times until it holds SETUP_SAMPLES values, so that they sample
    the same stretch of machine load as the phases.  Probe time does not
    count toward --seconds.
    """
    rows = []
    start = perf_counter()
    deadline = start + args.seconds
    spacing = args.seconds / SETUP_SAMPLES
    min_rounds = 2 if args.trace else 1
    null = NullTracer()
    while len(rows) < min_rounds or perf_counter() < deadline:
        due = start + spacing * len(setup_s or ())
        if setup_s is not None and len(setup_s) < SETUP_SAMPLES and perf_counter() >= due:
            t0 = perf_counter()
            setup_s.append(setup_probe(args))
            spent = perf_counter() - t0
            deadline += spent
            start += spent
        traced = args.trace and len(rows) % 2 == 1
        row = {"traced": bool(traced), "phases": {}, "spans": {}}
        for phase in workloads.PHASES:
            if traced:
                tracer.sample += 1
                tracer.install()
                try:
                    row["phases"][phase] = runner.run(phase, tracer)
                finally:
                    tracer.uninstall()
                    runner.cold(tracer)
                row["spans"][phase] = tracer.take()
            else:
                row["phases"][phase] = runner.run(phase, null)
        if traced:
            row["cli"] = dict(runner.cli_layers)
        rows.append(row)
    while setup_s is not None and len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup_probe(args))
    return rows


def fold(row) -> dict:
    """Sum one traced round's spans over its phases."""
    out = {"self": {}, "calls": {}, "counters": {}, "cli": row["cli"]}
    for self_time, calls, counters in row["spans"].values():
        for key, part in (("self", self_time), ("calls", calls), ("counters", counters)):
            for name, v in part.items():
                out[key][name] = out[key].get(name, 0) + v
    return out


def passes(rows, phase) -> list:
    """Every pass of a phase over the given rounds: lists of seconds per job."""
    return [p for r in rows for p in r["phases"][phase]]


def totals(rows, phase) -> list:
    return [sum(p) for p in passes(rows, phase)]


def best(rows, phase) -> float:
    """Sum over the phase's jobs of each job's fastest time in the given rounds."""
    return sum(min(job) for job in zip(*passes(rows, phase)))


def end_to_end(args, rows, setup_s) -> tuple[dict, dict]:
    metrics, details = {}, {}
    for phase in workloads.PHASES:
        metrics[f"{phase}_s"] = value = best(rows, phase)
        details[f"{phase}_s"] = {
            "sum_of_job_minima": value,
            "jobs": len(rows[0]["phases"][phase][0]),
            **summary(totals(rows, phase)),
        }
    s = summary(setup_s)
    metrics["setup_s"] = s["median"]
    details["setup_s"] = {**s, "samples": setup_s}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "n": 1}
    return metrics, details


def per_layer(rows) -> tuple[dict, dict]:
    traced = [r for r in rows if r["traced"]]
    plain = [r for r in rows if not r["traced"]]
    folded = [fold(r) for r in traced]
    metrics, details = {}, {}
    for name, (unit, get) in PER_LAYER.items():
        s = summary([get(f) for f in folded])
        metrics[name] = s["median"]
        details[name] = s
    inproc = [p for p in workloads.PHASES if p != "cli_cold"]
    t_traced = sum(best(traced, p) for p in inproc)
    t_plain = sum(best(plain, p) for p in inproc)
    metrics["trace.overhead_share"] = t_traced / t_plain - 1
    details["trace.overhead_share"] = {"traced_s": t_traced, "untraced_s": t_plain, "n": len(traced)}
    # tokenize + parse self + evaluate (with everything under it) should equal
    # the untraced derivation within the overhead; 5% allows for the noise
    # between different rounds
    covered = min(sum(r["spans"]["derivation"][0].values()) for r in traced)
    d_traced, d_plain = best(traced, "derivation"), best(plain, "derivation")
    details["derivation_accounting"] = {
        "untraced_s": d_plain,
        "traced_s": d_traced,
        "tokenize_parse_evaluate_s": covered,
        "overhead_s": d_traced - d_plain,
        "accounted_within_overhead": abs(covered - d_plain) <= max(d_traced - d_plain, 0.0) + 0.05 * d_plain,
    }
    return metrics, details


def run(args) -> int:
    try:
        inputs, first_setup = timed_setup(args)
    except (workloads.SetupError, ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark here: {exc}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else [first_setup]
    runner = workloads.Runner(inputs)
    tracer = Tracer() if args.trace else None
    rows = measure(args, runner, tracer, setup_s)
    runner.oracle_triples(TRIPLES)

    env = environment(args)
    if args.trace:
        metrics, details = per_layer(rows)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units["trace.overhead_share"] = "ratio"
        out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        spans = tracer.write(out, env)
        details["trace_file"] = {"path": out.relative_to(ROOT).as_posix(), "spans": spans, "missing": tracer.missing}
    else:
        metrics, details = end_to_end(args, rows, setup_s)
        units = END_TO_END_UNITS
    attempted, failed = runner.attempted, runner.failed
    print(json.dumps({
        "perfbench": {
            "env": env,
            "rounds": len(rows),
            "suite_checksum": inputs.checksum,
            "suite_statements": sum(s.statements for s in inputs.suite),
            "failed_share": failed / attempted,
            "metrics": details,
        }
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


def smoke(args) -> int:
    """Run every workload briefly at small sizes; check metrics, units and failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=170)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
                continue
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or not result["attempted"]:
                problems.append(f"{label}: failed_share {result['failed']}/{result['attempted']}")
            for m in spec[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or unit is not {m['unit']}")
            print(f"smoke {label}: {result['attempted']} checked, {result['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILURE: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--smoke", action="store_true", help="short run of every workload at small sizes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        try:
            _, seconds = timed_setup(args)
        except (workloads.SetupError, ImportError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
