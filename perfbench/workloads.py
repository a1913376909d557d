"""Workload inputs, their references, and the five timed phases.

Every workload runs the same five phases in each round, on its own inputs:

  derivation  tokenize -> parse -> evaluate of the six shipped worksheets
  cli_cold    one `python -m chowkit.cli worksheet run worksheets/*.ws --json --strict`
  staircase   `grassmann.multiply` on the workload's LR products
  chain       s[1]^N chains through `multiply` and Pieri degree ladders
  suite       tokenize -> parse -> evaluate of the workload's generated suite

The paper derivation and the CLI cold start are the same in every workload:
they are what every user of chowkit runs.  The workloads differ in the size
of the kernel and suite inputs, which decides the layer each one stresses:

  paper-derivation  the paper's own Gr(3,5)/Gr(2,4) products and degrees and a
                    paper-sized suite: the front end does nearly all the work,
                    so a kernel change aimed at large Grassmannians should
                    barely move it
  schubert-ladder   staircase squares on Gr(7,14)..Gr(10,20) (bound by tableau
                    counting) against s[1]^25 on Gr(5,10), s(4,3,2,1)^2 on
                    Gr(10,20) and deg Gr(k,2k) (bound by walking the box)
  worksheet-bulk    thousands of generated statements with dense solves and a
                    growing environment; kernel inputs stay at Gr(3,6) size

Each timed iteration starts with `lr_coefficient.cache_clear()`, the cost a
one-shot CLI user pays.  All output checks run outside the timed regions.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import bulkgen
from oracles import (
    deg_grassmannian,
    fits,
    hook_count,
    jt_product,
    lr_hook_identity,
    top_count,
    untruncated,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"

# every number in the paper's chain of worksheets
CHAIN_VALUES = ("210", "120", "132", "792", "612", "108", "90", "16", "152")

PHASES = ("derivation", "cli_cold", "staircase", "chain", "suite")

STAIRCASE = (5, 4, 3, 2, 1)

# Paper-sized kernel calls: the products and degrees of g24_schubert.ws,
# step1_bitangents.ws and final_degree.ws.
PAPER_PRODUCTS = [
    (3, 5, (1, 1, 1), (1, 1, 1)),
    (3, 5, (2, 1), (2, 1)),
    (3, 5, (1, 1, 1), (2, 1)),
    (3, 5, (1,), (1,)),
    (3, 5, (1, 1), (1,)),
    (3, 5, (2,), (1,)),
    (2, 4, (2,), (2,)),
    (2, 4, (1, 1), (1, 1)),
    (2, 4, (1,), (1,)),
]
PAPER_CHAINS = [
    ("power", 3, 5, 6),
    ("pdeg", 3, 5, {(1, 1, 1): 120, (2, 1): 16}, 3),
    ("pdeg", 3, 5, {(1, 1, 1): 120}, 3),
    ("pdeg", 2, 4, {(2,): 60, (1, 1): 72}, 2),
    ("pdeg", 3, 5, {(): 1}, 6),
    ("pdeg", 2, 4, {(): 1}, 4),
]

# Sizes: rungs and chains of each workload at full size and in smoke mode.
PROFILES = {
    "paper-derivation": {
        "full": {"products": PAPER_PRODUCTS, "chains": PAPER_CHAINS, "reps": 40,
                 "suite": {"worksheets": 2, "chain": 2, "lattice": 1, "curves": 1, "integrals": 1}},
        "smoke": {"products": PAPER_PRODUCTS, "chains": PAPER_CHAINS, "reps": 1,
                  "suite": {"worksheets": 2, "chain": 1, "lattice": 1, "curves": 1, "integrals": 1}},
    },
    "schubert-ladder": {
        "full": {
            "products": [(k, 2 * k, STAIRCASE, STAIRCASE) for k in (7, 8, 10)],
            "chains": [("power", 5, 10, 25), ("product", 10, 20, (4, 3, 2, 1), (4, 3, 2, 1))]
            + [("pdeg", k, 2 * k, {(): 1}, k * k) for k in range(3, 8)],
            "reps": 1,
            "cli_runs": 2,
            "suite": {"worksheets": 1, "chain": 8, "lattice": 2, "curves": 4, "integrals": 4},
        },
        "smoke": {
            "products": [(k, 2 * k, (3, 2, 1), (3, 2, 1)) for k in (5, 6)],
            "chains": [("power", 3, 6, 9), ("product", 6, 12, (3, 2, 1), (3, 2, 1))]
            + [("pdeg", k, 2 * k, {(): 1}, k * k) for k in range(2, 5)],
            "reps": 1,
            "suite": {"worksheets": 1, "chain": 1, "lattice": 1, "curves": 1, "integrals": 1},
        },
    },
    "worksheet-bulk": {
        "full": {"gr36_products": 24, "reps": 16, "cli_runs": 2,
                 "chains": [("power", 3, 6, 9)] + [("pdeg", k, 2 * k, {(): 1}, k * k) for k in (2, 3, 4)],
                 "suite": {"worksheets": 3, "chain": 40, "lattice": 12, "curves": 20, "integrals": 20}},
        "smoke": {"gr36_products": 4, "reps": 1,
                  "chains": [("power", 3, 6, 9)],
                  "suite": {"worksheets": 1, "chain": 4, "lattice": 2, "curves": 2, "integrals": 2}},
    },
}

WORKLOADS = tuple(PROFILES)


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark drives (src/chowkit, worksheets)."""


@dataclass
class Job:
    """One kernel call: a product, an s[1]^N chain or a Pluecker degree."""

    kind: str
    k: int
    n: int
    args: tuple
    ref: object = None  # reference result, when known before the run
    elements: tuple = ()


@dataclass
class Inputs:
    workload: str
    seed: int
    paper: list  # (path, text, reference document)
    orphans: list
    cli_command: list
    cli_reference: str
    jobs: dict  # phase -> list[Job]
    reps: int
    cli_runs: int
    suite: list  # bulkgen.Worksheet
    checksum: str = ""


def _partitions_of(total: int, rows: int, cols: int, cap=None):
    """Partitions of `total` in the box (own enumeration, not chowkit's)."""
    cap = cols if cap is None else cap
    if total == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(cap, total), 0, -1):
        for rest in _partitions_of(total - first, rows - 1, cols, first):
            yield (first,) + rest


def _reference(job: Job):
    """Reference result of a job from the oracles, or None to check after the run."""
    rows, cols = job.k, job.n - job.k
    if job.kind == "power":
        (power,) = job.args
        return {nu: hook_count(nu) for nu in _partitions_of(power, rows, cols)}
    if job.kind == "pdeg":
        terms, dim = job.args
        if terms == {(): 1} and dim == rows * cols:
            return deg_grassmannian(job.k, job.n)
        return top_count(terms, dim, rows, cols)
    lam, mu = job.args
    if rows * cols <= 16:
        return jt_product(lam, mu, rows, cols)
    return None  # large rungs: hook-length identity or restriction, after the first sample


def _gr36_products(rng: random.Random, count: int):
    shapes = [nu for w in range(1, 7) for nu in _partitions_of(w, 3, 3)]
    out = []
    while len(out) < count:
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        if 4 <= sum(lam) + sum(mu) <= 9:
            out.append((3, 6, lam, mu))
    return out


def setup(workload: str, seed: int, size: str = "full") -> Inputs:
    """Import chowkit, read and generate the inputs, and build the references."""
    if not (ROOT / "src" / "chowkit" / "__init__.py").is_file():
        raise SetupError(f"no chowkit sources under {ROOT / 'src'}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import chowkit.grassmann as G
    import chowkit.worksheet  # noqa: F401

    profile = PROFILES[workload][size]
    rng = random.Random(f"{workload}/{seed}")

    sheets = sorted((ROOT / "worksheets").glob("*.ws"))
    if not sheets:
        raise SetupError(f"no worksheets under {ROOT / 'worksheets'}")
    paper = []
    for path in sheets:
        ref = REFERENCES / (path.stem + ".json")
        rel = path.relative_to(ROOT).as_posix()
        expected = ref.read_text(encoding="utf-8") if ref.is_file() else None
        paper.append((rel, path.read_text(encoding="utf-8"), expected))
    # a reference without its worksheet is a failure of every derivation
    orphans = sorted({p.stem for p in REFERENCES.glob("*.json")} - {p.stem for p in sheets})
    cli_reference = "".join(p[2] or "" for p in paper)
    cli_command = ["worksheet", "run", *(p[0] for p in paper), "--json", "--strict"]

    products = list(profile.get("products", ()))
    if "gr36_products" in profile:
        products = _gr36_products(rng, profile["gr36_products"])
    jobs = {
        "staircase": [Job("product", k, n, (lam, mu)) for k, n, lam, mu in products],
        "chain": [Job(c[0], c[1], c[2], tuple(c[3:])) for c in profile["chains"]],
    }
    for phase_jobs in jobs.values():
        rng.shuffle(phase_jobs)
        for job in phase_jobs:
            job.ref = _reference(job)
            ctx = G.GrassmannContext(job.k, job.n)
            if job.kind == "product":
                job.elements = tuple(G.SchubertElement.sigma(ctx, p) for p in job.args)
            elif job.kind == "power":
                job.elements = (G.SchubertElement.sigma(ctx, ()), G.SchubertElement.sigma(ctx, (1,)))
            else:
                job.elements = (G.SchubertElement(ctx, job.args[0]),)

    suite = bulkgen.generate_suite(seed, profile["suite"])
    return Inputs(
        workload=workload,
        seed=seed,
        paper=paper,
        orphans=orphans,
        cli_command=cli_command,
        cli_reference=cli_reference,
        jobs=jobs,
        reps=profile["reps"],
        cli_runs=profile.get("cli_runs", 1),
        suite=suite,
        checksum=bulkgen.suite_checksum(suite),
    )


class Runner:
    """Runs phase samples and checks their outputs against the references."""

    def __init__(self, inputs: Inputs):
        import chowkit.grassmann as G
        import chowkit.worksheet as W

        self.G = G
        self.W = W
        self.inp = inputs
        self.attempted = 0
        self.failed = 0
        self.first_results: dict = {}  # (phase, job index) -> (first result, passed)
        self.cli_layers: dict = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def fail(self, what: str):
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def cold(self, tracer):
        lr = self.G.lr_coefficient
        if tracer.active:
            tracer.harvest_lr_cache(lr)
        lr.cache_clear()

    def run(self, phase: str, tracer) -> list:
        """One phase sample: a list of passes, each a list of seconds per job."""
        return getattr(self, "phase_" + phase)(tracer)

    # -- worksheets -----------------------------------------------------

    def _worksheets(self, texts, tracer):
        """Parse and evaluate each text, timing each one.

        Returns the reports, with an exception in place of a report that
        raised, and the seconds each text took.
        """
        W = self.W
        reports, times = [], []
        for text in texts:
            t0 = perf_counter()
            try:
                program = tracer.call("worksheet.parse", W.parse, text)
                report = tracer.call("worksheet.evaluate", W.evaluate, program)
            except Exception as exc:  # counted as a failed operation by the caller
                report = exc
            times.append(perf_counter() - t0)
            reports.append(report)
            if tracer.active and not isinstance(report, Exception):
                tracer.counters["worksheet.statements"] += len(program.statements)
        return reports, times

    def phase_derivation(self, tracer) -> list:
        paper = self.inp.paper
        self.cold(tracer)
        reports, times = self._worksheets([p[1] for p in paper], tracer)
        self.attempted += len(paper)
        chain_ok = set()
        for (path, _, expected), report in zip(paper, reports):
            if isinstance(report, Exception):
                self.fail(f"derivation {path}: {type(report).__name__}: {report}")
                continue
            doc = json.dumps({"worksheet": path, **report.as_dict()}, indent=2) + "\n"
            if doc != expected:
                self.fail(f"derivation {path}: --json document differs from the reference")
            chain_ok.update(a.expected for a in report.assertions if a.passed)
        self.attempted += 1
        missing = [v for v in CHAIN_VALUES if v not in chain_ok]
        if missing or self.inp.orphans:
            self.fail(f"derivation: chain values {missing} not asserted, orphan references {self.inp.orphans}")
        return [times]

    def phase_cli_cold(self, tracer) -> list:
        return [self._cli_run(tracer) for _ in range(self.inp.cli_runs)]

    def _cli_run(self, tracer) -> list:
        if tracer.active:
            cmd = [sys.executable, str(HERE / "cli_probe.py"), *self.inp.cli_command]
        else:
            cmd = [sys.executable, "-m", "chowkit.cli", *self.inp.cli_command]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        elapsed = perf_counter() - t0
        self.attempted += 1
        stdout = proc.stdout.decode("utf-8", "replace")
        if proc.returncode != 0 or stdout != self.inp.cli_reference:
            self.fail(f"cli: exit {proc.returncode}, output differs from the references")
        if tracer.active:
            try:
                probe = json.loads(proc.stderr.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                self.fail("cli: the probe printed no timestamps")
                return [elapsed]
            self.cli_layers = {
                "cli.interpreter_s": probe["start"] - t0,
                "cli.import_s": probe["imported"] - probe["start"],
                "cli.run_s": probe["ran"] - probe["imported"],
            }
        return [elapsed]

    def phase_suite(self, tracer) -> list:
        suite = self.inp.suite
        self.cold(tracer)
        reports, times = self._worksheets([s.text for s in suite], tracer)
        for sheet, report in zip(suite, reports):
            self.attempted += 1
            if isinstance(report, Exception):
                self.fail(f"suite {sheet.name}: {type(report).__name__}: {report}")
            elif not report.all_passed or len(report.assertions) != sheet.assertions:
                bad = [a.expression for a in report.assertions if not a.passed][:3]
                self.fail(f"suite {sheet.name}: assertions failing {bad}")
        return [times]

    # -- kernels --------------------------------------------------------

    def _job(self, job: Job):
        G = self.G
        if job.kind == "product":
            return G.multiply(*job.elements)
        if job.kind == "power":
            e, one = job.elements
            for _ in range(job.args[0]):
                e = G.multiply(e, one)
            return e
        return G.plucker_degree(job.elements[0], job.args[1])

    def _kernel_phase(self, phase: str, tracer) -> list:
        """`reps` passes over the phase's jobs, each job from a cold cache."""
        jobs = self.inp.jobs[phase]
        passes, results = [], []
        for rep in range(self.inp.reps):
            times = []
            for job in jobs:
                self.cold(tracer)
                t0 = perf_counter()
                try:
                    out = self._job(job)
                except Exception as exc:  # counted as a failed operation below
                    out = exc
                times.append(perf_counter() - t0)
                if rep == 0:
                    results.append(out)
            passes.append(times)
        # untruncated products first: truncated rungs are checked against them
        order = sorted(range(len(jobs)), key=lambda i: self._truncated(jobs[i]))
        for i in order:
            job, out = jobs[i], results[i]
            self.attempted += 1
            if not self._check(phase, i, job, out):
                self.fail(f"{phase} {job.kind} Gr({job.k},{job.n}) {job.args}: {out!s:.200}")
        return passes

    def phase_staircase(self, tracer) -> list:
        return self._kernel_phase("staircase", tracer)

    def phase_chain(self, tracer) -> list:
        return self._kernel_phase("chain", tracer)

    @staticmethod
    def _truncated(job: Job) -> bool:
        return job.kind == "product" and not untruncated(*job.args, job.k, job.n - job.k)

    def _check(self, phase, i, job: Job, out) -> bool:
        """Check the first sample against the oracles; later ones must repeat it."""
        if isinstance(out, Exception):
            return False
        value = out if job.kind == "pdeg" else dict(out.terms)
        key = (phase, i)
        if key in self.first_results:
            first, ok = self.first_results[key]
            return ok and value == first
        ok = self._oracle(phase, job, value)
        self.first_results[key] = (value, ok)
        return ok

    def _oracle(self, phase, job: Job, value) -> bool:
        if job.ref is not None:
            return value == job.ref
        lam, mu = job.args
        rows, cols = job.k, job.n - job.k
        if untruncated(lam, mu, rows, cols):
            return lr_hook_identity(lam, mu, value)
        # a truncated rung must be the untruncated product restricted to its box
        for j, other in enumerate(self.inp.jobs[phase]):
            full = self.first_results.get((phase, j))
            if other.args == job.args and not self._truncated(other) and full and full[1]:
                return value == {nu: c for nu, c in full[0].items() if fits(nu, rows, cols)}
        return False

    def oracle_triples(self, count: int) -> None:
        """Seeded commutativity and associativity checks, outside all timing."""
        G = self.G
        rng = random.Random(f"triples/{self.inp.workload}/{self.inp.seed}")
        k, n = 4, 8
        ctx = G.GrassmannContext(k, n)
        shapes = [nu for w in range(1, 9) for nu in _partitions_of(w, k, n - k)]
        for _ in range(count):
            a, b, c = (rng.choice(shapes) for _ in range(3))
            x, y, z = (G.SchubertElement.sigma(ctx, p) for p in (a, b, c))
            self.attempted += 1
            try:
                ok = G.multiply(x, y) == G.multiply(y, x)
                ok = ok and G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))
                ok = ok and dict(G.multiply(x, y).terms) == jt_product(a, b, k, n - k)
            except Exception as exc:  # counted as a failed operation
                ok = False
                print(f"triple {a} {b} {c}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if not ok:
                self.fail(f"commutativity/associativity on Gr({k},{n}) for {a}, {b}, {c}")
