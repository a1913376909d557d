"""Seeded generator of large worksheet suites.

Every generated value is decided here first: lattice unknowns get their
solution before any constraint is written, and each constraint's right-hand
side is computed from that solution.  Each `assert` line carries an expected
value computed by this module with plain `Fraction` arithmetic, the classical
curve formulas and the Schubert oracles in `oracles.py`, so a passing report
checks the library against an independent computation.

A suite is a list of `Worksheet`s.  `suite_checksum` fingerprints the texts,
so two runs with the same seed provably evaluated the same program.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from oracles import jt_expand, top_count

# Gr(3, 6): a 3 x 3 box of dimension 9.
ROWS = COLS = 3
DIM = ROWS * COLS
BASIS_SIZE = 6
PAIRS = [(i, j) for i in range(BASIS_SIZE) for j in range(i, BASIS_SIZE)]
WEIGHT_3 = [(3,), (2, 1), (1, 1, 1)]
WEIGHT_4 = [(3, 1), (2, 2), (2, 1, 1)]


@dataclass(frozen=True)
class Worksheet:
    name: str
    text: str
    statements: int
    assertions: int


def lit(x) -> str:
    """A worksheet expression whose value is the rational x."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def combo(coeffs: dict, names) -> str:
    """Render sum(coeffs[i] * names[i]) in worksheet syntax."""
    out = ""
    for i, c in sorted(coeffs.items()):
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if not out:
            out = ("-" if c < 0 else "") + mag + names[i]
        else:
            out += (" - " if c < 0 else " + ") + mag + names[i]
    return out


def _rank_grows(rows: list, new: list) -> bool:
    """Row-reduce `new` against the echelon rows; append it if independent."""
    v = list(new)
    for r in rows:
        piv = next(i for i, x in enumerate(r) if x)
        if v[piv]:
            f = v[piv] / r[piv]
            v = [a - f * b for a, b in zip(v, r)]
    if any(v):
        rows.append(v)
        return True
    return False


class _Sheet:
    """Accumulates the lines of one worksheet and counts what it emits."""

    def __init__(self, rng: random.Random, shape: random.Random):
        self.rng = rng  # values
        self.shape = shape  # structure, the same for every seed
        self.lines: list[str] = []
        self.statements = 0
        self.assertions = 0

    def stmt(self, line: str):
        self.lines.append(line)
        self.statements += 1

    def check(self, expr: str, value):
        self.stmt(f"assert {expr} == {lit(value)}")
        self.assertions += 1

    # -- units ----------------------------------------------------------

    def chain(self, u: int, length: int = 10):
        """let/assert chain over exact rationals."""
        shape = self.shape
        names, vals = [], []
        for i in range(length):
            name = f"c{u}_{i}"
            if i == 0:
                v0 = self.rng.randint(2, 30)
                expr, val = str(v0), Fraction(v0)
            else:
                prev, pv = names[-1], vals[-1]
                j = shape.randrange(len(names))
                other, ov = names[j], vals[j]
                k = shape.randint(1, 9)
                op = shape.choice("+-*/")
                if op == "+":
                    expr, val = f"{prev} + {other} * {k}", pv + ov * k
                elif op == "-":
                    expr, val = f"({prev} - {k}) * {k} - {other}", (pv - k) * k - ov
                elif op == "*":
                    expr, val = f"{prev} * {k} + {other}", pv * k + ov
                else:
                    expr, val = f"({prev} + {other}) / {k}", (pv + ov) / k
            self.stmt(f"let {name} = {expr}")
            names.append(name)
            vals.append(val)
            if i % 2 == 1 or i == length - 1:
                self.check(name, val)

    def lattice(self, u: int, unknowns: int, canonical: bool):
        """Lattice with `unknowns` Gram unknowns pinned by one dense solve."""
        rng, shape = self.rng, self.shape
        b = [f"b{u}_{i}" for i in range(BASIS_SIZE)]
        xs = [f"x{u}_{t}" for t in range(unknowns)]
        sol = [Fraction(rng.randint(-6, 6)) for _ in xs]
        slot = dict(zip(shape.sample(PAIRS, unknowns), range(unknowns)))
        offset = {p: rng.randint(-4, 4) for p in PAIRS}
        gram = {}
        entries = []
        for p in PAIRS:
            t = slot.get(p)
            if t is None:
                gram[p] = Fraction(offset[p])
                entries.append(f"{b[p[0]]}.{b[p[1]]} = {lit(offset[p])}")
            else:
                gram[p] = sol[t] + offset[p]
                tail = "" if offset[p] == 0 else f" {'-' if offset[p] < 0 else '+'} {abs(offset[p])}"
                entries.append(f"{b[p[0]]}.{b[p[1]]} = {xs[t]}{tail}")

        def g(i, j):
            return gram[(i, j) if i <= j else (j, i)]

        def pair(v, w):
            return sum(v[i] * w[j] * g(i, j) for i in v for j in w)

        def vec():
            idx = shape.sample(range(BASIS_SIZE), 3)
            return {i: shape.choice([-3, -2, -1, 1, 2, 3]) for i in idx}

        cls = vec()
        lines = [f"lattice L{u} {{", f"  basis {', '.join(b)}", f"  unknown {', '.join(xs)}"]
        lines += [f"  {', '.join(entries[i:i + 7])}" for i in range(0, len(entries), 7)]
        lines.append(f"  class g{u} = {combo(cls, b)}")
        kvec = vec() if canonical else None
        if canonical:
            lines.append(f"  canonical = {combo(kvec, b)}")
        lines.append("}")
        self.lines.extend(lines)
        self.statements += 1

        echelon, constraints = [], []
        while len(constraints) < unknowns:
            v, w = vec(), vec()
            row = [Fraction(0)] * unknowns
            for i in v:
                for j in w:
                    t = slot.get((i, j) if i <= j else (j, i))
                    if t is not None:
                        row[t] += v[i] * w[j]
            if _rank_grows(echelon, row):
                constraints.append(f"  ({combo(v, b)}) * ({combo(w, b)}) == {lit(pair(v, w))}")
        self.lines.extend(["solve {", *constraints, "}"])
        self.statements += 1

        for t in shape.sample(range(unknowns), 3):
            self.check(xs[t], sol[t])
        for _ in range(2):
            v, w = vec(), vec()
            self.check(f"({combo(v, b)}) * ({combo(w, b)})", pair(v, w))
        j = shape.randrange(BASIS_SIZE)
        self.check(f"g{u} * {b[j]}", pair(cls, {j: 1}))
        if canonical:
            # genus(2C) = 1 + (4 C.C + 2 C.K) / 2 is integral for every C
            self.check(f"genus(2 * g{u})", 1 + 2 * pair(cls, cls) + pair(cls, kvec))

    def curves(self, u: int):
        """The classical curve builtins, each with its formula's value."""
        rng = self.rng
        gt, n = rng.randint(0, 4), rng.randint(1, 4)
        gs = max(0, 1 + n * (gt - 1)) + rng.randint(0, 5)
        self.stmt(f"let h{u} = hurwitz({gs}, {gt}, {n})")
        self.check(f"h{u}", 2 * gs - 2 - n * (2 * gt - 2))
        g = rng.randint(1, 8)
        self.check(f"odd_theta({g})", 2 ** (g - 1) * (2**g - 1))
        c = rng.randint(0, 6)
        self.check(f"degmult({c})", 2**c)
        e, f = rng.randint(0, 40), rng.randint(0, 40)
        self.check(f"coincidences({e}, {f}) - h{u}", e + f - (2 * gs - 2 - n * (2 * gt - 2)))
        d = rng.randint(3, 9)
        gg = rng.randint(0, comb(d - 1, 2))
        self.stmt(f"let sp{u} = secant_pluecker({d}, {gg})")
        self.check(f"sp{u}", comb(d - 1, 2) - gg + comb(d, 2))
        p1, p2 = rng.randint(0, 50), rng.randint(0, 50)
        total = p1 + p2 + rng.randint(0, 50)
        self.check(f"residual({total}; {p1}, {p2})", total - p1 - p2)
        ns = [rng.randint(1, 6) for _ in range(3)]
        i12, i13, i23 = (rng.randint(0, ns[a] * ns[b] // 2) for a, b in ((0, 1), (0, 2), (1, 2)))
        self.stmt(f"let t{u} = salmon_cayley({ns[0]}, {ns[1]}, {ns[2]}; {i12}, {i13}, {i23})")
        n1, n2, n3 = ns
        self.check(f"t{u}.degree", 2 * n1 * n2 * n3 - (i23 * n1 + i13 * n2 + i12 * n3))
        self.check(f"t{u}.m1", n2 * n3 - i23)
        self.check(f"t{u}.m2", n1 * n3 - i13)
        self.check(f"t{u}.m3", n1 * n2 - i12)
        # a nodal plane curve: class, flexes and bitangents by Pluecker's formulas
        d = rng.randint(3, 8)
        nodes = rng.randint(0, (d - 1) * (d - 2) // 2)
        m = d * (d - 1) - 2 * nodes
        flexes = 3 * d * (d - 2) - 6 * nodes
        bit = Fraction(m * (m - 1) - d - 3 * flexes, 2)
        self.stmt(f"let P{u} = pluecker{{d={d}, nodes={nodes}}}")
        self.check(f"P{u}.m", m)
        self.check(f"P{u}.flexes", flexes)
        self.check(f"P{u}.bitangents", bit)
        self.check(f"P{u}.genus", (d - 1) * (d - 2) // 2 - nodes)

    def integrals(self, u: int):
        """Gr(3,6) integrals and Pluecker degrees of Schubert monomials.

        Shapes have fixed weights, so every seed asks for the same amount of
        Littlewood-Richardson work.
        """
        shape = self.shape
        factors = [shape.choice(WEIGHT_3) for _ in range(3)]
        terms = {(): 1}
        for lam in factors:
            terms = jt_expand(lam, ROWS, COLS, start=terms)
        expr = " * ".join(f"s[{','.join(map(str, lam))}]" for lam in factors)
        self.check(f"integrate({expr})", terms.get((COLS,) * ROWS, 0))
        lam = shape.choice(WEIGHT_4)
        self.check(
            f"pdeg(s[{','.join(map(str, lam))}], {DIM - sum(lam)})",
            top_count({lam: 1}, DIM - sum(lam), ROWS, COLS),
        )
        a, c = shape.choice(WEIGHT_3), shape.choice(WEIGHT_3)
        self.stmt(f"let S{u} = s[{','.join(map(str, a))}] * s[{','.join(map(str, c))}]")

    def surface(self, u: int):
        """One surface: jet2_c2 against 5e + 5K^2 + 20 D.K + 15 D^2."""
        rng = self.rng
        hh, hk, kk, e = rng.randint(1, 10), rng.randint(-4, 4), rng.randint(-8, 8), rng.randint(0, 30)
        self.stmt(f"surface {{ H, K; H.H = {hh}, H.K = {lit(hk)}, K.K = {lit(kk)}; euler = {e} }}")
        self.check(f"tau({hh}, {lit(hk)}, {lit(kk)}, {e})", 5 * kk + 20 * hk + 15 * hh + 5 * e)
        for i in range(3):
            p, q = rng.randint(1, 4), rng.randint(-2, 2)
            dd = p * p * hh + 2 * p * q * hk + q * q * kk
            dk = p * hk + q * kk
            d_expr = f"{p} * H" + ("" if q == 0 else f" {'-' if q < 0 else '+'} {abs(q)} * K")
            self.stmt(f"let j{u}_{i} = jet2_c2({d_expr})")
            self.check(f"j{u}_{i}", 5 * e + 5 * kk + 20 * dk + 15 * dd)


def generate_suite(seed: int, size: dict) -> list[Worksheet]:
    """Worksheets for `seed`; `size` gives the worksheet count and units of each kind.

    The seed draws the values: constants, lattice solutions and Gram
    offsets, curve data.  The structure, which decides the amount of work,
    is drawn from a fixed generator: unit order, chain operations, which
    Gram entries are unknown, constraint vectors and Schubert shapes.  So
    every seed asks for the same work.  Lattice unknown counts cycle
    through 10..20.
    """
    rng = random.Random(f"worksheet-suite/{seed}")
    shape = random.Random("worksheet-suite-structure")
    sheets = []
    unknown_cycle = list(range(10, 21))
    next_unknowns = 0
    for w in range(size["worksheets"]):
        sheet = _Sheet(rng, shape)
        sheet.stmt(f"grassmannian ({ROWS}, {ROWS + COLS})")
        units = (
            ["chain"] * size["chain"]
            + ["lattice"] * size["lattice"]
            + ["curves"] * size["curves"]
            + ["integrals"] * size["integrals"]
        )
        shape.shuffle(units)
        if w == 0:
            units.insert(shape.randrange(len(units) + 1), "surface")
        # a worksheet has at most one canonical class, which binds K;
        # the surface worksheet binds K already
        canonical_at = None if w == 0 or not size["lattice"] else shape.randrange(size["lattice"])
        seen_lattices = 0
        for u, kind in enumerate(units):
            if kind == "lattice":
                n_unknowns = unknown_cycle[next_unknowns % len(unknown_cycle)]
                next_unknowns += 1
                sheet.lattice(u, n_unknowns, canonical=seen_lattices == canonical_at)
                seen_lattices += 1
            else:
                getattr(sheet, kind)(u)
        text = f"# generated worksheet {w} of suite seed {seed}\n" + "\n".join(sheet.lines) + "\n"
        sheets.append(Worksheet(f"suite_{w}.ws", text, sheet.statements, sheet.assertions))
    return sheets


def suite_checksum(sheets) -> str:
    h = hashlib.sha256()
    for s in sheets:
        h.update(s.name.encode() + b"\0" + s.text.encode() + b"\0")
    return h.hexdigest()[:16]
