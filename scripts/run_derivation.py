#!/usr/bin/env python3
"""Run every shipped worksheet in derivation order: `chowkit worksheet run --strict`.

The worksheets build up the count of tritangent planes to a general
genus-4 K3 surface in P^4: theta characteristics, the triple-point
check, the two scroll computations, and the final assembly to 152.
The exit code is the CLI's: 1 if an assertion fails, 2 on an error.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chowkit.cli import main

ORDER = [
    "g24_schubert.ws",
    "tau_k3.ws",
    "theta_counts.ws",
    "step1_bitangents.ws",
    "step2_secants.ws",
    "final_degree.ws",
]

if __name__ == "__main__":
    sys.exit(main(["worksheet", "run", *(str(ROOT / "worksheets" / name) for name in ORDER), "--strict"]))
