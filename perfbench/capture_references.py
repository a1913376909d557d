#!/usr/bin/env python3
"""Capture the `--json` document of each shipped worksheet as a reference.

    python3 perfbench/capture_references.py

Run from the repository root at the commit whose output is the reference.
Writes perfbench/references/<worksheet>.json, byte for byte what
`python -m chowkit.cli worksheet run worksheets/<name>.ws --json --strict`
prints, and fails unless every run exits 0.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "references"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    for path in sorted((ROOT / "worksheets").glob("*.ws")):
        rel = path.relative_to(ROOT).as_posix()
        proc = subprocess.run(
            [sys.executable, "-m", "chowkit.cli", "worksheet", "run", rel, "--json", "--strict"],
            cwd=ROOT, env=env, capture_output=True, check=True,
        )
        (OUT / f"{path.stem}.json").write_bytes(proc.stdout)
        print(f"{rel}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
