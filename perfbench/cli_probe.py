"""`python -m chowkit.cli` with timestamps, for the traced CLI cold start.

Prints the CLI's own output unchanged and, as the last line of stderr, the
`time.perf_counter()` readings at interpreter start, after importing
`chowkit.cli` and after `main` returned.  perf_counter reads the system-wide
monotonic clock, so the parent can subtract its own spawn time.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import chowkit.cli  # noqa: E402

imported = time.perf_counter()
code = chowkit.cli.main(sys.argv[1:])
ran = time.perf_counter()
sys.stdout.flush()
print(json.dumps({"start": start, "imported": imported, "ran": ran}), file=sys.stderr)
sys.exit(code)
