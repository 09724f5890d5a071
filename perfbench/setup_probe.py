"""Time one workload's set-up in this fresh interpreter and print seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>

Set-up runs from ``import unruhlab.cli`` through config resolution and
initial-state construction, up to the first grid point.  run.py starts
this with src/ on PYTHONPATH.
"""

import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    import unruhlab.cli  # noqa: F401  (the import is what is timed)

    workloads.resolve_inputs(workload, seed, work)
    print(f"{time.perf_counter() - start!r}")


if __name__ == "__main__":
    main()
