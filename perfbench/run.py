"""Couler benchmark: one seeded workload through the whole stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads: ``corpus``, ``bigdag``, ``burst``, ``steady`` (see
``perfbench/README.md``).  Progress and layer shares go to standard
error; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch files (journal dumps, span traces) stay inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters in which the import of the program is timed.
IMPORT_SAMPLES = 3
_IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from hostspeed import SpeedProbe, clock
with SpeedProbe() as probe:
    started = clock()
    import harness
    seconds = clock() - started
print(seconds / probe.slowdown())
"""


def import_seconds() -> float:
    """Median seconds, at the reference host speed, to import the
    benchmark and the program it drives, each sample taken in a fresh
    interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import make_workload, run_workload
    from workloads import WORKLOADS

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    # Only the end-to-end result reports set-up time.
    import_s = 0.0 if args.trace else import_seconds()

    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_workload(
        make_workload(args.workload, OUT_DIR),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        out_dir=OUT_DIR,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
