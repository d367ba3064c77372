#!/usr/bin/env python3
"""Benchmark of the npad library: four closed-loop workloads on the translate
configuration, end-to-end metrics from an untraced run and per-layer metrics
from a separate traced run. See bench/README.md.

Run from the root of a checkout:

  python3 bench/run.py --workload npad-translate --seed 0 --seconds 20 --trace 0
  python3 bench/run.py --self-check

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every operation succeeded and every output check passed.
"""
import os
import sys
import time

START = time.perf_counter()
START_LOADAVG = os.getloadavg()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> bool:
    """Pin BLAS to one thread and put this checkout's src/ first on the path.

    Both must happen before numpy or npad is imported. Returns False when the
    checkout has no library to measure.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "npad", "__init__.py")):
        print(f"error: no npad package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def main(argv=None) -> int:
    if not bootstrap():
        return 2
    import harness
    return harness.main(argv, START, START_LOADAVG)


if __name__ == "__main__":
    sys.exit(main())
