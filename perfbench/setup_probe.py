"""One fresh-process set-up: import ``resnf.cli`` and write the
workload's problem files for a seed.

    python3 perfbench/setup_probe.py <src-dir> <workload> <seed> <out-dir>

``run.py`` times whole runs of this script to report ``setup_s``.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, write_problems


def main(argv: list[str]) -> int:
    src, workload, seed, out = argv
    sys.path.insert(0, src)
    import resnf.cli  # noqa: F401  (the import is the cost being timed)

    write_problems(WORKLOADS[workload], int(seed), Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
