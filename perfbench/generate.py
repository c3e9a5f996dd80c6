"""Write one workload's seeded input files into a directory.

    python3 perfbench/generate.py WORKLOAD SEED DIR

run.py calls this in a child process, so that the memory input generation
takes never counts toward the measured process's peak RSS.
"""

from __future__ import annotations

import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> None:
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: generate.py {{{','.join(WORKLOADS)}}} SEED DIR")
    WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]), Path(sys.argv[3]))


if __name__ == "__main__":
    main()
