"""Run one workload's set-up in this process and print its time as JSON.

    python3 bench/setup_child.py <workload> <fields JSON> <work dir> <seed>

``run.py`` starts this once per set-up repeat, so each set-up starts in a
fresh process; the time is taken here, around the set-up alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, fields, work, seed = argv
    workload = workloads.WORKLOADS[name](**json.loads(fields))
    seconds, timings = workloads.timed_setup(workload, Path(work), int(seed))
    print(json.dumps({"seconds": seconds, "timings": timings}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
