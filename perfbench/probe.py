"""A run's set-up in a fresh interpreter, timed by run.py.

    python3 perfbench/probe.py WORKLOAD SEED SCRATCH_DIR

Imports ``lppdet.cli`` first and prints, as JSON, the seconds from the
interpreter's first statement to the end of that import.  Then it does
what run.py does before its timed loop: loads the references and the
known defects, builds the workload, warms it up and draws its first
requests.
"""

import os
import sys
import time

START = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import lppdet.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - START

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    workload, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    common.import_program()
    wl = WORKLOADS[workload](common.load_references(), common.load_known_defects(), seed, scratch)
    wl.warm_up()
    plan = wl.plan()
    for _ in range(64):
        next(plan)
    print(json.dumps({"import_s": IMPORT_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
