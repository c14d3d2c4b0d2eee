#!/usr/bin/env python3
"""Check every exact law of the benchmark catalogue against its reference.

    python3 scripts/catalogue_check.py

Runs each request of ``catalogue.all_exact_requests()`` through
``build_dist_table`` of this checkout's ``src/``, classifies the table with
``checks.check_table`` against ``perfbench/data/references.json`` (values
computed without the program's routes), and prints one line per request:
outcome, seconds, largest |p - p_ref| and the request id.  A summary by
model kind and outcome follows.  Unlike ``perfbench/ledger.py`` it writes
nothing, so it can be run after any change without altering the benchmark.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import catalogue  # noqa: E402
import checks  # noqa: E402
import common  # noqa: E402
from workloads import model_spec  # noqa: E402


def main() -> int:
    common.import_program()
    from lppdet.exact_dist import build_dist_table

    refs = common.load_references()
    tol = refs["tolerance_p"]
    totals: dict[str, Counter] = {}
    for req in catalogue.all_exact_requests():
        start = time.perf_counter()
        try:
            table = build_dist_table(model_spec(req), req["lmax"])
            rows = {ell: p for ell, (_, p) in table.entries.items()}
            law = refs["laws"][catalogue.law_id(req)]
            outcome, err = checks.check_table(req, rows, law, tol)
        except Exception as exc:  # every program failure is an outcome here
            outcome, err = checks.exception_outcome(exc), None
        seconds = time.perf_counter() - start
        totals.setdefault(req["kind"], Counter())[outcome] += 1
        detail = f"{err:.2e}" if err is not None else "-"
        print(f"{outcome:13s} {seconds:7.3f}s {detail:>9s}  {req['id']}", flush=True)
    overall = sum(totals.values(), Counter())
    for kind, counts in sorted(totals.items()):
        print(f"{kind}: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    print(f"{overall['ok']} of {sum(overall.values())} requests pass "
          f"(tolerance {tol:.0e} on p)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
