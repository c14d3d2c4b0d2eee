#!/usr/bin/env python3
"""Run every exact-sweep catalogue request once and record the failures.

    python3 perfbench/ledger.py

Prints one line per failing request (outcome, seconds, request id), a
count per stratum, and the passing request whose value lies closest to the
tolerance.  Writes the failing ids with their outcomes to
data/known_defects.json.  run.py leaves these requests out of the timed
loops, checks a seeded selection of them after each loop, and reports any
other failure as incorrect output.  Rerunning this after a change that
fixes a route moves the fixed requests into the timed mix, which changes
the benchmark: do it in a change of its own.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402
import checks  # noqa: E402
import common  # noqa: E402
from workloads import ExactSweep, model_spec  # noqa: E402


def main() -> int:
    common.import_program()
    refs = common.load_references()
    wl = ExactSweep(refs, {}, 0, common.SCRATCH)
    totals: dict[str, Counter] = {}
    defects: dict[str, str] = {}
    closest = (0.0, None)
    seen = set()
    strata = [(name, reqs) for name, (_, reqs) in catalogue.EXACT_STRATA.items()]
    for stratum, reqs in strata + [("ledger", catalogue.LEDGER)]:
        for req in reqs:
            if req["id"] in seen:
                continue
            seen.add(req["id"])
            op = {"req": req, "model": model_spec(req)}
            start = time.perf_counter()
            try:
                outcome, err = wl.check(op, wl.execute(op))
            except Exception as exc:  # a program failure is what this lists
                outcome, err = checks.exception_outcome(exc), None
            seconds = time.perf_counter() - start
            totals.setdefault(stratum, Counter())[outcome] += 1
            if outcome != "ok":
                defects[req["id"]] = outcome
                detail = f" err={err:.2e}" if err is not None else ""
                print(f"{stratum:18s} {outcome:13s} {seconds:6.2f}s {req['id']}{detail}", flush=True)
            elif err is not None and err > closest[0]:
                closest = (err, req["id"])
    for stratum, counts in totals.items():
        print(f"{stratum}: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    print(f"closest passing request: err={closest[0]:.2e} {closest[1]} "
          f"(tolerance {refs['tolerance_p']:.0e})")
    payload = {"commit": common.git_commit(), "tolerance_p": refs["tolerance_p"],
               "defects": dict(sorted(defects.items()))}
    common.KNOWN_DEFECTS.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(defects)} known defects to {common.KNOWN_DEFECTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
