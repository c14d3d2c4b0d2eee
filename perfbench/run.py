#!/usr/bin/env python3
"""lppdet benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE_DIR HEAD_DIR

Prints every metric by name with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 each
request runs twice, untraced and traced, and the metrics are the per-layer
ones of the traced runs, with the tracing overhead against the untraced.
"attempted" and "failed" count the timed loop's operations.  The known
defects (data/known_defects.json) stay out of the timed loop; a seeded
selection of them runs once after it, and its outcomes go to the "report"
line.  "correct" is false when an output cannot be read, when a timed
operation fails, or when a known defect fails in another way than listed.
Exits 2 without a result when the program sources, the references or the
known-defect list are missing.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def execute(wl, op: dict) -> None:
    """Run one request; the program's failure is a counted outcome."""
    clock = time.perf_counter
    t0 = clock()
    try:
        op["result"], op["raised"] = wl.execute(op), None
    except Exception as exc:
        op["result"], op["raised"] = None, checks.exception_outcome(exc)
        op["error"] = f"{type(exc).__name__}: {str(exc)[:200]}"
    op["seconds"] = clock() - t0


def run_loop(wl, seconds: float, tracer=None, pause=None,
             pauses: int = 0) -> tuple[list[dict], list[dict], float]:
    """Closed loop: the next request goes out when the previous one returns.

    Stops once ``seconds`` of loop time have passed, at the first request
    the plan marks as a boundary (every request, unless the plan says
    otherwise).  With a tracer, each request runs twice, untraced and
    traced, in an order that alternates from request to request; the
    second list holds the traced twins.  ``pause`` is called ``pauses``
    times, evenly spaced over the loop; its time is not loop time.
    Returns the loop time.
    """
    records, twins = [], []
    marks = [seconds * (i + 1) / (pauses + 1) for i in range(pauses)]
    clock = time.perf_counter
    start, paused = clock(), 0.0
    for op in wl.plan():
        if marks and clock() - start - paused >= marks[0]:
            marks.pop(0)
            t0 = clock()
            pause()
            paused += clock() - t0
        if clock() - start - paused >= seconds and op.get("boundary", True):
            break
        if tracer is None:
            execute(wl, op)
        else:
            twin = wl.traced_twin(op)
            for traced in ((False, True) if len(records) % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = len(records)
                    tracer.install()
                    try:
                        execute(wl, twin)
                    finally:
                        tracer.uninstall()
                else:
                    execute(wl, op)
            twins.append(twin)
        records.append(op)
    return records, twins, clock() - start - paused


def classify(wl, records: list[dict]) -> None:
    for op in records:
        if op["raised"] is not None:
            op["outcome"], op["err"] = op["raised"], None
        else:
            op["outcome"], op["err"] = wl.check(op, op["result"])


def label(op: dict) -> str:
    return f"{op['outcome']}: {op['req']['id'] if op.get('req') else op['argv']}"


def unexpected_failures(records: list[dict], defects: dict[str, str]) -> list[str]:
    """Failures the known-defect ledger does not explain: wrong answers.

    A request the ledger lists may fail as measured, or with a clear
    refusal (exit 2 or 3) in its place; any other request may not fail.
    Monte Carlo checks also fail by chance: the z-check trips about once in
    10^5 simulations of a correct sampler, so one z-fail in a run is
    allowed and a second is not.  An operation the workload marks as
    ``chance`` failed only the program's own statistical test and passed
    the benchmark's z-check.
    """
    wrong, z_fails = [], []
    for op in records:
        outcome = op["outcome"]
        if outcome == "ok" or op.get("chance"):
            continue
        if outcome == "z-fail":
            z_fails.append(op)
            continue
        known = defects.get(op["req"]["id"]) if op.get("req") else None
        if known is None or outcome not in (known, "exit2", "exit3"):
            wrong.append(op)
    if len(z_fails) > 1:
        wrong += z_fails
    return [label(op) for op in wrong]


def summary(wl, records: list[dict], elapsed: float) -> dict:
    times = [op["seconds"] for op in records]
    errs = [op["err"] for op in records if op["err"] is not None]
    failed = sum(op["outcome"] != "ok" for op in records)
    by_stratum: dict[str, Counter] = {}
    for op in records:
        by_stratum.setdefault(op["stratum"], Counter())[op["outcome"]] += 1
    draws = sum(wl.draws(op) for op in records) if hasattr(wl, "draws") else 0
    return {
        "attempted": len(records),
        "failed": failed,
        "elapsed_s": elapsed,
        "ops_per_s": len(records) / elapsed,
        "op_p50_s": statistics.median(times),
        "op_p90_s": common.quantile(times, 0.9),
        "samples_beyond_p90": sum(t > common.quantile(times, 0.9) for t in times),
        "failed_frac": failed / len(records),
        "err_max": max(errs) if errs else None,
        "draws_per_s": draws / elapsed if draws else None,
        "outcomes": {k: dict(v) for k, v in sorted(by_stratum.items())},
        "stratum_median_s": {k: statistics.median(op["seconds"] for op in records
                                                  if op["stratum"] == k)
                             for k in sorted(by_stratum)},
        "failures": sorted({label(op) for op in records if op["outcome"] != "ok"}),
    }


def ledger_summary(ledger: list[dict]) -> dict:
    """Outcomes of the known-defect requests run after the timed loop."""
    failed = [op for op in ledger if op["outcome"] != "ok"]
    return {
        "attempted": len(ledger),
        "failed": len(failed),
        "failed_frac": len(failed) / len(ledger) if ledger else None,
        "outcomes": dict(Counter(op["outcome"] for op in ledger)),
        "failed_ids": sorted(op["req"]["id"] for op in failed),
        "fixed_ids": sorted(op["req"]["id"] for op in ledger if op["outcome"] == "ok"),
    }


def layer_report(wl, tracer, records: list[dict], twins: list[dict]) -> dict:
    """Per-layer metrics of the traced twins, and the tracing overhead."""
    if wl.in_process:
        spans, calls = tracer.spans, None
    else:
        spans, calls = wl.cli_spans(twins)
    metrics = tracing.layer_metrics(spans, calls)
    base = sum(op["seconds"] for op in records)
    with_spans = sum(op["seconds"] for op in twins)
    metrics["trace.overhead_s"] = (with_spans - base) / len(records)
    metrics["trace.overhead_frac"] = with_spans / base - 1.0
    common.OUT.mkdir(exist_ok=True)
    tracing.dump_spans(spans, common.OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl.gz")
    return metrics


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value!r:>24} {units[name]}")


PROBES = 7  # fresh-interpreter set-ups per untraced run: one before the loop, the rest during it


def run(args) -> int:
    common.import_program()
    refs = common.load_references()
    defects = common.load_known_defects()
    tmp = common.make_scratch()
    try:
        wl = WORKLOADS[args.workload](refs, defects, args.seed, tmp)
        # set-up and import are sampled across the whole loop, so one slow
        # stretch of a shared machine does not decide either median
        probes = []

        def probe():
            probes.append(common.setup_sample(args.workload, args.seed, tmp, len(probes)))

        if not args.trace:
            probe()
        wl.warm_up()
        env = common.environment_record(args.seed)
        print("environment " + json.dumps(env, sort_keys=True))
        tracer = tracing.Tracer() if args.trace else None
        # a traced run executes every request twice, so it draws half as many
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, twins, elapsed = run_loop(wl, seconds, tracer, probe,
                                           0 if args.trace else PROBES - 1)
        peak = common.peak_rss_mb(children=not wl.in_process)
        ledger = wl.ledger_plan()
        for op in ledger:
            execute(wl, op)
        classify(wl, records + twins + ledger)
        summ = summary(wl, records, elapsed)
        if args.trace:
            metrics = layer_report(wl, tracer, records, twins)
            units = common.metric_units("per_layer")
            attempted = len(twins)
            failed = sum(op["outcome"] != "ok" for op in twins)
        else:
            metrics = {"setup_s": statistics.median(wall for wall, _ in probes),
                       "ops_per_s": summ["ops_per_s"],
                       "op_p50_s": summ["op_p50_s"], "op_p90_s": summ["op_p90_s"],
                       "peak_rss_mb": peak}
            units = common.metric_units("end_to_end")
            attempted, failed = summ["attempted"], summ["failed"]
        # a traced twin repeats its request's seed, so only the untraced runs pool
        wrong = (unexpected_failures(records, defects) + unexpected_failures(twins, defects)
                 + unexpected_failures(ledger, defects) + wl.pooled_failures(records))
        report = {k: v for k, v in summ.items()
                  if k not in ("outcomes", "failures", "stratum_median_s")}
        report["unexpected"] = len(wrong)
        report["ledger"] = ledger_summary(ledger)
        if probes:
            report["setup_samples_s"] = [wall for wall, _ in probes]
            report["import_samples_s"] = [imp for _, imp in probes]
            report["import_s"] = statistics.median(imp for _, imp in probes)
        print("report " + json.dumps(report, sort_keys=True))
        print("outcomes " + json.dumps(summ["outcomes"], sort_keys=True))
        print("stratum_median_s " + json.dumps(summ["stratum_median_s"], sort_keys=True))
        for line in summ["failures"]:
            print(f"  failed {line}")
        for op in ledger:
            print(f"  known defect {label(op)}")
        for line in wrong:
            print(f"  not a known defect: {line}")
        check_errors = [op["check_error"] for op in records + twins + ledger
                        if "check_error" in op]
        for line in check_errors:
            print(f"  unreadable output: {line}")
        print_metrics(f"{args.workload} seed {args.seed} "
                      f"({'per-layer, traced' if args.trace else 'end-to-end'}; "
                      f"{summ['attempted']} operations)", metrics, units)
    finally:
        common.remove_scratch(tmp)
    result = {
        "correct": not check_errors and not wrong and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "HEAD_DIR"),
                    help="compare two result sets written by perfbench/sample.py")
    args = ap.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare)
    if not args.workload:
        ap.error("--workload is required")
    os.environ.update(common.ONE_BLAS_THREAD)  # before numpy loads, here and in every child
    try:
        return run(args)
    except common.SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
