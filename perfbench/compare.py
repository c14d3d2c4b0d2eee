"""Compare two result sets (directories of <workload>.jsonl from sample.py).

For each workload and end-to-end metric: each side's median and quartiles,
the pairwise wins of the head over the base (runs paired in seed order,
ties counting for neither), the head/base ratio with its base, and a verdict by
the rules of the choosing-metrics method:

* improved   the head wins at least 9 of 10 pairs and the medians differ
             by more than the base's quartile distance;
* worse      the head median is worse than the base median by more than
             the metric's bound;
* unresolved the base's spread is wider than the bound, unless every head
             run beats every base run;
* unchanged  otherwise.

A gain does not count when the head answers wrongly (a run with "correct"
false) or fails more: more timed operations, or a known-defect request
that the base passed.  Such a would-be "improved" is reported as
unresolved.  Failures are compared only where both runs of a pair share
their seed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import common


def _load(directory: Path) -> dict[str, list[dict]]:
    sets = {}
    for path in sorted(directory.glob("*.jsonl")):
        runs = [json.loads(line) for line in path.read_text().splitlines() if line]
        sets[path.stem] = sorted(runs, key=lambda run: run["seed"])
    return sets


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = statistics.quantiles(base, n=4)
    h_med = statistics.median(head)
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    losses = sum(sign * (h - b) < 0 for b, h in pairs)
    wins_text = f"{wins}/{len(pairs)} wins, {losses} losses"
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if wins >= 0.9 * len(pairs) and abs(h_med - b_med) > (b_q3 - b_q1):
        return "improved", wins_text
    if b_med and sign * (h_med - b_med) / abs(b_med) < -bound:
        return "worse", wins_text
    if b_spread > bound and not all_better:
        return "unresolved", wins_text
    return "unchanged", wins_text


def more_failures(base: dict, head: dict) -> bool:
    """Whether the head failed more timed operations than the base, or a
    known-defect request the base passed (both runs share a seed, and so
    their known-defect selection)."""
    if head["result"]["failed"] > base["result"]["failed"]:
        return True
    return bool(set(head["report"]["ledger"]["failed_ids"])
                - set(base["report"]["ledger"]["failed_ids"]))


def main(argv) -> int:
    base_dir, head_dir = (Path(a) for a in argv)
    spec = common.load_spec()
    base, head = _load(base_dir), _load(head_dir)
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in head:
            print(f"== {workload}: missing from {'base' if workload not in base else 'head'}")
            continue
        pairs = list(zip(base[workload], head[workload]))
        if len(pairs) < 2:
            print(f"== {workload}: {len(pairs)} pair of runs, too few to compare")
            continue
        wrong = sum(not h["result"]["correct"] for _, h in pairs)
        more = sum(more_failures(b, h) for b, h in pairs if b["seed"] == h["seed"])
        print(f"== {workload} (base {base_dir.name}, head {head_dir.name}: {len(pairs)} pairs; "
              f"head incorrect in {wrong}, failing more requests in {more})")
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            b = [bp["result"]["metrics"][name]["value"] for bp, _ in pairs]
            h = [hp["result"]["metrics"][name]["value"] for _, hp in pairs]
            bq1, bmed, bq3 = statistics.quantiles(b, n=4)
            hq1, hmed, hq3 = statistics.quantiles(h, n=4)
            kind, wins = verdict(b, h, metric["better"], metric["bound"])
            if kind == "improved" and (wrong or more):
                kind = "unresolved (the head fails more)"
            worse += kind == "worse"
            ratio = f"{hmed / bmed:.4f}x of base {bmed:.6g} {unit}" if bmed else "base is 0"
            print(f"  {name:12s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"head {hmed:.6g} [{hq1:.6g}, {hq3:.6g}] {unit}  {ratio}  {wins}  -> {kind}")
    return 1 if worse else 0
