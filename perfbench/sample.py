#!/usr/bin/env python3
"""Run the benchmark over many seeds and save the result sets.

    python3 perfbench/sample.py --out DIR [--seeds 1-10] [--checkout PATH ...]

Runs every workload of BENCHMARK.json untraced and writes
DIR/<label>/<workload>.jsonl, one line per run ({"seed", "result",
"report"}), where <label> is the checkout's directory name.  With several
--checkout paths the runs for one seed go to each checkout in turn, and
the order flips from seed to seed, so the pairs alternate which side runs
first.  After each workload it prints, per end-to-end metric, the median,
the quartiles and the spread (quartile distance over median) against a
third of the metric's bound.  Compare two labels with
``python3 perfbench/run.py --compare DIR/<base> DIR/<head>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), {})
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "report": report}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--checkout", action="append", type=Path, default=[])
    args = ap.parse_args()

    spec = common.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = [c.resolve() for c in args.checkout] or [common.ROOT]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in workloads:
        runs = {c: [] for c in checkouts}
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for checkout in order:
                res = run_once(checkout, workload, seed, spec["run_seconds"])
                runs[checkout].append(res)
                dest = args.out / checkout.name
                dest.mkdir(parents=True, exist_ok=True)
                with open(dest / f"{workload}.jsonl", "a") as fh:
                    fh.write(json.dumps(res) + "\n")
                print(f"{workload} seed {seed} {checkout.name} ({res['wall_s']:.1f} s): "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["result"]["metrics"].items()),
                      flush=True)
        for checkout, results in runs.items():
            print(f"== {workload} ({checkout.name}, {len(results)} runs)")
            for name, meta in bounds.items():
                values = [r["result"]["metrics"][name]["value"] for r in results]
                med, q1, q3, rel = spread(values)
                limit = meta["bound"] / 3
                flag = "" if rel < limit or name == "setup_s" else "  <-- above bound/3"
                print(f"  {name:14s} median {med:.6g} {meta['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {rel:.4f} (bound/3 {limit:.4f}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
