#!/usr/bin/env python3
"""Measure how fast the scaled finite-t law approaches its GUE limit.

Writes converge.csv with the per-intensity sup-norm distances and exits
nonzero if the distances fail to shrink as the intensity grows. The
default grid step matters: the finite-t law is an integer staircase, so
too coarse a grid can miss the worst gap for one intensity and reorder
the sup norms.
"""

import argparse
import sys

from lppdet.cli import main as lppdet_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="convergence")
    ap.add_argument("--t-list", default="4,7,10")
    ap.add_argument("--x-step", type=float, default=0.25)
    args = ap.parse_args()

    argv = ["--out-dir", args.out_dir,
            "converge", "--t-list", args.t_list,
            "--x-min", "-5", "--x-max", "2", "--x-step", str(args.x_step)]
    print("lppdet " + " ".join(argv), flush=True)
    return lppdet_main(argv)


if __name__ == "__main__":
    sys.exit(main())
