#!/usr/bin/env python3
"""Build the standard set of reference tables into one directory.

Covers an exact distribution table for each solvable model family at
representative parameters, plus the three limit-law CDF grids. Every
run writes its own manifest, so the directory is self-describing.
"""

import argparse
import sys

from lppdet.cli import main as lppdet_main

RUNS = [
    ["dist", "square", "--t", "1.0", "--lmax", "12"],
    ["dist", "triangle", "--t", "1.0", "--alpha", "0.5", "--lmax", "11"],
    ["dist", "external", "--t", "1.0", "--alpha-plus", "0.3",
     "--alpha-minus", "0.6", "--lmax", "12"],
    ["dist", "lattice-a", "--q", "0.3,0.2", "--qp", "0.25,0.2", "--lmax", "8"],
    ["dist", "lattice-b", "--q", "0.6", "--qp", "0.5,0.4,0.3", "--lmax", "6"],
    ["tw", "gue"],
    ["tw", "goe"],
    ["tw", "gse"],
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reference_tables")
    args = ap.parse_args()

    for run in RUNS:
        argv = ["--out-dir", args.out_dir, *run]
        print("lppdet " + " ".join(argv), flush=True)
        code = lppdet_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
