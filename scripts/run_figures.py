#!/usr/bin/env python3
"""Regenerate every canonical scenario and its SVG panels.

Writes runs/<preset>/ directories (CSV + manifest + figures) for all
presets and prints the classification summary per run.  Takes about 6 s
serially on a 2-CPU machine; set BOHM_SIM_THREADS to parallelize the
ensembles.
"""

import argparse
import sys
import time

from bohmsim.cli import main as cli_main
from bohmsim.scenario import preset_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="runs", help="parent directory for run output")
    parser.add_argument("--presets", default=",".join(preset_names()),
                        help="comma-separated preset names (default: all)")
    args = parser.parse_args()

    failures = 0
    for name in args.presets.split(","):
        out = f"{args.out_root}/{name}"
        t0 = time.perf_counter()
        rc = cli_main(["simulate", "--preset", name, "--out", out])
        rc |= cli_main(["plot", out])
        print(f"  ({time.perf_counter() - t0:.1f}s)\n")
        failures += rc != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
