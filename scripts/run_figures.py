#!/usr/bin/env python3
"""Regenerate every canonical scenario and its SVG panels.

Writes runs/<preset>/ directories (CSV + manifest + figures) for all
presets and prints the classification summary per run.  Takes about 6 s
on a 2-CPU machine.

With ``--golden PATH`` it then runs ``bohmsim validate`` and writes the
golden record of the outputs to PATH as JSON: per preset the classification,
each trajectory's verdict and solver counts, and a blake2b digest of every
CSV and SVG; the five validate readings; the fig3 and fig4 gaps of the
tolerance-convergence gate (``convergence_gap``), so that the gate's margin
shows; and the environment key (numpy, BLAS, libc, machine) under which those
bits were made.  The committed ``tests/golden_presets.json`` is that file
for all presets, and the tier-1 tests compare the code against it.
Regenerate it when a change moves the bits on purpose, and explain the move:

    python scripts/run_figures.py --out-root /tmp/runs --golden tests/golden_presets.json
"""

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from bohmsim.cli import main as cli_main
from bohmsim.integrate import EnsembleSpec, IntegratorOptions, run_ensemble
from bohmsim.runio import read_manifest
from bohmsim.scenario import preset, preset_names
from bohmsim.validate import run_validation

# the per-trajectory manifest fields the golden record keeps: verdict, then solver counts
VERDICT_KEYS = ("crossed_plane", "final_direction")
COUNT_KEYS = ("steps", "rejected", "rhs_evals")
# the tolerance-convergence gate: the presets it runs on, and the rel_tol it halves
GATE_PRESETS = ("fig3", "fig4")
GATE_OPTS = (IntegratorOptions(rel_tol=1e-8), IntegratorOptions(rel_tol=5e-9))


def run_presets(names, out_root) -> int:
    """simulate + plot each preset into out_root/<name>; the number that failed."""
    failures = 0
    for name in names:
        out = f"{out_root}/{name}"
        t0 = time.perf_counter()
        rc = cli_main(["simulate", "--preset", name, "--out", out])
        rc |= cli_main(["plot", out])
        print(f"  ({time.perf_counter() - t0:.1f}s)\n")
        failures += rc != 0
    return failures


def environment() -> dict:
    """What the output bits depend on besides the code: where a golden file's bits hold."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "libc": " ".join(platform.libc_ver()), "machine": platform.machine()}


def preset_record(run_dir: Path) -> dict:
    """The golden record of one run directory."""
    manifest = read_manifest(run_dir)
    return {
        "classification": manifest["classification"],
        "trajectories": [{key: rec[key] for key in VERDICT_KEYS + COUNT_KEYS}
                         for rec in manifest["trajectories"]],
        "digests": {path.name: hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
                    for path in sorted(run_dir.iterdir()) if path.suffix in (".csv", ".svg")},
    }


def convergence_gap(params, base=None) -> float:
    """The largest move of a final X' on the default launch grid (``EnsembleSpec()``)
    when rel_tol is halved from 1e-8; ``base`` may pass in the grid's 1e-8 run."""
    loose, tight = GATE_OPTS
    if base is None:
        base = run_ensemble(EnsembleSpec(), params, loose)
    halved = run_ensemble(EnsembleSpec(), params, tight)
    return max(abs(a.x[-1] - b.x[-1]) for a, b in zip(base, halved))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-root", default="runs", help="parent directory for run output")
    parser.add_argument("--presets", default=",".join(preset_names()),
                        help="comma-separated preset names (default: all)")
    parser.add_argument("--golden", metavar="PATH",
                        help="also run the validate suites and write the golden record here")
    args = parser.parse_args()

    names = args.presets.split(",")
    if run_presets(names, args.out_root):
        return 1
    if not args.golden:
        return 0
    results = run_validation()
    golden = {
        "environment": environment(),
        "presets": {name: preset_record(Path(args.out_root, name)) for name in names},
        "validate": {r.name: r.detail for r in results},
        "convergence_gaps": {name: convergence_gap(preset(name).params) for name in GATE_PRESETS},
    }
    Path(args.golden).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
