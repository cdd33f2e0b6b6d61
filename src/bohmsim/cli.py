"""Command-line front end: simulate | plot | bench | validate.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 integration abort.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import classify_ensemble
from .bench import run_bench
from .integrate import BACKENDS, run_ensemble
from .rk45 import IntegrationAbort
from .runio import read_manifest, read_trajectory_csv, write_run
from .scenario import (Scenario, ScenarioError, load_scenario, preset, preset_names,
                       save_scenario, with_backend, with_n_particles, with_seed)
from .svgplot import Curve, render_chart
from .validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3


def _resolve_scenario(args) -> Scenario:
    if (args.preset is None) == (args.scenario is None):
        raise ScenarioError("exactly one of --preset or --scenario is required")
    sc = preset(args.preset) if args.preset else load_scenario(args.scenario)
    if args.backend:
        sc = with_backend(sc, args.backend)
    if args.n is not None:
        sc = with_n_particles(sc, args.n)
    if args.seed is not None:
        sc = with_seed(sc, args.seed)
    return sc


def cmd_simulate(args) -> int:
    try:
        sc = _resolve_scenario(args)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out) if args.out else Path("runs") / sc.name
    taken = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if taken is not None and not taken.is_dir():  # refused before integrating
        print(f"error: --out {out_dir}: {taken} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    try:
        t0 = time.perf_counter()
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        elapsed = time.perf_counter() - t0
    except IntegrationAbort as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    summary = classify_ensemble(trajs)
    manifest = write_run(out_dir, sc, trajs, summary, timing={"total_s": elapsed})
    save_scenario(sc, out_dir / "scenario.json")
    if sc.outputs.svg:
        _render_run(out_dir)

    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        cls = manifest["classification"]
        print(f"{sc.name}: {len(trajs)} trajectories -> {out_dir}")
        print(f"  backend={sc.ensemble.backend}  t_cross={manifest['t_cross']:g}"
              + (f"  E={manifest['fast_pointer_E']:g}"
                 if manifest["fast_pointer_E"] is not None else ""))
        print(f"  bounce={cls['bounce_fraction']:.3f}  crossing={cls['crossing_fraction']:.3f}"
              f"  downward={cls['downward_fraction']:.3f}  excluded={cls['excluded']}")
    return EXIT_OK


def _render_run(run_dir: Path) -> list[Path]:
    manifest = read_manifest(run_dir)
    if not manifest["trajectories"]:
        raise ValueError("run contains no trajectories")
    columns = manifest["columns"]
    name = manifest["scenario"]["name"]
    # each trajectory CSV is parsed once and feeds every panel
    runs = [(read_trajectory_csv(run_dir / rec["file"]), rec["initial_slit"])
            for rec in manifest["trajectories"]]
    written = []

    def emit(fname: str, vcol: str, title: str, ylabel: str):
        curves = [Curve(cols["Y"], cols[vcol], slit) for cols, slit in runs]
        path = run_dir / fname
        path.write_text(render_chart(curves, title, "Y'", ylabel), newline="\n")
        written.append(path)

    emit("test_particle.svg", "X", f"{name}: test particle", "X'")
    zcols = [c for c in columns if c.startswith("Z_")]
    is_single = manifest["fast_pointer_E"] is not None    # E exists for one rigid pointer
    if "Sigma_hat" not in columns and len(zcols) > 1 and is_single:
        # collective variable computed on the fly for a rigid multi-particle pointer
        for cols, _ in runs:
            cols["Sigma_hat"] = sum(cols[c] for c in zcols) / np.sqrt(len(zcols))
    if "Sigma_hat" in runs[0][0]:
        emit("pointer.svg", "Sigma_hat", f"{name}: pointer average", "Sigma_hat'")
    elif len(zcols) == 1:
        emit("pointer.svg", "Z_1", f"{name}: pointer", "Z'")
    else:
        for j, zc in enumerate(zcols, start=1):
            emit(f"pointer_{j}.svg", zc, f"{name}: pointer {j}", f"Z'_{j}")
    return written


def cmd_plot(args) -> int:
    try:
        written = _render_run(Path(args.run_dir))
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.json:
        print(json.dumps({"written": [str(p) for p in written]}, indent=2))
    else:
        for p in written:
            print(p)
    return EXIT_OK


def _parse_int(flag: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{flag} must hold integers, got {value!r}") from None


def cmd_bench(args) -> int:
    try:
        n_list = [_parse_int("--n-list", v) for v in args.n_list.split(",") if v]
        backends = [b.strip() for b in args.backends.split(",") if b.strip()]
        for b in backends:
            if b not in BACKENDS:
                raise ValueError(f"unknown backend {b!r}")
        report = run_bench(n_list, backends, args.repetitions)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.json:
        payload = {
            "records": [vars(r) for r in report.records],
            "reduced_core_ratio": report.reduced_core_ratio,
            "reduced_n_independent": report.reduced_n_independent,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    print(f"{'backend':<14} {'N':>9} {'core median':>12} {'steps':>7} {'reconstruct':>12}")
    for r in report.records:
        rec = f"{r.reconstruct_s:.4f} s" if r.reconstruct_s is not None else "-"
        print(f"{r.backend:<14} {r.n_particles:>9} {r.median_core_s * 1e3:>9.2f} ms "
              f"{r.steps:>7} {rec:>12}")
    if report.reduced_core_ratio is not None:
        verdict = "OK" if report.reduced_n_independent else "FAIL"
        print(f"reduced core max/min ratio: {report.reduced_core_ratio:.2f} "
              f"(< 2 expected) [{verdict}]")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        results = run_validation(only=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.json:
        print(json.dumps([vars(r) for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name:<22} {r.detail}  ({r.elapsed_s:.1f}s)")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohmsim",
        description="Pilot-wave trajectories for a two-slit interferometer "
                    "entangled with an N-particle which-way pointer.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write CSV/manifest")
    sim.add_argument("--preset", choices=preset_names(), help="named canonical scenario")
    sim.add_argument("--scenario", help="path to a scenario JSON file")
    sim.add_argument("--backend", choices=BACKENDS, help="override the scenario backend")
    sim.add_argument("--seed", type=int, help="draw pointer starts from |chi|^2 with this seed")
    sim.add_argument("--n", type=int, help="override the pointer particle count N")
    sim.add_argument("--out", help="output directory (default runs/<name>)")
    sim.add_argument("--json", action="store_true", help="print the manifest as JSON")
    sim.set_defaults(fn=cmd_simulate)

    plot = sub.add_parser("plot", help="render SVG panels from a run directory")
    plot.add_argument("run_dir", help="directory written by simulate")
    plot.add_argument("--json", action="store_true", help="print written paths as JSON")
    plot.set_defaults(fn=cmd_plot)

    bench = sub.add_parser("bench", help="time backends against pointer size N")
    bench.add_argument("--n-list", default="1,10,100", help="comma-separated N values")
    bench.add_argument("--backends", default="reduced,full-analytic",
                       help="comma-separated backends")
    bench.add_argument("--repetitions", type=int, default=3)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(fn=cmd_bench)

    val = sub.add_parser("validate", help="run the cross-check suites")
    val.add_argument("--only", help="run a single suite by name")
    val.add_argument("--json", action="store_true")
    val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
