"""Benchmark for bohmsim: end-to-end metrics per workload, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload canonical-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one process each, as a table

A run sets up ``SETUP_REPEATS`` times (import of bohmsim from ``src/``,
input generation, one untimed warm-up operation) and then repeats whole
rounds of the workload's operations until the next round would end after
``--seconds``.  It checks the outputs of the last round, and that every
round reproduced the first bit for bit, and prints one JSON object as its
last line of standard output.  With ``--trace 1`` the rounds alternate
untraced and traced, and the metrics are the per-layer ones.  See
README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import REF_S, Speedometer
from tracing import PER_LAYER, Tracer, per_layer, self_times, trace_points
from workloads import WORKLOADS, Ops

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
BRACKET_LOOPS = 3    # calibration loops before and after each pass and set-up
MODULES = ("_kernel", "model", "velocity", "reduced", "rk45", "integrate", "analysis",
           "scenario", "runio", "svgplot", "cli", "validate")
END_TO_END = (("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s"))


def tail_percentile(n: int) -> int:
    """The highest whole percentile of ``n`` samples with at least ten beyond it.

    numpy's default percentile sits at position p/100 * (n - 1) of the
    sorted samples; ten lie beyond it while that position is below n - 10.
    """
    return (100 * (n - 10) - 1) // (n - 1)


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``samples``.

    A mean of all order statistics, weighted by the Beta(q(n+1), (1-q)(n+1))
    mass of their rank interval.  It estimates the same quantile as one or
    two order statistics (numpy's default) with less noise: on ``wide-pointer``'s
    55 operations, the spread of p83 over ten seeds fell from 8-9% to 6-7%.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    pdf = np.exp((a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
                 + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def import_bohmsim() -> types.SimpleNamespace:
    """Import every bohmsim module afresh, so each set-up pays for the import."""
    for name in [k for k in sys.modules if k == "bohmsim" or k.startswith("bohmsim.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"bohmsim.{m}") for m in MODULES})


def set_up(cls, seed: int, out_dir: Path, tracer, speed: Speedometer):
    """Import, inputs and one warm-up operation, between two calibrations."""
    speed.tick(force=True, loops=BRACKET_LOOPS)
    t0 = perf_counter()
    mods = import_bohmsim()
    if tracer is not None:
        tracer.begin("setup")
        tracer.install(trace_points(mods))
    wl = cls(mods, seed, out_dir)
    wl.warmup()
    t1 = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    speed.tick(force=True, loops=BRACKET_LOOPS)
    return wl, (t0, t1)


def measure(wl, seconds: float, tracer, speed: Speedometer):
    """Whole rounds until the next would end after ``seconds``; traced every other round.

    Returns the operations, the (start, end) of each pass, untraced and
    traced, the tracer windows of the traced passes, the last round's
    results and the rounds that did not reproduce the first.
    """
    ops = Ops(wl.mods, speed, tracer)
    passes: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    pass_windows: list[int] = []
    failures: list[str] = []
    first = None
    rounds = 0
    min_rounds = max(wl.min_rounds, 2) if tracer is not None else wl.min_rounds
    start = perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(trace_points(wl.mods))
        t_round = perf_counter()
        results = []
        for k in range(wl.passes):
            if traced:
                tracer.begin(f"pass{rounds}.{k}")
                pass_windows.append(len(tracer.windows) - 1)
            speed.tick(force=True, loops=BRACKET_LOOPS)
            t0 = perf_counter()
            results.append(wl.run_pass(k, ops))
            passes[traced].append((t0, perf_counter()))
            speed.tick(force=True, loops=BRACKET_LOOPS)
        if traced:
            tracer.uninstall()
        digest = [wl.fingerprint(r) for r in results]
        if first is None:
            first = digest
        elif digest != first:
            failures.append(f"round {rounds} did not reproduce round 0 bit for bit")
        rounds += 1
        now = perf_counter()
        if rounds >= min_rounds and now - start + (now - t_round) > seconds:
            break
    return ops, passes, pass_windows, results, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cls = WORKLOADS[name]
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = Tracer() if trace else None
    speed = Speedometer()
    setups = []
    setup_windows = []
    for _ in range(SETUP_REPEATS):
        wl, interval = set_up(cls, seed, out_dir, tracer, speed)
        setups.append(interval)
        if tracer is not None:
            setup_windows.append(len(tracer.windows) - 1)

    wl.prepare()
    ops, passes, pass_windows, results, failures = measure(wl, seconds, tracer, speed)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += wl.check(results)
    shutil.rmtree(out_dir, ignore_errors=True)

    def median_s(timer, intervals):
        return statistics.median(timer(a, b) for a, b in intervals)

    rounds = (len(passes[False]) + len(passes[True])) // wl.passes
    tail_pct = tail_percentile(wl.min_rounds * len(ops.intervals) // rounds)
    if tracer is None:
        units = dict(END_TO_END)
        values, raw = {}, {}
        for out, timer in ((values, speed.scaled), (raw, speed.raw)):
            times = np.array([timer(a, b) for a, b in ops.intervals]) * 1e3
            out.update({
                "wall_s": median_s(timer, passes[False]),
                "ops_per_s": 1e3 * times.size / times.sum(),
                "op_p50_ms": quantile(times, 0.5),
                "op_tail_ms": quantile(times, tail_pct / 100.0),
                "peak_rss_mib": peak_rss_mib,
                "setup_s": median_s(timer, setups),
            })
    else:
        units = dict(PER_LAYER)
        raw = per_layer(tracer, setup_windows, pass_windows)
        # per-layer times at reference speed: scaled by the passes' scaled over raw seconds
        every_pass = passes[True] + passes[False]
        scale = (sum(speed.scaled(a, b) for a, b in every_pass)
                 / sum(speed.raw(a, b) for a, b in every_pass))
        per_second = {"s": scale, "us/call": scale, "MiB/s": 1.0 / scale}
        values = {k: v * per_second.get(units[k], 1.0) for k, v in raw.items()}
        for out, timer in ((values, speed.scaled), (raw, speed.raw)):
            base = median_s(timer, passes[False])
            out["trace.overhead_s"] = median_s(timer, passes[True]) - base
            out["trace.overhead_pct"] = 100.0 * out["trace.overhead_s"] / base
        layers = self_times(tracer, pass_windows)
        (OUT / f"trace-{name}-layers.json").write_text(json.dumps(layers, indent=2) + "\n")
        tracer.write_spans(OUT / f"trace-{name}.csv")
        print(f"{'span':<22} {'calls':>9} {'total s':>9} {'self s':>9}", file=sys.stderr)
        for span, row in layers.items():
            print(f"{span:<22} {row['calls']:>9g} {row['total_s']:>9.4f} {row['self_s']:>9.4f}",
                  file=sys.stderr)

    print(f"op_tail_ms is p{tail_pct} over {len(ops.intervals)} operations", file=sys.stderr)
    print(f"calibration loop: median {1e3 * speed.median_loop_s():.3f} ms "
          f"over {len(speed.scales)} (reference {1e3 * REF_S:g} ms)", file=sys.stderr)
    for label, intervals in (("set-up", setups), ("untraced pass", passes[False]),
                             ("traced pass", passes[True])):
        if intervals:
            print(f"{label} s, raw (at reference speed): " + " ".join(
                f"{speed.raw(a, b):.3f} ({speed.scaled(a, b):.3f})" for a, b in intervals),
                file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    suffix = "-trace" if trace else ""
    (OUT / f"result-{name}{suffix}.json").write_text(
        json.dumps({**result, "raw": raw}, indent=2) + "\n")
    return result


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric by name and unit."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<30} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "bohmsim" / "__init__.py").is_file():
        print(f"perfbench: no bohmsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
