"""In-memory tracing of the program's public functions, from outside.

``Tracer.install`` replaces each traced function, in the namespace its
caller looks it up from, by a wrapper that records a span (name, start,
end, parent span) tagged with the current window and operation id.
Counts that only the return value carries (solver steps, bytes written)
are taken from it by a hook at the same boundary.  ``uninstall`` puts the
originals back, so untraced passes run the unchanged program.  Nothing is
written until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, window, op]
        self.windows: list[tuple[str, int, Counter]] = []   # (label, first span, counts)
        self.op = -1                     # id of the operation in flight, -1 between
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, label: str) -> None:
        """Open a window; spans and counts until the next one belong to it."""
        self.windows.append((label, len(self.spans), Counter()))

    @property
    def counts(self) -> Counter:
        return self.windows[-1][2]

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1] if stack else -1, len(tracer.windows) - 1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self, points) -> None:
        """Wrap each (owner, attribute, span name, before, after) point."""
        for owner, attr, name, before, after in points:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, before, after))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- reading -------------------------------------------------------------

    def layer_totals(self, window: int) -> tuple[dict, Counter]:
        """Per span name: calls, total and self seconds, within one window.

        Self time is a span's duration minus the durations of its direct
        children.  Also returns the window's counts.
        """
        _, first, counts = self.windows[window]
        last = self.windows[window + 1][1] if window + 1 < len(self.windows) else len(self.spans)
        child = defaultdict(int)
        for i in range(first, last):
            name, start, end, parent, _, _ = self.spans[i]
            if parent >= first:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(first, last):
            name, start, end, _, _, _ = self.spans[i]
            row = totals[name]
            row[0] += 1
            row[1] += (end - start) * 1e-9
            row[2] += (end - start - child[i]) * 1e-9
        return dict(totals), counts

    def child_time(self, window: int, name: str, parent_name: str) -> tuple[int, float]:
        """Calls and seconds of ``name`` spans whose direct parent is ``parent_name``."""
        _, first, _ = self.windows[window]
        last = self.windows[window + 1][1] if window + 1 < len(self.windows) else len(self.spans)
        calls, ns = 0, 0
        for i in range(first, last):
            s = self.spans[i]
            if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name:
                calls += 1
                ns += s[2] - s[1]
        return calls, ns * 1e-9

    def write_spans(self, path: Path) -> None:
        """All spans as CSV, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        labels = [w[0] for w in self.windows]
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write("id,parent,window,op,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, window, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{labels[window]},{op},{name},{start - t0},{end - t0}\n")
        os.replace(tmp, path)


# -- hooks: counts taken from arguments and return values -------------------

def _count_rhs(tracer: Tracer, args, kwargs):
    rhs = args[0]
    counts = tracer.counts

    def counted(t, y):
        counts["rk45.rhs_evals"] += 1
        return rhs(t, y)

    return (counted, *args[1:]), kwargs


def _solve_stats(tracer: Tracer, args, res):
    c = tracer.counts
    c["rk45.solve_calls"] += 1
    c["rk45.steps_accepted"] += res.stats.n_steps
    c["rk45.steps_rejected"] += res.stats.n_rejected
    c["rk45.node_backoffs"] += res.stats.n_node_backoffs


def _reconstruct_bytes(tracer: Tracer, args, z):
    # the outer product of widths and deviations, plus the result it is added into
    tracer.counts["reduced.reconstruct_bytes"] += 2 * z.nbytes


def _written_bytes(tracer: Tracer, args, manifest):
    # the trajectory CSVs; the manifest is left out, as its timing field varies in length
    out = Path(args[0])
    files = [out / rec["file"] for rec in manifest["trajectories"] if (out / rec["file"]).is_file()]
    tracer.counts["runio.bytes_written"] += sum(f.stat().st_size for f in files)


def _read_bytes(tracer: Tracer, args, cols):
    tracer.counts["runio.bytes_read"] += Path(args[0]).stat().st_size


def _svg_bytes(tracer: Tracer, args, svg):
    tracer.counts["svgplot.bytes"] += len(svg.encode())


def _configs_kept(tracer: Tracer, args, configs):
    tracer.counts["validate.configs_kept"] += len(configs)


def trace_points(mods) -> list[tuple]:
    """Where each public function is looked up by its callers."""
    m = mods
    return [
        (m._kernel.GuidanceKernel, "velocity", "kernel.velocity", None, None),
        (m._kernel.GuidanceKernel, "branch_eval", "kernel.branch_eval", None, None),
        (m.integrate, "solve", "rk45.solve", _count_rhs, _solve_stats),
        (m.integrate, "integrate_trajectory", "integrate.traj", None, None),
        (m.integrate, "reconstruct_pointers", "reduced.reconstruct", None, _reconstruct_bytes),
        (m.analysis, "classify", "analysis.classify", None, None),
        (m.analysis, "empty_wave_ratio", "analysis.empty_wave", None, None),
        (m.runio, "write_run", "runio.write", None, _written_bytes),
        (m.cli, "read_trajectory_csv", "runio.read", None, _read_bytes),
        (m.cli, "render_chart", "svgplot.render", None, _svg_bytes),
        (m.cli, "cmd_plot", "cli.plot", None, None),
        (m.velocity, "velocity_analytic", "velocity.analytic", None, None),
        (m.velocity, "fd_velocity", "velocity.fd", None, None),
        (m.validate, "random_configurations", "validate.config_draws", None, _configs_kept),
    ]


# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("kernel.velocity_calls", "count"), ("kernel.velocity_us", "us/call"),
    ("kernel.branch_eval_calls", "count"), ("kernel.branch_eval_us", "us/call"),
    ("rk45.solve_calls", "count"), ("rk45.steps_accepted", "count"),
    ("rk45.steps_rejected", "count"), ("rk45.node_backoffs", "count"),
    ("rk45.rhs_evals", "count"), ("rk45.accept_ratio", "ratio"), ("rk45.self_s", "s"),
    ("integrate.traj_s", "s"), ("integrate.diagnostics_s", "s"), ("integrate.self_s", "s"),
    ("reduced.reconstruct_calls", "count"), ("reduced.reconstruct_s", "s"),
    ("reduced.reconstruct_mib", "MiB-computed"),
    ("analysis.classify_s", "s"), ("analysis.empty_wave_s", "s"),
    ("runio.write_s", "s"), ("runio.bytes_written", "bytes"),
    ("runio.write_mib_per_s", "MiB/s"), ("runio.read_calls", "count"),
    ("runio.read_s", "s"), ("runio.bytes_read", "bytes"),
    ("svgplot.render_calls", "count"), ("svgplot.render_s", "s"),
    ("svgplot.bytes", "bytes"), ("cli.plot_s", "s"),
    ("velocity.fd_calls", "count"), ("velocity.fd_us", "us/call"),
    ("velocity.analytic_us", "us/call"),
    ("validate.config_draws_s", "s"), ("validate.config_attempts", "count"),
    ("validate.config_accept_ratio", "ratio"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def window_metrics(tracer: Tracer, window: int) -> dict[str, float]:
    """Per-layer metrics of one pass (or one set-up) window."""
    tot, c = tracer.layer_totals(window)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(name):
        return 1e6 * _ratio(total(name), calls(name))

    acc, rej, back = c["rk45.steps_accepted"], c["rk45.steps_rejected"], c["rk45.node_backoffs"]
    _, diag_s = tracer.child_time(window, "kernel.branch_eval", "integrate.traj")
    attempts, _ = tracer.child_time(window, "kernel.branch_eval", "validate.config_draws")
    return {
        "kernel.velocity_calls": calls("kernel.velocity"),
        "kernel.velocity_us": per_call_us("kernel.velocity"),
        "kernel.branch_eval_calls": calls("kernel.branch_eval"),
        "kernel.branch_eval_us": per_call_us("kernel.branch_eval"),
        "rk45.solve_calls": c["rk45.solve_calls"],
        "rk45.steps_accepted": acc,
        "rk45.steps_rejected": rej,
        "rk45.node_backoffs": back,
        "rk45.rhs_evals": c["rk45.rhs_evals"],
        "rk45.accept_ratio": _ratio(acc, acc + rej + back),
        "rk45.self_s": self_s("rk45.solve"),
        "integrate.traj_s": total("integrate.traj"),
        "integrate.diagnostics_s": diag_s,
        "integrate.self_s": self_s("integrate.traj"),
        "reduced.reconstruct_calls": calls("reduced.reconstruct"),
        "reduced.reconstruct_s": total("reduced.reconstruct"),
        "reduced.reconstruct_mib": c["reduced.reconstruct_bytes"] / MIB,
        "analysis.classify_s": total("analysis.classify"),
        "analysis.empty_wave_s": total("analysis.empty_wave"),
        "runio.write_s": total("runio.write"),
        "runio.bytes_written": c["runio.bytes_written"],
        "runio.write_mib_per_s": _ratio(c["runio.bytes_written"] / MIB, total("runio.write")),
        "runio.read_calls": calls("runio.read"),
        "runio.read_s": total("runio.read"),
        "runio.bytes_read": c["runio.bytes_read"],
        "svgplot.render_calls": calls("svgplot.render"),
        "svgplot.render_s": total("svgplot.render"),
        "svgplot.bytes": c["svgplot.bytes"],
        "cli.plot_s": total("cli.plot"),
        "velocity.fd_calls": calls("velocity.fd"),
        "velocity.fd_us": per_call_us("velocity.fd"),
        "velocity.analytic_us": per_call_us("velocity.analytic"),
        "validate.config_draws_s": total("validate.config_draws"),
        "validate.config_attempts": attempts,
        "validate.config_accept_ratio": _ratio(c["validate.configs_kept"], attempts),
    }


_SETUP_METRICS = ("validate.config_draws_s", "validate.config_attempts",
                  "validate.config_accept_ratio")


def per_layer(tracer: Tracer, setup_windows: list[int],
              pass_windows: list[int]) -> dict[str, float]:
    """Median over windows: set-up windows for ``validate``, pass windows otherwise."""
    setups = [window_metrics(tracer, w) for w in setup_windows]
    passes = [window_metrics(tracer, w) for w in pass_windows]
    return {name: statistics.median(r[name] for r in (setups if name in _SETUP_METRICS
                                                      else passes))
            for name in passes[0]}


def self_times(tracer: Tracer, pass_windows: list[int]) -> dict[str, dict[str, float]]:
    """Median calls, total and self seconds per span name over the traced passes."""
    rows = [tracer.layer_totals(w)[0] for w in pass_windows]
    names = sorted({n for r in rows for n in r})
    return {n: {key: statistics.median(r.get(n, (0, 0.0, 0.0))[i] for r in rows)
                for i, key in enumerate(("calls", "total_s", "self_s"))} for n in names}

