"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` from the seed, runs one
untimed warm-up operation in ``warmup``, makes the references its checks
need in ``prepare``, and defines a round as ``passes`` timed passes of
``run_pass``.  Every round repeats the same operations on the same inputs.
``check`` tests the results of the last round, and the files it wrote,
with ``checks``; ``fingerprint`` lets the runner confirm that every round
reproduced the first bit for bit.

The program is always called through its module attributes at call time,
so that the tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs


class Ops:
    """Times operations one by one and counts the attempted and failed ones.

    An operation fails when it raises the program's node or integration
    error, returns a trajectory truncated at a node, or returns a result
    that its ``accept`` rejects (judged after the operation's timing).
    ``tick`` runs the speed calibration when it is due; ``run`` calls it
    before each operation, and passes call it between their stages.
    """

    def __init__(self, mods, speed, tracer=None):
        self.intervals: list[tuple[float, float]] = []   # perf_counter span of each success
        self.attempted = 0
        self.failed = 0
        self.tick = speed.tick
        self.tracer = tracer
        self.errors = (mods.model.NodeError, mods.rk45.IntegrationAbort)

    def run(self, fn, *args, accept=None):
        self.tick()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
        except self.errors:
            self.failed += 1
            return None
        finally:
            if self.tracer is not None:
                self.tracer.op = -1
        if getattr(result, "degenerate", False) or (accept and not accept(result)):
            self.failed += 1
            return None
        self.intervals.append((t0, t1))
        return result


def _digest(arrays, extra=()) -> bytes:
    h = hashlib.blake2b(repr(tuple(extra)).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _traj_digest(traj) -> bytes:
    s = traj.stats
    return _digest((traj.t, traj.x, traj.y, traj.z, traj.sigma_hat, traj.log_omega,
                    traj.delta_s), (s.n_steps, s.n_rejected, s.n_node_backoffs))


# -- simulate + plot, shared by canonical-grid and wide-pointer --------------

@dataclass
class SimRun:
    scenario: object
    trajs: list
    summary: object
    run_dir: Path


def simulate_and_plot(mods, sc, inits, out_dir: Path, ops: Ops) -> SimRun:
    """What ``bohmsim simulate`` then ``bohmsim plot`` do, one operation per trajectory."""
    t0 = perf_counter()
    trajs = [ops.run(mods.integrate.integrate_trajectory, init, sc.params, sc.integrator,
                     sc.ensemble.backend) for init in inits]
    elapsed = perf_counter() - t0
    trajs = [t for t in trajs if t is not None]
    ops.tick()
    summary = mods.analysis.classify_ensemble(trajs)
    run_dir = out_dir / sc.name
    mods.runio.write_run(run_dir, sc, trajs, summary, timing={"total_s": elapsed})
    mods.scenario.save_scenario(sc, run_dir / "scenario.json")
    ops.tick()
    with contextlib.redirect_stdout(io.StringIO()):
        code = mods.cli.main(["plot", str(run_dir)])
    if code != 0:
        raise RuntimeError(f"bohmsim plot {run_dir} exited {code}")
    return SimRun(sc, trajs, summary, run_dir)


def _csv_columns(traj) -> dict[str, np.ndarray]:
    cols = {"t_prime": traj.t, "X": traj.x, "Y": traj.y}
    if traj.backend == "reduced":
        cols["Sigma_hat"] = traj.sigma_hat
    else:
        cols.update((f"Z_{j + 1}", traj.z[:, j]) for j in range(traj.z.shape[1]))
    cols["logOmega"] = traj.log_omega
    cols["deltaS"] = traj.delta_s
    return cols


def check_sim_run(run: SimRun, expected: int) -> list[str]:
    """Trajectory count, Y' oracle, CSV round trip and SVG curves of one run."""
    name = run.scenario.name
    fails = []
    if len(run.trajs) != expected:
        fails.append(f"{name}: {len(run.trajs)} trajectories, expected {expected}")
    manifest = json.loads((run.run_dir / "manifest.json").read_text())
    for i, (traj, rec) in enumerate(zip(run.trajs, manifest["trajectories"])):
        label = f"{name}[{i}]"
        fails += checks.y_closed_form(traj.t, traj.y, traj.initial.y, run.scenario.params.xi_y,
                                      label)
        fails += checks.csv_roundtrip(run.run_dir / rec["file"], _csv_columns(traj))
        if checks.crossed(traj.x) != run.summary.verdicts[i].crossed_plane:
            fails.append(f"{label}: program verdict disagrees with the sign changes of X'")
    svgs = sorted(run.run_dir.glob("*.svg"))
    if not any(p.name == "test_particle.svg" for p in svgs) or len(svgs) < 2:
        fails.append(f"{name}: plot wrote {[p.name for p in svgs]}")
    for svg in svgs:
        fails += checks.svg_curves(svg, len(run.trajs))
    return fails


class Workload:
    name = ""
    passes = 1          # timed passes per round
    min_rounds = 1      # rounds in the smallest run, which sets op_tail_ms's percentile

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.out_dir = out_dir

    def warmup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """References for the checks, made once after set-up and outside every timing."""

    def _warm_trajectory(self, params, opts, backend: str) -> None:
        """The slit-centre launch with a neutral pointer: the same work for every seed."""
        init = self.mods.model.Configuration(0.0, params.d_prime, 0.0,
                                             (0.0,) * params.n_particles)
        self.mods.integrate.integrate_trajectory(init, params, opts, backend)

    def run_pass(self, k: int, ops: Ops):
        raise NotImplementedError

    def fingerprint(self, result) -> bytes:
        raise NotImplementedError

    def check(self, results: list) -> list[str]:
        raise NotImplementedError


class CanonicalGrid(Workload):
    """fig2, fig3 and fig4 launch grids plus fig7, through simulate and plot."""

    name = "canonical-grid"
    min_rounds = 2
    PRESETS = ("fig2", "fig3", "fig4", "fig7")

    def __init__(self, mods, seed, out_dir):
        super().__init__(mods, seed, out_dir)
        self.scenarios = [mods.scenario.preset(p) for p in self.PRESETS]
        self.inits = [mods.integrate.sample_initials(sc.ensemble, sc.params)
                      for sc in self.scenarios]

    def warmup(self):
        sc = self.scenarios[2]
        self._warm_trajectory(sc.params, sc.integrator, sc.ensemble.backend)

    def run_pass(self, k, ops):
        return [simulate_and_plot(self.mods, sc, inits, self.out_dir, ops)
                for sc, inits in zip(self.scenarios, self.inits)]

    def fingerprint(self, result):
        return b"".join(_traj_digest(t) for run in result for t in run.trajs)

    def check(self, results):
        fails = []
        for run, inits in zip(results[0], self.inits):
            fails += check_sim_run(run, len(inits))
        by_name = {run.scenario.name: run for run in results[0]}
        for name, want_cross in (("fig2", False), ("fig3", True)):
            wrong = [i for i, t in enumerate(by_name[name].trajs)
                     if checks.crossed(t.x) != want_cross]
            if wrong:
                fails.append(f"{name}: trajectories {wrong} "
                             f"{'bounce' if want_cross else 'cross'}")
        for name in ("fig2", "fig3", "fig4"):
            run = by_name[name]
            k = run.scenario.ensemble.count_per_slit
            rel_tol = run.scenario.integrator.rel_tol
            for i in range(min(k, len(run.trajs) - k)):
                up, lo = (vars(run.trajs[j]) for j in (i, i + k))
                fails += checks.mirror_pair(up, lo, rel_tol, f"{name} pair {i}")
        return fails


class BornVsN(Workload):
    """Born-distributed starts on the reduced backend, for N in {1, 10, 100, 1000}.

    The cost of an operation depends on its start, so the median cost of a
    round depends on the seed: over ten seeds, the median solver steps per
    operation spread 8.0% with 16 starts per N and 5.6% with 36.
    """

    name = "born-vs-N"
    N_LIST = (1, 10, 100, 1000)
    STARTS = 36

    def __init__(self, mods, seed, out_dir):
        super().__init__(mods, seed, out_dir)
        fig4 = mods.scenario.preset("fig4")
        self.opts = fig4.integrator
        self.groups = []
        for n in self.N_LIST:
            params = mods.scenario.with_n_particles(fig4, n).params
            starts = inputs.born_starts(seed, n, self.STARTS, params.d_prime)
            inits = [mods.model.Configuration(0.0, x0, y0, tuple(z0)) for x0, y0, z0 in starts]
            self.groups.append((n, params, inits))

    def warmup(self):
        self._warm_trajectory(self.groups[0][1], self.opts, "reduced")

    def run_pass(self, k, ops):
        m = self.mods
        out = []
        for n, params, inits in self.groups:
            trajs = [ops.run(m.integrate.integrate_trajectory, init, params, self.opts, "reduced")
                     for init in inits]
            trajs = [t for t in trajs if t is not None]
            ops.tick()
            verdicts = [m.analysis.classify(t) for t in trajs]
            bounce = sum(v.bounced for v in verdicts) / max(1, len(verdicts))
            k_end = [float(m.analysis.empty_wave_ratio(t, params).k_pointer[-1]) for t in trajs]
            out.append((n, trajs, verdicts, bounce, k_end))
        return out

    def fingerprint(self, result):
        return b"".join(_traj_digest(t) + _digest((), (b, k)) for _, ts, _, b, k in result
                        for t in ts)

    def check(self, results):
        fails = []
        groups = results[0]
        bounce = {}
        for (n, trajs, verdicts, frac, _), (_, params, inits) in zip(groups, self.groups):
            if len(trajs) != len(inits):
                fails.append(f"N={n}: {len(trajs)} of {len(inits)} trajectories completed")
            for i, (traj, verdict) in enumerate(zip(trajs, verdicts)):
                label = f"N={n}[{i}]"
                fails += checks.y_closed_form(traj.t, traj.y, traj.initial.y, params.xi_y, label)
                fails += checks.closure(traj.z, traj.sigma_hat, label)
                if checks.crossed(traj.x) == verdict.bounced:
                    fails.append(f"{label}: program verdict disagrees with the sign changes of X'")
            bounce[n] = frac
        if not (bounce[1000] == 0.0 and bounce[1000] < bounce[1]):
            fails.append(f"bounce fraction {bounce[1000]} at N=1000 against {bounce[1]} at N=1")
        t = groups[0][1][0].t
        for i in sorted({0, t.size // 4, t.size // 2, 3 * t.size // 4, t.size - 1}):
            samples = [(params, float(trajs[0].t[i]), np.array([tr.x[i] for tr in trajs]),
                        np.array([tr.sigma_hat[i] for tr in trajs]))
                       for (_, trajs, *_), (_, params, _) in zip(groups, self.groups)]
            fails += checks.born_moments(samples, f"t'={t[i]:.4g}")
        return fails


class WidePointer(Workload):
    """fig4 at N = 100 on full-analytic, one pass per seeded pointer draw.

    A trajectory's steps depend mostly on its slit and on Sigma_hat'(0), and
    vary by up to 55% between draws.  So the round takes the slit-centre
    launch pair under many stratified draws: with 9 draws of a 3-per-slit
    grid the 83rd percentile of steps per operation spread 8.5% from seed
    to seed, with 27 draws of the pair 3.4%.

    A last pass integrates the slit-centre pair under one fixed pointer,
    the same for every seed, and holds it to the reduced backend run from
    the same start.  The lower launch must match within 1e-5 (it does to
    3e-7).  The upper launch breaks that contract by 2.5e-5 in X', a fault
    of the program, so it is an operation that fails in every round.  The
    seeded draws are not held to the reduced backend: near a node the gap
    grows without bound (3.9e-3 at Sigma_hat'(0) = -1.0045 under this
    pointer's shape), so no tolerance holds on every seed.
    """

    name = "wide-pointer"
    N = 100
    DRAWS = 27
    PER_SLIT = 1
    FIXED_POINTER = (7, 19)   # (seed, draw) of pointer_draws: Sigma_hat'(0) = -1.0019
    passes = DRAWS + 1

    def __init__(self, mods, seed, out_dir):
        super().__init__(mods, seed, out_dir)
        sc = mods.scenario
        self.base = sc.with_n_particles(sc.preset("fig4"), self.N)
        self.scenarios = []
        for k, z0 in enumerate(inputs.pointer_draws(seed, self.N, self.DRAWS)):
            ens = replace(self.base.ensemble, count_per_slit=self.PER_SLIT,
                          z_init=mods.integrate.ZInit.explicit(z0))
            self.scenarios.append(replace(self.base, name=f"fig4-n{self.N}-draw{k}",
                                          ensemble=ens))
        self.inits = [mods.integrate.sample_initials(s.ensemble, s.params)
                      for s in self.scenarios]
        fixed_seed, draw = self.FIXED_POINTER
        z0 = tuple(inputs.pointer_draws(fixed_seed, self.N, self.DRAWS)[draw])
        d = self.base.params.d_prime
        # (lower, upper): the lower launch must match the reduced backend, the upper does not
        self.fixed = [mods.model.Configuration(0.0, x0, 0.0, z0) for x0 in (-d, d)]
        self.references = []

    def warmup(self):
        self._warm_trajectory(self.base.params, self.base.integrator,
                              self.base.ensemble.backend)

    def _integrate(self, init, backend):
        sc = self.base
        return self.mods.integrate.integrate_trajectory(init, sc.params, sc.integrator, backend)

    def prepare(self):
        self.references = [self._integrate(init, "reduced") for init in self.fixed]

    def run_pass(self, k, ops):
        if k < self.DRAWS:
            return simulate_and_plot(self.mods, self.scenarios[k], self.inits[k], self.out_dir,
                                     ops)
        backend = self.base.ensemble.backend
        (lower, upper), reference = self.fixed, self.references[1]
        return (ops.run(self._integrate, lower, backend),
                ops.run(self._integrate, upper, backend,
                        accept=lambda traj: not checks.backend_agreement(traj, reference, "")))

    def fingerprint(self, result):
        trajs = result.trajs if isinstance(result, SimRun) else [t for t in result if t]
        return b"".join(_traj_digest(t) for t in trajs)

    def _pointers(self, traj, sigma_hat) -> np.ndarray:
        return self.mods.reduced.reconstruct_pointers(traj.t, sigma_hat,
                                                      np.asarray(traj.initial.z),
                                                      self.base.params)

    def check(self, results):
        """CSV, SVG, Y' and Z' on the draws; the fixed lower launch against the reduced backend.

        Z' is held to ``reconstruct_pointers`` of the trajectory's own
        Sigma_hat': each pointer's offset from the mean must follow the free
        evolution.  For the fixed launch Sigma_hat' comes from the reduced run.
        """
        *runs, (lower, _) = results
        fails = []
        for run, inits in zip(runs, self.inits):
            fails += check_sim_run(run, len(inits))
            for i, traj in enumerate(run.trajs):
                fails += checks.max_gap(traj.z, self._pointers(traj, traj.sigma_hat),
                                        checks.RECONSTRUCT_TOL, f"{run.scenario.name}[{i}] Z'")
        if lower is None:
            return fails + ["fixed lower launch did not complete"]
        red = self.references[0]
        fails += checks.backend_agreement(lower, red, "fixed lower launch")
        fails += checks.max_gap(lower.z, self._pointers(red, red.sigma_hat),
                                checks.RECONSTRUCT_TOL, "fixed lower launch Z'")
        return fails


class VelocityOracle(Workload):
    """Analytic against finite-difference velocity at seeded configurations."""

    name = "velocity-oracle"
    # (preset, N, configurations): the fig4 base at N = 16 grows the FD stencil as O(N^2).
    # A round of 1000 would make the tail p99, the 1% of 2-ms operations that this
    # machine's interrupts slow down: it spread 22% from seed to seed.
    GROUPS = (("fig2", 1, 25), ("fig3", 1, 25), ("fig4", 1, 25), ("fig4", 16, 25))

    def __init__(self, mods, seed, out_dir):
        super().__init__(mods, seed, out_dir)
        self.groups = []
        for g, (name, n, count) in enumerate(self.GROUPS):
            params = mods.scenario.preset(name).params
            if n != params.n_particles:
                params = mods.scenario.with_n_particles(mods.scenario.preset(name), n).params
            configs = mods.validate.random_configurations(params, count,
                                                          inputs.oracle_rng(seed, g))
            self.groups.append((f"{name}-n{n}", params, configs))

    def _op(self, cfg, params):
        v = self.mods.velocity
        return (v.velocity_analytic(cfg, params).as_array(),
                v.velocity_numeric(cfg, params).as_array())

    def warmup(self):
        _, params, configs = self.groups[0]
        self._op(configs[0], params)

    def run_pass(self, k, ops):
        return [(label, [ops.run(self._op, cfg, params) for cfg in configs])
                for label, params, configs in self.groups]

    def fingerprint(self, result):
        return _digest([a for _, pairs in result for pair in pairs if pair for a in pair])

    def check(self, results):
        fails = []
        for (label, pairs), (_, _, configs) in zip(results[0], self.groups):
            done = [p for p in pairs if p is not None]
            if len(done) != len(configs):
                fails.append(f"{label}: {len(done)} of {len(configs)} configurations evaluated")
            if done:
                va = np.concatenate([a for a, _ in done])
                vn = np.concatenate([b for _, b in done])
                fails += checks.velocity_agreement(va, vn, label)
        return fails


WORKLOADS = {w.name: w for w in (CanonicalGrid, BornVsN, WidePointer, VelocityOracle)}

