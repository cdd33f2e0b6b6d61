"""Run directories: per-trajectory CSV files plus a JSON manifest.

Numbers go to CSV at 17 significant digits so downstream comparisons are
bit-stable: one format call per row, one numpy text-reader call per file.
The manifest carries everything needed to reproduce and audit a run;
wall-clock numbers, CSV writing (``write_s``) among them, live under the
single key "timing", which reproducibility checks strip before comparing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .analysis import ClassificationSummary, classify_ensemble
from .integrate import Trajectory, crossing_time
from .model import fast_pointer_E
from .scenario import Scenario, scenario_to_dict

__all__ = ["write_run", "read_manifest", "read_trajectory_csv", "pointer_columns"]

MANIFEST_NAME = "manifest.json"


def pointer_columns(backend: str, n_particles: int) -> list[str]:
    if backend == "reduced":
        return ["Sigma_hat"]
    return [f"Z_{i + 1}" for i in range(n_particles)]


def write_trajectory_csv(path: Path, traj: Trajectory, stride: int = 1) -> None:
    header = ["t_prime", "X", "Y", *pointer_columns(traj.backend, traj.params.n_particles),
              "logOmega", "deltaS"]
    pointer = traj.sigma_hat if traj.backend == "reduced" else traj.z
    data = np.column_stack((traj.t, traj.x, traj.y, pointer, traj.log_omega, traj.delta_s))
    i = np.arange(traj.n_samples)
    data = data[(i % stride == 0) | (i == traj.n_samples - 1)]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with path.open("w", newline="\n") as f:   # row by row: one row's floats alive at a time
        f.write(",".join(header) + "\n")
        f.writelines(row % tuple(r.tolist()) for r in data)


def write_run(out_dir, scenario: Scenario, trajs: list[Trajectory],
              summary: ClassificationSummary | None = None,
              timing: dict | None = None) -> dict:
    """Write CSVs + manifest; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if summary is None:
        summary = classify_ensemble(trajs)

    records = []
    t0 = time.perf_counter()
    for i, (traj, verdict) in enumerate(zip(trajs, summary.verdicts)):
        name = f"traj_{i:03d}.csv"
        write_trajectory_csv(out / name, traj, scenario.outputs.stride)
        records.append({
            "index": i,
            "file": name,
            "x0": traj.initial.x,
            "initial_slit": traj.initial_slit,
            "degenerate": traj.degenerate,
            "n_samples": traj.n_samples,
            "steps": traj.stats.n_steps,
            "rejected": traj.stats.n_rejected,
            "node_backoffs": traj.stats.n_node_backoffs,
            "rhs_evals": traj.stats.n_rhs_evals,
            "capped_steps": traj.stats.n_capped,
            "h_min": traj.stats.h_min,
            "h_max": traj.stats.h_max,
            "crossed_plane": verdict.crossed_plane if not verdict.degenerate else None,
            "final_direction": verdict.final_direction if not verdict.degenerate else None,
        })
    write_s = time.perf_counter() - t0

    params = scenario.params
    manifest = {
        "scenario": scenario_to_dict(scenario),
        "backend": scenario.ensemble.backend,
        "t_cross": crossing_time(params),
        "fast_pointer_E": fast_pointer_E(params) if params.is_single_pointer else None,
        "n_trajectories": len(trajs),
        "columns": ["t_prime", "X", "Y",
                    *pointer_columns(scenario.ensemble.backend, params.n_particles),
                    "logOmega", "deltaS"],
        "trajectories": records,
        "classification": {
            "bounce_fraction": summary.bounce_fraction,
            "crossing_fraction": summary.crossing_fraction,
            "downward_fraction": summary.downward_fraction,
            "excluded": summary.excluded,
        },
        "timing": {**(timing or {}), "write_s": write_s},
    }
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return manifest


def read_manifest(run_dir) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {run_dir}")
    return json.loads(path.read_text())


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Columns by name; inverse of write_trajectory_csv.  A malformed file is a ValueError."""
    header, _, body = Path(path).read_text().strip().partition("\n")
    if not body.strip():  # checked here: np.loadtxt only warns on no data
        raise ValueError(f"trajectory CSV {path} holds no sample rows")
    names = header.split(",")
    try:
        data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"trajectory CSV {path}: {exc}") from None
    if data.shape[1] != len(names):
        raise ValueError(f"trajectory CSV {path}: rows hold {data.shape[1]} cells, "
                         f"the header names {len(names)}")
    return {name: data[:, j] for j, name in enumerate(names)}
