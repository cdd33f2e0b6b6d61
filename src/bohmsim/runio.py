"""Run directories: per-trajectory CSV files plus a JSON manifest.

Numbers go to CSV at 17 significant digits so downstream comparisons are
bit-stable.  The manifest carries everything needed to reproduce and
audit a run; wall-clock numbers live under the single key "timing", which
reproducibility checks strip before comparing.
"""

from __future__ import annotations

import json
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


def _csv_rows(traj: Trajectory, stride: int):
    idx = list(range(0, traj.n_samples, stride))
    if idx and idx[-1] != traj.n_samples - 1:
        idx.append(traj.n_samples - 1)
    reduced = traj.backend == "reduced"
    for i in idx:
        cells = [traj.t[i], traj.x[i], traj.y[i]]
        if reduced:
            cells.append(traj.sigma_hat[i])
        else:
            cells.extend(traj.z[i])
        cells.extend((traj.log_omega[i], traj.delta_s[i]))
        yield cells


def write_trajectory_csv(path: Path, traj: Trajectory, stride: int = 1) -> None:
    header = ["t_prime", "X", "Y", *pointer_columns(traj.backend, traj.params.n_particles),
              "logOmega", "deltaS"]
    lines = [",".join(header)]
    for cells in _csv_rows(traj, stride):
        lines.append(",".join(f"{float(v):.17g}" for v in cells))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_run(out_dir, scenario: Scenario, trajs: list[Trajectory],
              summary: ClassificationSummary | None = None,
              timing: dict | None = None) -> dict:
    """Write CSVs + manifest; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if summary is None:
        summary = classify_ensemble(trajs)

    records = []
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
        "timing": timing or {},
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
    """Columns by name; inverse of write_trajectory_csv."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"trajectory CSV {path} is empty")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.size == 0:
        data = data.reshape(0, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}
