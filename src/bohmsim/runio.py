"""Run directories: per-trajectory CSV files, ``scenario.json`` and a JSON manifest.

Numbers go to CSV at 17 significant digits so downstream comparisons are
bit-stable: one format call per block of rows, and one numpy text-reader call per
file that converts only the columns its caller names.
``scenario.json``, the one copy of the scenario, re-runs the run; the manifest
audits it, and its wall-clock numbers, CSV writing (``write_s``) among them,
live under the key "timing", which reproducibility checks strip.
"""

from __future__ import annotations

import json
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from .analysis import ClassificationSummary
from .integrate import Trajectory, crossing_time
from .model import fast_pointer_E
from .reduced import reduced_params
from .scenario import Scenario, save_scenario

__all__ = ["write_run", "read_manifest", "read_trajectory_csv", "csv_columns"]

MANIFEST_NAME = "manifest.json"


def csv_columns(backend: str, n_particles: int) -> list[str]:
    """The column names of a trajectory CSV, as the manifest's ``columns`` lists them."""
    pointer = ["Sigma_hat"] if backend == "reduced" else [f"Z_{i + 1}" for i in range(n_particles)]
    return ["t_prime", "X", "Y", *pointer, "logOmega", "deltaS"]


# cells per format call: each call's string stays bounded whatever N is
_BLOCK_CELLS = 4096


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    header = csv_columns(traj.backend, traj.params.n_particles)
    pointer = traj.sigma_hat if traj.backend == "reduced" else traj.z
    data = np.column_stack((traj.t, traj.x, traj.y, pointer, traj.log_omega, traj.delta_s))
    row = ",".join(["%.17g"] * len(header)) + "\n"
    block = max(1, _BLOCK_CELLS // len(header))   # rows per format call
    with path.open("w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(0, len(data), block):
            part = data[i:i + block]
            f.write((row * len(part)) % tuple(part.ravel().tolist()))


def write_run(out_dir, scenario: Scenario, trajs: list[Trajectory],
              summary: ClassificationSummary, timing: dict | None = None) -> dict:
    """Write the run directory: CSVs, scenario and manifest; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    t0 = time.perf_counter()
    for i, (traj, verdict) in enumerate(zip(trajs, summary.verdicts)):
        name = f"traj_{i:03d}.csv"
        write_trajectory_csv(out / name, traj)
        records.append({
            "index": i,
            "file": name,
            "x0": traj.initial.x,
            "initial_slit": traj.initial_slit,
            "degenerate": traj.degenerate,
            "n_samples": traj.n_samples,
            "steps": traj.stats.n_steps,
            "x_margin": float(np.min(np.abs(traj.x))),
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

    save_scenario(scenario, out / "scenario.json")
    params = scenario.params
    manifest = {
        "name": scenario.name,
        "backend": scenario.ensemble.backend,
        "t_cross": crossing_time(params),
        # the pointer sum's E, which moves at Xi sqrt(N): the one-particle twin's
        "fast_pointer_E": (fast_pointer_E(reduced_params(params))
                           if params.single_pointer_xi is not None else None),
        "n_trajectories": len(trajs),
        "columns": csv_columns(scenario.ensemble.backend, params.n_particles),
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


def read_trajectory_csv(path, columns) -> np.ndarray:
    """The named ``columns`` of a trajectory CSV, bit for bit; inverse of write_trajectory_csv.

    A structured array with one float field per name, in the order given:
    ``cols["X"]`` is a column, and ``cols.view((float, len(columns)))`` all of them
    as one (rows, columns) float block, with no copy.  Only these columns are
    converted, but every row's cell count is checked against the header, since
    ``np.loadtxt`` with ``usecols`` accepts short and long rows.  A malformed file,
    or a name its header lacks, is a ValueError naming the file.
    """
    header, _, body = Path(path).read_text().strip().partition("\n")
    if not body.strip():  # checked here: np.loadtxt only warns on no data
        raise ValueError(f"trajectory CSV {path} holds no sample rows")
    names = header.split(",")
    missing = [c for c in columns if c not in names]
    if missing:
        raise ValueError(f"trajectory CSV {path}: the header {header!r} lacks {missing}")
    rows = body.split("\n")
    commas = len(names) - 1
    if set(map(str.count, rows, repeat(","))) != {commas}:
        i, r = next((i, r) for i, r in enumerate(rows) if r.count(",") != commas)
        raise ValueError(f"trajectory CSV {path}: row {i + 1} holds {r.count(',') + 1} "
                         f"cells, the header names {len(names)}")
    try:
        return np.loadtxt(rows, delimiter=",", ndmin=1, comments=None,
                          usecols=[names.index(c) for c in columns],
                          dtype=[(c, float) for c in columns])
    except ValueError as exc:
        raise ValueError(f"trajectory CSV {path}: {exc}") from None
