"""Correctness checks on the program's outputs, computed apart from it.

Nothing here imports ``bohmsim``: every reference is a closed form of the
scenario parameters, a property the method must have, or a parse of the
files the program wrote.  Each check returns a list of failure messages;
an empty list means the check holds.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

Y_TOL = 1e-8              # Y' against its closed form
MIRROR_FACTOR = 10.0      # mirror pairs agree within this many rel_tol
CLOSURE_TOL = 1e-12       # scaled pointer row sums against Sigma_hat'
BORN_SE = 5.0             # ensemble moments within this many standard errors
BACKEND_TOL = 1e-5        # full-analytic X' and Sigma_hat' against the reduced backend
RECONSTRUCT_TOL = 1e-6    # full-analytic Z' against reconstruct_pointers
VELOCITY_TOL = 1e-6       # analytic against finite-difference velocity, relative


def y_closed_form(t: np.ndarray, y: np.ndarray, y0: float, xi_y: float,
                  label: str) -> list[str]:
    """Y'(t') = t' + Y'_0 sqrt(1 + 4 t'^2 / xi_y^2) on every sample."""
    exact = t + y0 * np.sqrt(1.0 + 4.0 * t * t / (xi_y * xi_y))
    err = float(np.max(np.abs(y - exact)))
    return [] if err <= Y_TOL else [f"{label}: |Y' - closed form| = {err:.3e} > {Y_TOL:g}"]


def crossed(x: np.ndarray) -> bool:
    """X' changes sign between two consecutive samples, or lands on zero."""
    return bool(np.any(x[:-1] * x[1:] < 0.0) or np.any(x[1:] == 0.0))


def mirror_pair(up: dict, lo: dict, rel_tol: float, label: str) -> list[str]:
    """Reflecting (X', Z') -> (-X', -Z') maps one launch onto its mirror."""
    if up["t"].size != lo["t"].size:
        return [f"{label}: mirror pair has {up['t'].size} and {lo['t'].size} samples"]
    defect = max(float(np.max(np.abs(up["x"] + lo["x"]))),
                 float(np.max(np.abs(up["z"] + lo["z"]))),
                 float(np.max(np.abs(up["y"] - lo["y"]))))
    tol = MIRROR_FACTOR * rel_tol
    return [] if defect <= tol else [f"{label}: mirror defect {defect:.3e} > {tol:g}"]


def csv_roundtrip(path: Path, columns: dict[str, np.ndarray]) -> list[str]:
    """Every cell of a written CSV parses back to the in-memory double, bit for bit."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    if header != list(columns):
        return [f"{path.name}: header {header} != {list(columns)}"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        return [f"{path.name}: ragged rows"]
    parsed = np.array([[float(v) for v in r] for r in rows]).reshape(len(rows), len(header))
    for j, (name, want) in enumerate(columns.items()):
        want = np.ascontiguousarray(want, dtype=float)
        got = np.ascontiguousarray(parsed[:, j])
        if got.shape != want.shape or not np.array_equal(got.view(np.uint64),
                                                         want.view(np.uint64)):
            return [f"{path.name}: column {name} does not read back bit for bit"]
    return []


def svg_curves(path: Path, expected: int) -> list[str]:
    """The SVG parses as XML and holds one polyline per trajectory."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: not well-formed XML ({exc})"]
    n = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polyline")
    return [] if n == expected else [f"{path.name}: {n} curves, expected {expected}"]


def born_mixture(t: float, params) -> tuple[tuple[float, float], tuple[float, float]]:
    """Branch centre and variance of X' and of Sigma_hat' under |Psi(t')|^2.

    Each is an equal-weight mixture of two normals with centres +/-m and
    variance v: X' has m = d' - beta t', v = Dx/4 and Sigma_hat' has
    m = gamma_hat t', v = Dz/4, with beta = xi_x/(r^2 xi_y),
    gamma_hat = mu R^2 Xi sqrt(N)/(r^2 xi_y), Dx = 1 + (2t'/(r^2 xi_y))^2 and
    Dz = 1 + (2 mu R^2 t'/(r^2 xi_y))^2.  ``params`` is a single-pointer
    scenario's parameters; only its plain fields are read.
    """
    r2xy = params.r ** 2 * params.xi_y
    beta = params.xi_x / r2xy
    mr2 = params.mu * params.R ** 2
    gamma_hat = mr2 * params.single_pointer_xi * math.sqrt(params.n_particles) / r2xy
    dx = 1.0 + (2.0 * t / r2xy) ** 2
    dz = 1.0 + (2.0 * mr2 * t / r2xy) ** 2
    return (params.d_prime - beta * t, dx / 4.0), (gamma_hat * t, dz / 4.0)


def born_moments(samples: list[tuple[object, float, np.ndarray, np.ndarray]],
                 label: str) -> list[str]:
    """Mean and second moment of X' and Sigma_hat' against the Born mixture.

    ``samples`` holds (params, t', X' values, Sigma_hat' values) per pointer
    size at one time.  The mixture has mean 0, second moment m^2 + v and
    fourth moment m^4 + 6 m^2 v + 3 v^2.  The groups of one time are pooled,
    with each group compared to its own parameters; the pooled deviation of
    each moment must stay within ``BORN_SE`` standard errors.
    """
    failures = []
    for var in (0, 1):
        dev1 = dev2 = se1 = se2 = 0.0
        for params, t, xs, sig in samples:
            values = (xs, sig)[var]
            m, v = born_mixture(t, params)[var]
            m2 = m * m + v
            m4 = m ** 4 + 6.0 * m * m * v + 3.0 * v * v
            dev1 += float(np.sum(values))
            se1 += values.size * m2
            dev2 += float(np.sum(values * values)) - values.size * m2
            se2 += values.size * (m4 - m2 * m2)
        name = ("X'", "Sigma_hat'")[var]
        for what, dev, se in (("mean", dev1, se1), ("second moment", dev2, se2)):
            z = abs(dev) / math.sqrt(se)
            if z > BORN_SE:
                failures.append(f"{label}: {name} {what} off by {z:.1f} standard errors")
    return failures


def closure(z: np.ndarray, sigma_hat: np.ndarray, label: str) -> list[str]:
    """Scaled pointer row sums sum_n Z'_n / sqrt(N) reproduce Sigma_hat'."""
    err = float(np.max(np.abs(z.sum(axis=1) / math.sqrt(z.shape[1]) - sigma_hat)))
    return [] if err <= CLOSURE_TOL else [
        f"{label}: row-sum closure {err:.3e} > {CLOSURE_TOL:g}"]


def max_gap(a: np.ndarray, b: np.ndarray, tol: float, label: str) -> list[str]:
    """Two arrays of one shape agree within ``tol`` everywhere."""
    if a.shape != b.shape:
        return [f"{label}: shapes {a.shape} and {b.shape} differ"]
    err = float(np.max(np.abs(a - b)))
    return [] if err <= tol else [f"{label}: max deviation {err:.3e} > {tol:g}"]


def backend_agreement(full, red, label: str) -> list[str]:
    """Full-analytic X' and Sigma_hat' within ``BACKEND_TOL`` of a reduced run from the same start."""
    return (max_gap(full.x, red.x, BACKEND_TOL, f"{label} X'")
            + max_gap(full.sigma_hat, red.sigma_hat, BACKEND_TOL, f"{label} Sigma_hat'"))


def velocity_agreement(va: np.ndarray, vn: np.ndarray, label: str) -> list[str]:
    """Analytic and finite-difference velocities agree, relative to max(1, |v|)."""
    rel = float(np.max(np.abs(va - vn) / np.maximum(1.0, np.abs(va))))
    return [] if rel <= VELOCITY_TOL else [
        f"{label}: relative deviation {rel:.3e} > {VELOCITY_TOL:g}"]
