"""Seeded stand-in for the California-housing CSV that ``housing_full.cfg`` expects.

20,640 rows of 8 features plus a target, drawn from a planted two-layer
ReLU teacher with label noise. The teacher, the feature scales and the
offsets are fixed; the seed draws the rows and the noise, so every seed
poses the same regression problem on a fresh sample. The relu_stream
workload runs a copy of the shipped config pointed at this file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_ROWS = 20_640
N_FEATURES = 8
N_TEACHER = 6
LABEL_NOISE = 0.1
TEACHER_SEED = 20_640


def draw(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw features ``(N_ROWS, N_FEATURES)`` and targets ``(N_ROWS,)``."""
    fixed = np.random.Generator(np.random.Philox(TEACHER_SEED))
    scale = fixed.uniform(0.5, 20.0, size=N_FEATURES)
    offset = fixed.uniform(-5.0, 50.0, size=N_FEATURES)
    units = fixed.standard_normal((N_TEACHER, N_FEATURES + 1))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    amps = fixed.uniform(0.5, 1.5, size=N_TEACHER) * fixed.choice([-1.0, 1.0], size=N_TEACHER)

    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((N_ROWS, N_FEATURES))
    aug = np.hstack([z, np.ones((N_ROWS, 1))])
    y = np.maximum(aug @ units.T, 0.0) @ amps + LABEL_NOISE * rng.standard_normal(N_ROWS)
    return z * scale + offset, y


def write_csv(path: Path, seed: int) -> None:
    """Write the stand-in with a header row, six significant digits per cell."""
    x, y = draw(seed)
    rows = np.hstack([x, y[:, None]])
    header = ",".join([f"x{i}" for i in range(N_FEATURES)] + ["target"])
    tmp = path.with_suffix(".tmp")
    np.savetxt(tmp, rows, fmt="%.6g", delimiter=",", header=header, comments="")
    tmp.replace(path)


def write_config(shipped: Path, dest: Path, csv_name: str) -> None:
    """Copy the shipped config with ``data_path`` pointed at the stand-in."""
    lines = []
    for line in shipped.read_text(encoding="utf-8").splitlines():
        if line.split("=", 1)[0].strip() == "data_path":
            line = f"data_path = {csv_name}"
        lines.append(line)
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
