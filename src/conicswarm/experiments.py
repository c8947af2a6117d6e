"""Experiment setups: planar mixture recovery and two-layer ReLU regression.

The mixture task observes points drawn from a planar Gaussian mixture with
identity component covariance, smooths them with a small bandwidth tau and
recovers the component means and weights as an atomic measure; the true
mixing mass is 1, so the recovered TV norm should land near 1. The
regression task trains a two-layer ReLU network whose neurons are the
particles, either on a user-supplied CSV or on a synthetic teacher
network, with an 80/20 train/test split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import read_numeric_csv
from .domain import Ball, Box
from .kernels import GmmKernel, ReluKernel
from .objective import Problem
from .runner import RunResult
from .swarm import ParticleSwarm, lift_signed

__all__ = [
    "GmmSpec",
    "RegressionDataset",
    "gen_gmm",
    "load_gmm_data",
    "load_regression",
    "gen_teacher_regression",
    "relu_predict",
    "heldout_mse",
    "SummaryRow",
    "summarize",
    "summary_text",
    "summary_csv",
]


@dataclass
class GmmSpec:
    """Planar mixture description: means, simplex weights, sample count."""

    means: np.ndarray
    weights: np.ndarray
    n_samples: int
    tau: float
    seed: int = 0

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.weights.size != self.means.shape[0]:
            raise ValueError("one weight per mean required")
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise ValueError("weights must lie on the simplex")
        if self.n_samples < 1 or self.tau <= 0:
            raise ValueError("need n_samples >= 1 and tau > 0")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @classmethod
    def ring(cls, n_components: int = 5, radius: float = 4.0, n_samples: int = 2000,
             tau: float = 0.2, seed: int = 0) -> "GmmSpec":
        """Equal-weight components on a circle, well separated at unit spread."""
        angles = 2.0 * np.pi * np.arange(n_components) / n_components
        means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return cls(means=means, weights=np.full(n_components, 1.0 / n_components),
                   n_samples=n_samples, tau=tau, seed=seed)


def _margin_box(data: np.ndarray, margin_frac: float = 0.1) -> Box:
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    pad = margin_frac * (hi - lo)
    return Box(lo - pad, hi + pad)


def gen_gmm(spec: GmmSpec, rng: np.random.Generator, kappa: float = 1e-4):
    """Sample mixture data and build the smoothed-density problem.

    Components have identity covariance; the domain is the data bounding
    box with a 10 percent margin per side.
    """
    comp = rng.choice(spec.n_components, size=spec.n_samples, p=spec.weights)
    data = spec.means[comp] + rng.standard_normal((spec.n_samples, 2))
    model = GmmKernel(data, spec.tau)
    problem = Problem(model=model, domain=_margin_box(data), kappa=kappa, signed=False)
    return data, problem


def load_gmm_data(path, tau: float, kappa: float = 1e-4):
    """Build the mixture problem from a CSV of samples with header x0,x1."""
    data = _read_samples(path, expected_header=["x0", "x1"])
    model = GmmKernel(data, tau)
    return data, Problem(model=model, domain=_margin_box(data), kappa=kappa, signed=False)


@dataclass
class RegressionDataset:
    """Standardized features/targets with a fixed train/test split."""

    features: np.ndarray
    targets: np.ndarray
    train_index: np.ndarray
    test_index: np.ndarray
    feature_mean: np.ndarray = field(default=None)
    feature_std: np.ndarray = field(default=None)
    target_mean: float = 0.0
    target_std: float = 1.0

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _read_samples(path, expected_header=None) -> np.ndarray:
    """The numeric rows of a data CSV; a data set needs at least one."""
    rows = read_numeric_csv(path, expected_header)[1]
    if not len(rows):
        raise ValueError(f"{path}: no data rows")
    return rows


def _standardize(matrix: np.ndarray, what: str):
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    if np.any(std < 1e-12):
        bad = [int(i) for i in np.nonzero(std < 1e-12)[0]]
        raise ValueError(f"constant {what} column(s) {bad}: cannot standardize")
    return (matrix - mean) / std, mean, std


def _split_dataset(features, targets, rng, test_frac=0.2):
    feats, f_mean, f_std = _standardize(features, "feature")
    targ = targets.reshape(-1, 1)
    targ, t_mean, t_std = _standardize(targ, "target")
    targ = targ.ravel()
    n = feats.shape[0]
    perm = rng.permutation(n)
    n_test = max(1, int(round(test_frac * n)))
    return RegressionDataset(
        features=feats, targets=targ,
        train_index=np.sort(perm[n_test:]), test_index=np.sort(perm[:n_test]),
        feature_mean=f_mean, feature_std=f_std,
        target_mean=float(t_mean[0]), target_std=float(t_std[0]),
    )


def _relu_problem(dataset: RegressionDataset, kappa: float) -> Problem:
    model = ReluKernel(dataset.features[dataset.train_index],
                       dataset.targets[dataset.train_index])
    domain = Ball(np.zeros(dataset.n_features + 1), 1.0)
    return Problem(model=model, domain=domain, kappa=kappa, signed=True)


def load_regression(path, rng: np.random.Generator, kappa: float = 5e-4):
    """Load a numeric CSV (last column is the target) into a ReLU problem."""
    rows = _read_samples(path)
    if rows.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column and a target")
    dataset = _split_dataset(rows[:, :-1], rows[:, -1], rng)
    return dataset, _relu_problem(dataset, kappa)


def gen_teacher_regression(n_samples: int, n_features: int, n_teacher: int,
                           noise: float, rng: np.random.Generator, kappa: float = 5e-4):
    """Synthetic regression from a planted two-layer ReLU teacher.

    Returns ``(dataset, problem, teacher_swarm)`` where the teacher swarm
    reproduces the standardized targets up to the label noise, so its loss
    is a reachable reference value.
    """
    raw_x = rng.standard_normal((n_samples, n_features))
    units = rng.standard_normal((n_teacher, n_features + 1))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    amps = rng.uniform(0.5, 1.5, size=n_teacher) * rng.choice([-1.0, 1.0], size=n_teacher)
    aug = np.hstack([raw_x, np.ones((n_samples, 1))])
    raw_y = np.maximum(aug @ units.T, 0.0) @ amps + noise * rng.standard_normal(n_samples)

    dataset = _split_dataset(raw_x, raw_y, rng)
    problem = _relu_problem(dataset, kappa)

    # Map the teacher into standardized coordinates. Standardizing x sends
    # relu(<v, x> + b) to relu(<v*s, x'> + b + <v, m>); rescaling each unit
    # back into the unit ball moves its norm into the weight (positive
    # homogeneity), and the target shift becomes a constant unit (v=0, b=1).
    mapped = []
    weights = []
    for u, a in zip(units, amps):
        v, b = u[:-1], u[-1]
        v2 = v * dataset.feature_std
        b2 = b + float(v @ dataset.feature_mean)
        unit = np.concatenate([v2, [b2]])
        norm = np.linalg.norm(unit)
        mapped.append(unit / norm)
        weights.append(a * norm / dataset.target_std)
    mapped.append(np.concatenate([np.zeros(n_features), [1.0]]))
    weights.append(-dataset.target_mean / dataset.target_std)
    teacher = lift_signed(weights, mapped)
    return dataset, problem, teacher


def relu_predict(swarm: ParticleSwarm, features: np.ndarray) -> np.ndarray:
    """Network output ``sum_j w_j s_j relu(<v_j, x> + b_j)`` per row."""
    aug = np.hstack([features, np.ones((features.shape[0], 1))])
    acts = np.maximum(aug @ swarm.positions.T, 0.0)
    return acts @ (swarm.weights * swarm.signs)


def heldout_mse(swarm: ParticleSwarm, dataset: RegressionDataset) -> float:
    """Mean squared residual on the held-out rows only."""
    idx = dataset.test_index
    pred = relu_predict(swarm, dataset.features[idx])
    return float(np.mean((pred - dataset.targets[idx]) ** 2))


@dataclass
class SummaryRow:
    method: str
    loss: float
    tv: float
    p_final: int
    time_s: float
    deaths: int
    births: int
    heldout_mse: float | None = None


def summarize(named_results, heldout_mses=None) -> list[SummaryRow]:
    """Build comparison rows from ``(method name, RunResult)`` pairs."""
    named_results = list(named_results)
    if not named_results:
        raise ValueError("summarize requires at least one run")
    heldout_mses = heldout_mses or {}
    rows = []
    for name, result in named_results:
        rows.append(SummaryRow(
            method=name,
            loss=result.final_loss,
            tv=result.final_swarm.tv_norm(),
            p_final=len(result.final_swarm),
            time_s=result.total_time_s,
            deaths=result.total_deaths,
            births=result.total_births,
            heldout_mse=heldout_mses.get(name),
        ))
    return rows


def _format_cells(rows: list[SummaryRow]):
    with_mse = any(r.heldout_mse is not None for r in rows)
    header = ["Method", "Loss", "TV", "p_final", "Time(s)", "Deaths", "Births"]
    if with_mse:
        header.append("TestMSE")
    table = [header]
    for r in rows:
        cells = [r.method, f"{r.loss:.6g}", f"{r.tv:.4f}", str(r.p_final),
                 f"{r.time_s:.2f}", str(r.deaths), str(r.births)]
        if with_mse:
            cells.append("" if r.heldout_mse is None else f"{r.heldout_mse:.6g}")
        table.append(cells)
    return table


def summary_text(rows: list[SummaryRow]) -> str:
    table = _format_cells(rows)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in table]
    return "\n".join(lines)


def summary_csv(rows: list[SummaryRow]) -> str:
    table = _format_cells(rows)
    return "\n".join(",".join(row) for row in table) + "\n"
