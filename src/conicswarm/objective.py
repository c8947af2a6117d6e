"""BLASSO objective, dual certificate and optimality residuals.

For a lifted swarm with weights W, signs s and positions T the objective is

    J(nu) = 0.5 * |y|^2 + <kappa - k_T, W> + 0.5 * W' K_T W

with the signed Gram matrix ``K_T[i, j] = s_i s_j K(t_i, t_j)`` and
``k_T[j] = s_j <y, phi_{t_j}>``. ``loss`` hands a non-empty swarm to
``KernelModel.objective_value``: the Gaussian models evaluate this
expanded form with the quadratic term ``c'(K c)``, ``c = s * W``, through
``GaussianKernel.weighted_kernel``; ReLU sums the equal network residual
``0.5 mean((relu(X T) c - y)^2) + kappa * sum(W)`` over fixed row blocks,
so it builds neither K_T nor an n x p activation array.

The dual certificate at a lifted point ``(t, s)`` is
``s * (sum_j w_j s_j K(t_j, t) - <y, phi_t>) + kappa``; its sign field
drives birth (negative regions) and death (positive regions).

``certificate`` and ``certificate_and_grad`` fold the sign and kappa into
``KernelModel.certificate_values`` and ``certificate_field``, whose values
agree bit for bit. ``idx=None`` evaluates it exactly, an index array from
``oracle.draw_batch`` gives its mini-batch estimate. The solver loop folds
them the same way into the model's loop evaluations, under the contract
that ``kernels`` states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .kernels import KernelModel
from .swarm import ParticleSwarm

__all__ = [
    "Problem",
    "KktReport",
    "loss",
    "certificate",
    "certificate_and_grad",
    "frechet_gap",
    "kkt_residual",
]


@dataclass
class Problem:
    """A BLASSO instance: kernel model, position domain and penalty weight."""

    model: KernelModel
    domain: Domain
    kappa: float
    signed: bool = True

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.model.dim != self.domain.dim:
            raise ValueError("model and domain dimensions disagree")

    @property
    def sign_choices(self):
        return (1.0, -1.0) if self.signed else (1.0,)


def loss(problem: Problem, swarm: ParticleSwarm, ws=None) -> float:
    """Exact objective value of a swarm (empty swarm gives 0.5 |y|^2); the
    solver loop hands its ``workspace.Workspace`` as ``ws``."""
    if len(swarm) == 0:
        return 0.5 * problem.model.y_norm_sq
    return problem.model.objective_value(swarm.positions, swarm.weights, swarm.signs,
                                         problem.kappa, ws)


def _lifted(problem: Problem, points, signs):
    points = np.asarray(points, dtype=float).reshape(-1, problem.model.dim)
    return points, np.asarray(signs, dtype=float).reshape(-1)


def certificate(problem: Problem, swarm: ParticleSwarm, points, signs,
                idx=None) -> np.ndarray:
    """Certificate values at lifted points, exact or on the batch ``idx``."""
    points, signs = _lifted(problem, points, signs)
    field = problem.model.certificate_values(points, swarm.positions,
                                             swarm.weights * swarm.signs, idx)
    return signs * field + problem.kappa


def certificate_and_grad(problem: Problem, swarm: ParticleSwarm, points, signs,
                         idx=None) -> tuple[np.ndarray, np.ndarray]:
    """Certificate values and spatial gradients at lifted points, from one
    kernel evaluation, exact or on the batch ``idx``."""
    points, signs = _lifted(problem, points, signs)
    field, grad = problem.model.certificate_field(points, swarm.positions,
                                                  swarm.weights * swarm.signs, idx)
    return signs * field + problem.kappa, signs[:, None] * grad


def frechet_gap(problem: Problem, nu: ParticleSwarm, sigma: ParticleSwarm) -> float:
    """Residual of the exact quadratic expansion of J around nu.

    Returns ``|J(nu + sigma) - J(nu) - <J'_nu, sigma> - 0.5 |Phi sigma|^2|``,
    which is zero in exact arithmetic for any lifted perturbation sigma.
    """
    if len(sigma) == 0:
        return 0.0
    j_plus = loss(problem, nu.appended(sigma))
    j_nu = loss(problem, nu)
    certs = certificate(problem, nu, sigma.positions, sigma.signs)
    linear = float(certs @ sigma.weights)
    c = sigma.weights * sigma.signs
    quad = 0.5 * float(c @ problem.model.kernel_matrix(sigma.positions, sigma.positions) @ c)
    return abs(j_plus - j_nu - linear - quad)


@dataclass
class KktReport:
    """Certificate extrema over a grid and over the swarm support."""

    min_cert_grid: float
    argmin_grid: np.ndarray
    max_abs_cert_support: float


def kkt_residual(problem: Problem, swarm: ParticleSwarm, grid) -> KktReport:
    """Certificate minimum over grid x sign choices plus support residual.

    The unsigned field does not depend on the sign, so it is evaluated once
    on the grid and each sign folds in ``s * field + kappa``, as
    ``certificate`` does."""
    grid = np.asarray(grid, dtype=float).reshape(-1, problem.model.dim)
    if grid.shape[0] == 0:
        raise ValueError("kkt_residual requires a nonempty grid")
    field = problem.model.certificate_values(grid, swarm.positions, swarm.weights * swarm.signs)
    best_val = np.inf
    best_arg = grid[0]
    for sign in problem.sign_choices:
        vals = sign * field + problem.kappa
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_arg = grid[j].copy()
    if len(swarm):
        support = certificate(problem, swarm, swarm.positions, swarm.signs)
        support_resid = float(np.abs(support).max())
    else:
        support_resid = 0.0
    return KktReport(best_val, best_arg, support_resid)
