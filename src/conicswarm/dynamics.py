"""The conic update: exponential weights plus projected position step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import Problem, loss
from .swarm import ParticleSwarm

__all__ = ["StepRates", "weight_push_update", "descent_check"]


@dataclass
class StepRates:
    """Learning rates for the weight (alpha) and position (beta) updates."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("rates must be nonnegative")


def weight_push_update(problem: Problem, swarm: ParticleSwarm, certs, grads,
                       rates: StepRates) -> ParticleSwarm:
    """Apply ``w <- w * exp(-alpha * cert)`` and a projected position step.

    ``certs`` and ``grads`` must be indexed like the swarm and already
    sign-folded (evaluated at each particle's lifted point). With beta = 0
    the positions are returned bitwise unchanged; signs never change.
    Raises ``ValueError`` if the exponential overflows to a non-finite weight.
    """
    certs = np.asarray(certs, dtype=float).reshape(-1)
    grads = np.asarray(grads, dtype=float).reshape(len(swarm), -1) if len(swarm) else \
        np.empty((0, swarm.dim))
    if certs.size != len(swarm) or grads.shape != swarm.positions.shape:
        raise ValueError("certs and grads must match the swarm length and dimension")
    # an overflow is reported by the ValueError below, not by a warning
    with np.errstate(over="ignore"):
        new_weights = swarm.weights * np.exp(-rates.alpha * certs)
    if not np.isfinite(new_weights).all():
        raise ValueError("weight update overflowed to non-finite weights; lower alpha")
    if rates.beta > 0 and len(swarm):
        new_positions = problem.domain.project(swarm.positions - rates.beta * grads)
    else:
        new_positions = swarm.positions
    return ParticleSwarm(new_weights, swarm.signs, new_positions)


def descent_check(problem: Problem, before: ParticleSwarm, rates: StepRates,
                  exact_certs, exact_pis, tol: float = 1e-10):
    """Verify the one-step energy decrease of the conic update.

    Given exact certificate values and exact projected-gradient vectors
    ``pi`` at the support, the updated measure must satisfy

        J(after) - J(before) <=
            -(3/4) * (alpha * sum_j w_j c_j^2 + beta * sum_j w_j |pi_j|^2)

    whenever the rates are below their structural bounds and the swarm TV
    is within the calibrated cap. Returns ``(holds, lhs, rhs)``.
    """
    certs = np.asarray(exact_certs, dtype=float).reshape(-1)
    pis = np.asarray(exact_pis, dtype=float).reshape(len(before), -1) if len(before) else \
        np.empty((0, before.dim))
    if certs.size != len(before) or pis.shape[0] != len(before):
        raise ValueError("certs and pis must match the swarm length")
    new_weights = before.weights * np.exp(-rates.alpha * certs)
    new_positions = before.positions - rates.beta * pis
    after = ParticleSwarm(new_weights, before.signs, new_positions)
    lhs = loss(problem, after) - loss(problem, before)
    w = before.weights
    rhs = -0.75 * (rates.alpha * float(w @ certs**2)
                   + rates.beta * float(w @ np.sum(pis**2, axis=1)))
    return lhs <= rhs + tol, float(lhs), float(rhs)
