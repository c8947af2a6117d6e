"""The conic update, exponential weights plus a projected position step,
and the one-step descent check of that same update."""

from __future__ import annotations

import numpy as np

from .objective import Problem, loss
from .swarm import ParticleSwarm

__all__ = ["weight_push_update", "descent_check"]


def weight_push_update(problem: Problem, swarm: ParticleSwarm, certs, grads,
                       alpha: float, beta: float) -> ParticleSwarm:
    """Apply ``w <- w * exp(-alpha * cert)`` and a projected position step at rate beta.

    ``certs`` and ``grads`` must be indexed like the swarm and already
    sign-folded (evaluated at each particle's lifted point). With beta = 0
    the positions are returned bitwise unchanged; signs never change. The
    rates are taken as given: the plans and ``Calibration.check_rates``
    refuse negative, NaN and unusable ones before a run starts.
    Raises ``ValueError`` if the exponential overflows to a non-finite weight.
    """
    certs = np.asarray(certs, dtype=float).reshape(-1)
    grads = np.asarray(grads, dtype=float).reshape(len(swarm), -1) if len(swarm) else \
        np.empty((0, swarm.dim))
    if certs.size != len(swarm) or grads.shape != swarm.positions.shape:
        raise ValueError("certs and grads must match the swarm length and dimension")
    # an overflow is reported by the ValueError below, not by a warning
    with np.errstate(over="ignore"):
        new_weights = swarm.weights * np.exp(-alpha * certs)
    if not np.isfinite(new_weights).all():
        raise ValueError("weight update overflowed to non-finite weights; lower alpha")
    if beta > 0 and len(swarm):
        new_positions = problem.domain.project(swarm.positions - beta * grads)
    else:
        new_positions = swarm.positions
    return ParticleSwarm(new_weights, swarm.signs, new_positions)


def descent_check(problem: Problem, before: ParticleSwarm, alpha: float, beta: float,
                  exact_certs, exact_pis, tol: float = 1e-10):
    """Verify the one-step energy decrease of the conic update.

    Given exact certificate values and exact projected-gradient vectors
    ``pi`` at the support, the measure that ``weight_push_update`` makes of
    them must satisfy

        J(after) - J(before) <=
            -(3/4) * (alpha * sum_j w_j c_j^2 + beta * sum_j w_j |pi_j|^2)

    whenever the rates are below their structural bounds and the swarm TV
    is within the calibrated cap. Returns ``(holds, lhs, rhs)``.
    """
    after = weight_push_update(problem, before, exact_certs, exact_pis, alpha, beta)
    certs = np.asarray(exact_certs, dtype=float).reshape(-1)
    pis = np.asarray(exact_pis, dtype=float).reshape(after.positions.shape)
    lhs = loss(problem, after) - loss(problem, before)
    w = before.weights
    rhs = -0.75 * (alpha * float(w @ certs**2) + beta * float(w @ np.sum(pis**2, axis=1)))
    return lhs <= rhs + tol, float(lhs), float(rhs)
