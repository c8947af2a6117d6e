"""Mass tweaking: deletion in positive-certificate regions, creation in
negative ones.

Two death rules are provided. The guarded rule removes a particle when the
pushed certificate at its location is nonnegative and its weight is at
most ``sqrt(2) * eps_k`` (scanning either every particle or one uniformly
drawn particle per step). The ratio rule removes any particle whose
certificate-to-weight ratio exceeds a threshold; it always scans all
particles. Births draw uniform candidates (``draw_candidates``) before the
death step, and accept those whose estimated certificate falls below
``coeff * sqrt(log(m) / m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import Problem
from .swarm import ParticleSwarm

__all__ = [
    "DeathRule",
    "BirthRule",
    "tail_exponent_for_dim",
    "guarded_threshold_coeff",
    "select_deaths",
    "evaluate_birth_candidates",
    "apply_mass_tweak",
]

SQRT2 = math.sqrt(2.0)


@dataclass
class DeathRule:
    """Particle-removal policy.

    kind       -- "guarded" (nonnegative certificate and small weight) or
                  "ratio" (certificate / weight above tau_death)
    tau_death  -- threshold for the ratio rule
    scan       -- "all" or "single" (one uniform particle per step);
                  the ratio rule always scans all particles
    """

    kind: str = "guarded"
    tau_death: float = 5.0
    scan: str = "all"

    def __post_init__(self):
        if self.kind not in ("guarded", "ratio"):
            raise ValueError(f"unknown death rule {self.kind!r}")
        if self.scan not in ("all", "single"):
            raise ValueError(f"unknown scan mode {self.scan!r}")
        if self.kind == "ratio" and self.tau_death <= 0:
            raise ValueError("ratio rule needs tau_death > 0")


@dataclass
class BirthRule:
    """Particle-creation policy.

    threshold_coeff    -- scale of the acceptance level (the noise-derived
                          scale for guarded runs, a hand-set value otherwise);
                          +inf accepts every candidate, -inf none
    candidates_per_iter -- uniform candidate draws per iteration
    birth_mass         -- weight of accepted particles (None: use eps_k)
    """

    threshold_coeff: float
    candidates_per_iter: int = 1
    birth_mass: float | None = None

    def __post_init__(self):
        if self.candidates_per_iter < 1:
            raise ValueError("need at least one birth candidate per iteration")
        if self.birth_mass is not None and not 0 <= self.birth_mass < math.inf:
            raise ValueError("birth mass must be finite and nonnegative")
        if math.isnan(self.threshold_coeff):
            raise ValueError("birth threshold coefficient must not be NaN")

    def threshold(self, m_k: int) -> float:
        if m_k < 1:
            raise ValueError("batch size for the birth threshold must be >= 1")
        if math.isinf(self.threshold_coeff):
            return self.threshold_coeff
        return self.threshold_coeff * math.sqrt(math.log(m_k) / m_k) if m_k > 1 else 0.0


def tail_exponent_for_dim(d: int) -> float:
    """Smallest tail exponent the convergence analysis admits: d / (2 (2 + d))."""
    return d / (2.0 * (2.0 + d))


def guarded_threshold_coeff(noise_sup: float, tail_exponent: float) -> float:
    """The guarded birth coefficient ``noise_sup * sqrt(2 a)``: a batch estimate falls
    ``BirthRule.threshold(m)`` below the exact certificate with probability at most ``m**-a``."""
    if tail_exponent <= 0 or noise_sup <= 0:
        raise ValueError("tail exponent and noise bound must be positive")
    return noise_sup * math.sqrt(2.0 * tail_exponent)


def select_deaths(swarm: ParticleSwarm, pushed_certs, rule: DeathRule, eps_k: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Indices of particles to delete, judged on the pushed certificate."""
    certs = np.asarray(pushed_certs, dtype=float).reshape(-1)
    if certs.size != len(swarm):
        raise ValueError("pushed certificates must match the swarm length")
    if len(swarm) == 0:
        return np.empty(0, dtype=int)
    if rule.kind == "ratio":
        mask = certs > rule.tau_death * swarm.weights
        return np.nonzero(mask)[0]
    mask = (certs >= 0.0) & (swarm.weights <= SQRT2 * eps_k)
    if rule.scan == "all":
        return np.nonzero(mask)[0]
    j = int(rng.integers(0, len(swarm)))
    return np.array([j], dtype=int) if mask[j] else np.empty(0, dtype=int)


def draw_candidates(problem: Problem, rule: BirthRule, rng: np.random.Generator):
    """The iteration's ``rule.candidates_per_iter`` uniform candidates:
    positions first, then, on a signed problem, signs; an unsigned
    problem's are +1 and take no draw."""
    n_cand = rule.candidates_per_iter
    positions = problem.domain.sample_uniform(rng, size=n_cand)
    if problem.signed:
        signs = np.where(rng.integers(0, 2, size=n_cand) == 0, 1.0, -1.0)
    else:
        signs = np.ones(n_cand)
    return positions, signs


def evaluate_birth_candidates(problem: Problem, positions, signs, values, rule: BirthRule,
                              eps_k: float, m_k: int):
    """Apply the threshold to the candidates of ``draw_candidates``, whose
    pushed values ``K(C, T') c - <y, phi_C>`` (``KernelModel.pushed_values``)
    are ``values``; a certificate is ``s v + kappa``, or ``v + kappa`` on an
    unsigned problem, where every sign is +1.

    Returns ``(born, cand_certs, accept)``: the ``born`` swarm holds the
    candidates whose certificate is at most the threshold, in draw order,
    ``cand_certs`` every candidate's certificate, and the boolean mask
    ``accept`` the candidates that were born.
    """
    certs = (signs * values if problem.signed else values) + problem.kappa
    mass = eps_k if rule.birth_mass is None else rule.birth_mass
    accept = certs <= rule.threshold(m_k)
    born = ParticleSwarm(np.full(np.count_nonzero(accept), mass), signs[accept],
                         positions[accept])
    return born, certs, accept


def apply_mass_tweak(swarm: ParticleSwarm, keep, births: ParticleSwarm) -> ParticleSwarm:
    """Keep the particles where the boolean mask ``keep`` holds, then append
    births in draw order.

    Equivalent to zeroing the dead weights and pruning zero-weight atoms;
    survivor order is preserved and the particle count is
    ``keep.sum() + len(births)``. With every particle kept and none born,
    the swarm itself is returned. A ``keep`` that is not a boolean array of
    shape ``(len(swarm),)`` is refused.
    """
    keep = np.asarray(keep)
    if keep.shape != (len(swarm),) or keep.dtype != bool:
        raise ValueError(f"keep must be a boolean mask of shape ({len(swarm)},), "
                         f"got {keep.dtype} of shape {keep.shape}")
    if keep.all() and not len(births):
        return swarm
    return ParticleSwarm(np.concatenate([swarm.weights[keep], births.weights]),
                         np.concatenate([swarm.signs[keep], births.signs]),
                         np.vstack([swarm.positions[keep], births.positions]))
