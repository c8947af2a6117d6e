"""Mass tweaking: deletion in positive-certificate regions, creation in
negative ones.

Two death rules are provided. The guarded rule removes a particle when the
pushed certificate at its location is nonnegative and its weight is at
most ``sqrt(2) * eps_k`` (scanning either every particle or one uniformly
drawn particle per step). The ratio rule removes any particle whose
certificate-to-weight ratio exceeds a threshold; it always scans all
particles. Births draw uniform candidates and accept those whose
estimated certificate falls below ``coeff * sqrt(log(m) / m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import Problem, certificate
from .swarm import ParticleSwarm

__all__ = [
    "DeathRule",
    "BirthRule",
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


def evaluate_birth_candidates(problem: Problem, swarm: ParticleSwarm, rule: BirthRule,
                              eps_k: float, m_k: int, idx: np.ndarray | None,
                              rng: np.random.Generator):
    """Draw candidates, estimate their certificates on the batch ``idx``
    (``None``: exactly) and apply the threshold.

    Returns ``(born, candidates, cand_signs, cand_certs, threshold)``; the
    ``born`` swarm holds the accepted candidates in draw order.
    """
    n_cand = rule.candidates_per_iter
    positions = problem.domain.sample_uniform(rng, size=n_cand)
    if problem.signed:
        signs = np.where(rng.integers(0, 2, size=n_cand) == 0, 1.0, -1.0)
    else:
        signs = np.ones(n_cand)
    certs = certificate(problem, swarm, positions, signs, idx)
    level = rule.threshold(m_k)
    mass = eps_k if rule.birth_mass is None else rule.birth_mass
    accept = certs <= level
    born = ParticleSwarm(np.full(int(accept.sum()), mass), signs[accept], positions[accept])
    return born, positions, signs, certs, level


def apply_mass_tweak(swarm: ParticleSwarm, deaths, births: ParticleSwarm) -> ParticleSwarm:
    """Remove the death indices, then append births in draw order.

    Equivalent to zeroing the dead weights and pruning zero-weight atoms;
    survivor order is preserved and the particle count satisfies
    ``new = old - len(deaths) + len(births)`` exactly.
    """
    deaths = np.asarray(deaths, dtype=int).reshape(-1)
    keep = slice(None)
    if deaths.size:
        if np.unique(deaths).size != deaths.size:
            raise ValueError("duplicate death indices")
        if deaths.min() < 0 or deaths.max() >= len(swarm):
            raise ValueError("death index out of range")
        keep = np.ones(len(swarm), dtype=bool)
        keep[deaths] = False
    return ParticleSwarm(np.concatenate([swarm.weights[keep], births.weights]),
                         np.concatenate([swarm.signs[keep], births.signs]),
                         np.vstack([swarm.positions[keep], births.positions]))
