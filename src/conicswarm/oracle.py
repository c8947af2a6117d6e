"""Mini-batch sampling and the noise configuration of the stochastic oracle.

Batches are index arrays drawn i.i.d. uniform with replacement; passing one
as ``idx`` to ``objective.certificate`` or ``objective.certificate_and_grad``
gives the mini-batch estimate, while ``idx=None`` evaluates the exact
full-data quantity, which coincides with a batch that enumerates every
sample index exactly once. The solver loop passes each iteration's first
batch to ``KernelModel.support_field`` and its second to
``pushed_values``, whose ``ev`` carries that batch to ``candidate_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OracleConfig",
    "draw_batch",
    "HOEFFDING_CAP_CONST",
]

#: numeric value of sqrt(8 * ln 8), the weight-rate cap scale
HOEFFDING_CAP_CONST = math.sqrt(8.0 * math.log(8.0))


@dataclass
class OracleConfig:
    """Birth-threshold configuration derived from the oracle noise bound.

    ``threshold_scale = noise_sup * sqrt(2 * tail_exponent)`` makes the
    probability of a spurious birth at a fixed point decay like
    ``m ** -tail_exponent`` in the batch size m.
    """

    tail_exponent: float
    noise_sup: float
    threshold_scale: float = field(init=False)

    def __post_init__(self):
        if self.tail_exponent <= 0 or self.noise_sup <= 0:
            raise ValueError("tail exponent and noise bound must be positive")
        self.threshold_scale = self.noise_sup * math.sqrt(2.0 * self.tail_exponent)

    @classmethod
    def for_dim(cls, d: int, noise_sup: float) -> "OracleConfig":
        """Smallest tail exponent the convergence analysis admits: d/(2(2+d))."""
        return cls(tail_exponent=d / (2.0 * (2.0 + d)), noise_sup=noise_sup)


def draw_batch(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Draw m indices i.i.d. uniform with replacement from range(n)."""
    if m < 1:
        raise ValueError("batch size must be at least 1")
    if n < 1:
        raise ValueError("need at least one data sample")
    return rng.integers(0, n, size=m)
