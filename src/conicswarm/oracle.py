"""Mini-batch sampling for the stochastic oracle, and the scale of its
noise-derived weight-rate cap.

Batches are index arrays drawn i.i.d. uniform with replacement; passing one
as ``idx`` to ``objective.certificate`` or ``objective.certificate_and_grad``
gives the mini-batch estimate, while ``idx=None`` evaluates the exact
full-data quantity, which coincides with a batch that enumerates every
sample index exactly once. The solver loop draws both of an iteration's
batches in one call of ``2 m`` indices, which has the values of two draws
of m, and passes the first half to ``KernelModel.support_field`` and the
second to ``pushed_values``, which scores the pushed support and the birth
candidates on it in one pass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "draw_batch",
    "HOEFFDING_CAP_CONST",
]

#: numeric value of sqrt(8 * ln 8), the weight-rate cap scale
HOEFFDING_CAP_CONST = math.sqrt(8.0 * math.log(8.0))


def draw_batch(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Draw m indices i.i.d. uniform with replacement from range(n)."""
    if m < 1:
        raise ValueError("batch size must be at least 1")
    if n < 1:
        raise ValueError("need at least one data sample")
    return rng.integers(0, n, size=m)
