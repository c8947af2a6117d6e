"""Rate calibration and exploration/batch/step-size schedules.

The weight rate alpha is fixed first from problem data alone: a mass
radius R bounds the total variation the iterates can accumulate, the TV
cap ``C = max(tv(nu_0), 2 R)`` turns the descent condition into a numeric
cap, and (for stochastic runs) a Hoeffding condition adds a third cap.
Every other parameter is derived downstream of alpha.

A run follows a plan whose ``at(k)`` gives ``(eps_k, m_k, beta_k)``:
``FixedPlan`` holds them constant (a hand-set schedule, or one tuned to a
known budget K by ``horizon_plan``); ``AnytimePlan`` varies them with k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import AssumptionBounds
from .oracle import HOEFFDING_CAP_CONST

__all__ = [
    "CalibrationError",
    "Calibration",
    "FixedPlan",
    "AnytimePlan",
    "calibrate",
    "horizon_plan",
]

_E = math.e


class CalibrationError(Exception):
    """Raised when the audited constants cannot support calibration."""


@dataclass
class Calibration:
    """Derived constants and the chosen rates.

    tv_radius      -- attractor radius R of the total-variation recursion
    tv_bound       -- uniform TV cap: max(tv(nu_0), 2 * tv_radius)
    alpha          -- chosen weight rate, the minimum of the three caps
    alpha_cap_mass -- 1 / (1 + tv_radius)
    alpha_cap_descent -- descent-condition cap
    hoeffding_cap  -- noise cap (inf for deterministic oracles)
    beta_max_struct -- structural bound on the position rate
    chosen_beta    -- position rate actually proposed (<= beta_max_struct)
    """

    tv_radius: float
    tv_bound: float
    alpha: float
    alpha_cap_mass: float
    alpha_cap_descent: float
    hoeffding_cap: float
    beta_max_struct: float
    chosen_beta: float
    stochastic: bool = False

    @property
    def binding_cap(self) -> str:
        caps = {
            "mass": self.alpha_cap_mass,
            "descent": self.alpha_cap_descent,
            "hoeffding": self.hoeffding_cap,
        }
        return min(caps, key=caps.get)


def calibrate(bounds: AssumptionBounds, nu0_tv: float, kappa: float, lambda_x: float,
              y_norm: float, stochastic: bool) -> Calibration:
    """Derive rates from audited constants.

    Deterministic runs use ``R = (|y| / c) e + sqrt(e^3 vol(X) / c) + vol(X)``
    with c the kernel minimum; stochastic runs replace R by
    ``(offset / slope) e + sqrt(e^3 / slope) + 1`` built from the
    certificate lower bound, and add the Hoeffding cap
    ``sqrt(8 ln 8) / noise_sup``. Fails closed when positivity fails.
    """
    c_min = bounds.kernel_min
    if c_min <= 0.0:
        raise CalibrationError(
            "kernel positivity failed (audited minimum is 0); calibration is "
            "unavailable, supply manual rates")
    if stochastic:
        if bounds.cert_slope <= 0.0:
            raise CalibrationError("certificate slope is 0; stochastic calibration unavailable")
        radius = (bounds.cert_offset / bounds.cert_slope) * _E \
            + math.sqrt(_E**3 / bounds.cert_slope) + 1.0
    else:
        radius = (y_norm / c_min) * _E + math.sqrt(_E**3 * lambda_x / c_min) + lambda_x
    tv_bound = max(nu0_tv, 2.0 * radius)
    c_max = bounds.smooth_max
    cap_mass = 1.0 / (1.0 + radius)
    cap_descent = 1.0 / (10.0 * (1.0 + tv_bound + c_max + kappa) * max(1.0, tv_bound))
    if stochastic and bounds.noise_sup > 0:
        cap_hoeffding = HOEFFDING_CAP_CONST / bounds.noise_sup
    else:
        cap_hoeffding = math.inf
    alpha = min(cap_mass, cap_descent, cap_hoeffding)
    beta_struct = 1.0 / (2.0 * c_max * (c_max + 3.0 * tv_bound) * math.exp(0.2))
    return Calibration(
        tv_radius=radius,
        tv_bound=tv_bound,
        alpha=alpha,
        alpha_cap_mass=cap_mass,
        alpha_cap_descent=cap_descent,
        hoeffding_cap=cap_hoeffding,
        beta_max_struct=beta_struct,
        chosen_beta=beta_struct,
        stochastic=stochastic,
    )


@dataclass
class FixedPlan:
    """Constant schedule: the same exploration mass, batch and step at every k."""

    eps: float
    m: int
    beta: float

    def __post_init__(self):
        # eps is the weight of every birth whose rule sets no birth_mass
        if not 0 < self.eps < math.inf:
            raise ValueError("exploration mass eps must be finite and > 0")
        if not self.beta >= 0:
            raise ValueError("rates must be nonnegative")

    def at(self, k: int):
        return self.eps, self.m, self.beta


@dataclass
class AnytimePlan:
    """Horizon-free schedule: per-iteration exploration, batch and step."""

    alpha: float
    beta_cap: float = math.inf

    def __post_init__(self):
        # alpha caps the exploration mass eps_k, which becomes birth weights
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0")
        if not self.beta_cap > 0:
            raise ValueError("beta_cap must be > 0")

    def at(self, k: int):
        kk = max(k, 1)
        eps_k = min(self.alpha, 1.0 / math.sqrt(kk))
        beta_k = min(1.0 / kk, self.beta_cap)
        return eps_k, kk, beta_k


def horizon_plan(k_total: int, alpha: float, beta_cap: float, d: int) -> FixedPlan:
    """Budget-aware plan: eps = 1/sqrt(K), m = K, beta capped by ``beta_cap``.

    Requires ``K >= 1 / alpha^2`` so that the constant exploration mass
    stays below alpha.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    k_min = math.ceil(1.0 / alpha**2)
    if k_total < k_min:
        raise ValueError(f"horizon K={k_total} below the minimum {k_min} for alpha={alpha}")
    eps = 1.0 / math.sqrt(k_total)
    beta = min(beta_cap, 1.0 / (alpha ** (d / 4.0) * math.sqrt(k_total)))
    return FixedPlan(eps=eps, m=k_total, beta=beta)

