"""Rate calibration and exploration/batch/step-size schedules.

The weight rate alpha is fixed first from problem data alone: a mass
radius R bounds the total variation the iterates can accumulate, the TV
cap ``C = max(tv(nu_0), 2 R)`` turns the descent condition into a numeric
cap, and (for stochastic runs) a Hoeffding condition adds a third cap.
Every other parameter is derived downstream of alpha.

A run follows a plan, the one owner of its weight rate ``alpha``, whose
``at(k)`` gives ``(eps_k, m_k, beta_k)``: ``FixedPlan`` holds them constant
(a hand-set schedule, or one tuned to a known budget K by ``horizon_plan``);
``AnytimePlan`` varies them with k.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .audit import AssumptionBounds
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
    alpha          -- (derived) chosen weight rate, the minimum of the three caps
    alpha_cap_mass -- 1 / (1 + tv_radius)
    alpha_cap_descent -- descent-condition cap
    hoeffding_cap  -- noise cap (inf for deterministic oracles)
    chosen_beta    -- proposed position rate, the structural bound
                      1 / (2 smooth_max (smooth_max + 3 tv_bound) e^0.2);
                      it also caps a horizon plan's beta
    cert_bound     -- bound on every certificate's size,
                      smooth_max * tv_bound + cert_offset + kappa
    """

    tv_radius: float
    tv_bound: float
    alpha_cap_mass: float
    alpha_cap_descent: float
    hoeffding_cap: float
    chosen_beta: float
    cert_bound: float
    stochastic: bool = False

    @property
    def alpha(self) -> float:
        return min(self.alpha_cap_mass, self.alpha_cap_descent, self.hoeffding_cap)

    @property
    def binding_cap(self) -> str:
        caps = {
            "mass": self.alpha_cap_mass,
            "descent": self.alpha_cap_descent,
            "hoeffding": self.hoeffding_cap,
        }
        return min(caps, key=caps.get)

    def check_rates(self, bounds: AssumptionBounds) -> None:
        """Fail closed when alpha or the chosen beta is zero,
        subnormal or not finite: a tiny kernel minimum can make the TV bound
        so large that the descent cap underflows. Fail closed too when
        alpha is normal but cannot move a weight: no certificate exceeds
        ``cert_bound`` in size, so with ``alpha * cert_bound < 2**-54``, half
        the spacing of the floats just below 1, every factor
        ``exp(-alpha cert)`` of the weight update rounds to exactly 1.0 (an
        exp within one unit in the last place returns 1.0 or a float next to
        it). The error names the binding cap and the audited constants
        behind it.
        """
        alpha_cap = f"{self.binding_cap} cap"
        for name, rate, cap in (("alpha", self.alpha, alpha_cap),
                                ("chosen_beta", self.chosen_beta, "structural bound")):
            if not (math.isfinite(rate) and rate >= sys.float_info.min):
                self._refuse(name, rate, cap, bounds)
        if self.alpha * self.cert_bound < 2.0**-54:
            self._refuse("alpha", self.alpha, f"{alpha_cap}, alpha * cert_bound = "
                         f"{self.alpha * self.cert_bound:.6g} < 2^-54, so exp(-alpha * cert) "
                         "rounds to 1 for every certificate", bounds)

    def _refuse(self, name: str, rate: float, cap: str, bounds: AssumptionBounds):
        raise CalibrationError(
            f"calibrated {name} = {rate:.6g} is not a usable rate (binding: {cap}, "
            f"tv_bound = {self.tv_bound:.6g} from audited kernel_min = "
            f"{bounds.kernel_min:.6g}, smooth_max = {bounds.smooth_max:.6g}); "
            "supply manual rates")


def calibrate(bounds: AssumptionBounds, nu0_tv: float, kappa: float, lambda_x: float,
              y_norm: float, stochastic: bool) -> Calibration:
    """Derive rates from audited constants.

    Deterministic runs use ``R = (|y| / c) e + sqrt(e^3 vol(X) / c) + vol(X)``
    with c the kernel minimum; stochastic runs replace R by
    ``(offset / c) e + sqrt(e^3 / c) + 1`` from the certificate lower
    bound ``c tv - offset``, and add the Hoeffding cap
    ``sqrt(8 ln 8) / noise_sup``. Fails closed when positivity fails.
    The rates may still come out unusable (see ``Calibration.check_rates``),
    which matters only to callers that use them.
    """
    c_min = bounds.kernel_min
    if c_min <= 0.0:
        raise CalibrationError(
            "kernel positivity failed (audited minimum is 0); calibration is "
            "unavailable, supply manual rates")
    if stochastic:
        radius = (bounds.cert_offset / c_min) * _E + math.sqrt(_E**3 / c_min) + 1.0
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
    return Calibration(
        tv_radius=radius,
        tv_bound=tv_bound,
        alpha_cap_mass=cap_mass,
        alpha_cap_descent=cap_descent,
        hoeffding_cap=cap_hoeffding,
        chosen_beta=1.0 / (2.0 * c_max * (c_max + 3.0 * tv_bound) * math.exp(0.2)),
        cert_bound=c_max * tv_bound + bounds.cert_offset + kappa,
        stochastic=stochastic,
    )


@dataclass
class FixedPlan:
    """Constant schedule: weight rate alpha, and the same eps, batch and step at every k."""

    alpha: float
    eps: float
    m: int
    beta: float

    def __post_init__(self):
        # eps is the weight of every birth whose rule sets no birth_mass
        if not 0 < self.eps < math.inf:
            raise ValueError("exploration mass eps must be finite and > 0")
        if not self.m >= 1:
            raise ValueError("batch size must be at least 1")
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("rates must be nonnegative")

    def at(self, k: int):
        return self.eps, self.m, self.beta


@dataclass
class AnytimePlan:
    """Horizon-free schedule: weight rate alpha, per-iteration eps, batch and step."""

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
    """Budget-aware plan at rate alpha: eps = 1/sqrt(K), m = K, beta capped by ``beta_cap``.

    Requires ``K >= 1 / alpha^2`` so that the constant exploration mass
    stays below alpha.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    k_min = 1.0 / alpha**2 if alpha**2 > 0 else math.inf   # may overflow to inf
    if not k_total >= k_min:   # for an integer K, the same as K >= ceil(k_min)
        shown = math.ceil(k_min) if k_min < 2.0**53 else f"{k_min:.6g}"
        raise ValueError(f"horizon K={k_total} below the minimum {shown} for alpha={alpha}")
    eps = 1.0 / math.sqrt(k_total)
    beta = min(beta_cap, 1.0 / (alpha ** (d / 4.0) * math.sqrt(k_total)))
    return FixedPlan(alpha=alpha, eps=eps, m=k_total, beta=beta)

