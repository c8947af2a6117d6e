import math

import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.kernels import AssumptionBounds
from conicswarm.schedules import AnytimePlan, CalibrationError, FixedPlan, calibrate, \
    horizon_plan

E = math.e


def bounds_of(kernel_min=1.0, smooth_max=1.0, noise_sup=0.1, cert_slope=None,
              cert_offset=1.0):
    return AssumptionBounds(
        kernel_min=kernel_min, smooth_max=smooth_max, noise_sup=noise_sup,
        cert_slope=kernel_min if cert_slope is None else cert_slope,
        cert_offset=cert_offset,
    )


class TestCalibrate:
    def test_deterministic_radius_zero_observation(self):
        # |y| = 0, kernel_min = 1, vol = 1: radius = sqrt(e^3) + 1
        cal = calibrate(bounds_of(), nu0_tv=0.5, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        assert cal.tv_radius == pytest.approx(math.sqrt(E**3) + 1.0)
        assert cal.tv_radius == pytest.approx(5.4817, abs=1e-4)

    def test_tv_bound_max_semantics(self):
        cal = calibrate(bounds_of(), nu0_tv=0.0, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        radius = cal.tv_radius
        big = calibrate(bounds_of(), nu0_tv=3 * radius, kappa=0.1, lambda_x=1.0,
                        y_norm=0.0, stochastic=False)
        assert big.tv_bound == pytest.approx(3 * radius)
        assert cal.tv_bound == pytest.approx(2 * radius)

    def test_stochastic_radius_unit_slope_offset(self):
        cal = calibrate(bounds_of(cert_slope=1.0, cert_offset=1.0), nu0_tv=0.1,
                        kappa=0.1, lambda_x=7.0, y_norm=9.0, stochastic=True)
        assert cal.tv_radius == pytest.approx(E + E**1.5 + 1.0)

    def test_alpha_is_min_of_caps(self):
        cal = calibrate(bounds_of(noise_sup=1e5), nu0_tv=0.1, kappa=0.1, lambda_x=1.0,
                        y_norm=0.0, stochastic=True)
        assert cal.alpha == pytest.approx(min(cal.alpha_cap_mass, cal.alpha_cap_descent,
                                              cal.hoeffding_cap))
        assert cal.binding_cap == "hoeffding"

    def test_hoeffding_cap_infinite_for_deterministic(self):
        cal = calibrate(bounds_of(), nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        assert math.isinf(cal.hoeffding_cap)

    def test_beta_struct_formula(self):
        cal = calibrate(bounds_of(), nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        c = 1.0
        expected = 1.0 / (2 * c * (c + 3 * cal.tv_bound) * math.exp(0.2))
        assert cal.beta_max_struct == pytest.approx(expected)
        assert cal.chosen_beta <= cal.beta_max_struct

    def test_failed_positivity_raises(self):
        with pytest.raises(CalibrationError):
            calibrate(bounds_of(kernel_min=0.0), nu0_tv=0.1, kappa=0.1, lambda_x=1.0,
                      y_norm=0.0, stochastic=False)

    def test_pure_function(self):
        args = dict(nu0_tv=0.3, kappa=0.05, lambda_x=2.0, y_norm=1.5, stochastic=True)
        a = calibrate(bounds_of(kernel_min=0.7, noise_sup=0.2), **args)
        b = calibrate(bounds_of(kernel_min=0.7, noise_sup=0.2), **args)
        assert a == b


class TestHorizonPlan:
    def test_unit_alpha_small_horizon(self):
        plan = horizon_plan(4, 1.0, 0.05, d=1)
        assert plan.eps == pytest.approx(0.5)
        assert plan.m == 4

    def test_minimum_horizon_enforced(self):
        horizon_plan(100, 0.1, 0.05, d=1)
        with pytest.raises(ValueError):
            horizon_plan(99, 0.1, 0.05, d=1)

    def test_beta_min_of_structural_and_horizon(self):
        plan = horizon_plan(16, 0.5, 1e9, d=2)
        assert plan.beta == pytest.approx(1.0 / (0.5**0.5 * 4.0))
        assert horizon_plan(16, 0.5, 1e-4, d=2).beta == pytest.approx(1e-4)
        assert horizon_plan(16, 0.5, math.inf, d=2).beta == plan.beta

    def test_constant_over_iterations(self):
        plan = horizon_plan(25, 0.3, 0.05, d=1)
        assert isinstance(plan, FixedPlan)
        assert plan.at(1) == plan.at(25) == (plan.eps, plan.m, plan.beta)


class TestAnytime:
    def test_k_zero_floors(self):
        eps, m, beta = AnytimePlan(alpha=0.7).at(0)
        assert (eps, m, beta) == (pytest.approx(min(0.7, 1.0)), 1, pytest.approx(1.0))

    def test_reference_values_at_k4(self):
        eps, m, beta = AnytimePlan(alpha=1.0).at(4)
        assert eps == pytest.approx(0.5)
        assert m == 4
        assert beta == pytest.approx(0.25)

    def test_min_branch_large_k(self):
        eps, m, beta = AnytimePlan(alpha=0.05).at(10**6)
        assert eps == pytest.approx(1e-3)
        assert m == 10**6

    @given(st.integers(0, 10**7), st.floats(1e-4, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_eps_never_exceeds_alpha(self, k, alpha):
        eps, _, _ = AnytimePlan(alpha=alpha).at(k)
        assert eps <= alpha + 1e-15

    def test_monotone_schedules(self):
        plan = AnytimePlan(alpha=0.4)
        values = [plan.at(k) for k in range(1, 200)]
        eps = [v[0] for v in values]
        ms = [v[1] for v in values]
        betas = [v[2] for v in values]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        assert all(a <= b for a, b in zip(ms, ms[1:]))
        assert all(a >= b for a, b in zip(betas, betas[1:]))


class TestPlanValidation:
    @pytest.mark.parametrize("alpha", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_anytime_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            AnytimePlan(alpha=alpha)

    @pytest.mark.parametrize("beta_cap", [0.0, -1.0, math.nan])
    def test_anytime_rejects_bad_beta_cap(self, beta_cap):
        with pytest.raises(ValueError, match="beta_cap"):
            AnytimePlan(alpha=0.5, beta_cap=beta_cap)

    @pytest.mark.parametrize("beta", [-0.01, math.nan])
    def test_fixed_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            FixedPlan(0.05, 256, beta)
        assert FixedPlan(0.05, 256, 0.0).at(3) == (0.05, 256, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan])
    def test_horizon_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            horizon_plan(100, alpha, 0.05, d=1)
