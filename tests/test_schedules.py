import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.audit import AssumptionBounds
from conicswarm.oracle import HOEFFDING_CAP_CONST
from conicswarm.schedules import AnytimePlan, CalibrationError, FixedPlan, calibrate, \
    horizon_plan

E = math.e


def bounds_of(kernel_min=1.0, smooth_max=1.0, noise_sup=0.1, cert_offset=1.0):
    return AssumptionBounds(kernel_min=kernel_min, smooth_max=smooth_max,
                            noise_sup=noise_sup, cert_offset=cert_offset)


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
        cal = calibrate(bounds_of(kernel_min=1.0, cert_offset=1.0), nu0_tv=0.1,
                        kappa=0.1, lambda_x=7.0, y_norm=9.0, stochastic=True)
        assert cal.tv_radius == pytest.approx(E + E**1.5 + 1.0)

    def test_alpha_is_min_of_caps(self):
        cal = calibrate(bounds_of(noise_sup=1e5), nu0_tv=0.1, kappa=0.1, lambda_x=1.0,
                        y_norm=0.0, stochastic=True)
        assert cal.alpha == pytest.approx(min(cal.alpha_cap_mass, cal.alpha_cap_descent,
                                              cal.hoeffding_cap))
        assert cal.binding_cap == "hoeffding"
        # the binding cap is alpha * noise_sup = sqrt(8 ln 8), to rounding
        assert cal.alpha * 1e5 == pytest.approx(HOEFFDING_CAP_CONST, rel=1e-15)

    def test_hoeffding_cap_infinite_for_deterministic(self):
        cal = calibrate(bounds_of(), nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        assert math.isinf(cal.hoeffding_cap)

    def test_beta_struct_formula(self):
        cal = calibrate(bounds_of(), nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        c = 1.0
        expected = 1.0 / (2 * c * (c + 3 * cal.tv_bound) * math.exp(0.2))
        assert cal.chosen_beta == pytest.approx(expected)

    def test_failed_positivity_raises(self):
        with pytest.raises(CalibrationError):
            calibrate(bounds_of(kernel_min=0.0), nu0_tv=0.1, kappa=0.1, lambda_x=1.0,
                      y_norm=0.0, stochastic=False)

    def test_failed_positivity_refuses_stochastic_calibration(self):
        # the kernel minimum is also the slope of the stochastic radius
        with pytest.raises(CalibrationError, match="kernel positivity failed"):
            calibrate(bounds_of(kernel_min=0.0), nu0_tv=0.1, kappa=0.1, lambda_x=1.0,
                      y_norm=0.0, stochastic=True)

    def test_underflowing_descent_cap_fails_closed(self):
        # a kernel minimum of 2e-158, as gmm_full.cfg's audit finds, puts the
        # TV bound near 1e156, and the descent cap ~ 1 / (10 tv_bound^2)
        # underflows to 0; calibrate still reports the caps, and the rate
        # check refuses them
        bounds = bounds_of(kernel_min=2e-158, smooth_max=0.08, cert_offset=3e-3)
        cal = calibrate(bounds, nu0_tv=1.0, kappa=1e-4, lambda_x=1.0, y_norm=0.0,
                        stochastic=True)
        assert cal.alpha == 0.0 and cal.binding_cap == "descent"
        with pytest.raises(CalibrationError, match=r"alpha = 0 .*binding: descent cap"):
            cal.check_rates(bounds)

    def test_subnormal_alpha_fails_closed(self):
        # tv_bound = nu0_tv = 4e153 gives a descent cap of 6.25e-309
        cal = calibrate(bounds_of(), nu0_tv=4e153, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        with pytest.raises(CalibrationError, match=r"alpha = 6.25e-309 .*binding: descent cap"):
            cal.check_rates(bounds_of())

    def test_zero_structural_beta_fails_closed(self):
        # smooth_max^2 = 1e400 overflows the denominator; alpha stays normal
        bounds = bounds_of(smooth_max=1e200)
        cal = calibrate(bounds, nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        with pytest.raises(CalibrationError,
                           match=r"chosen_beta = 0 .*binding: structural bound"):
            cal.check_rates(bounds)

    def test_smallest_normal_alpha_passes(self):
        # a normal alpha near the smallest normal float passes the float
        # check; with the TV bound 1e150 behind it, it cannot move a weight,
        # and with a certificate bound of 1 / alpha it could
        cal = calibrate(bounds_of(), nu0_tv=1e150, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        assert 0.0 < cal.alpha < 1e-300 and cal.binding_cap == "descent"
        with pytest.raises(CalibrationError, match="rounds to 1 for every certificate"):
            cal.check_rates(bounds_of())
        dataclasses.replace(cal, cert_bound=1.0 / cal.alpha).check_rates(bounds_of())

    def test_alpha_that_cannot_move_a_weight_fails_closed(self):
        # a correctly rounded exp(-x) is exactly 1 for |x| < 2^-54, half the
        # spacing of the floats below 1; numpy's is 1 or the float below it
        below = math.nextafter(2.0**-54, 0.0)
        assert math.exp(-below) == math.exp(below) == 1.0
        assert np.exp(below) == 1.0 and np.exp(-below) >= math.nextafter(1.0, 0.0)
        # kernel_min = 1e-40 puts the TV bound near 9e20 and alpha near 1e-43,
        # a normal float, yet alpha times the certificate bound
        # smooth_max * tv_bound + cert_offset + kappa is near 1e-22
        bounds = bounds_of(kernel_min=1e-40)
        cal = calibrate(bounds, nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        assert cal.alpha >= sys.float_info.min and cal.binding_cap == "descent"
        assert cal.cert_bound == cal.tv_bound + 1.0 + 0.1
        assert math.exp(-cal.alpha * cal.cert_bound) == 1.0
        with pytest.raises(CalibrationError,
                           match=r"alpha = 1\.\d+e-43 is not a usable rate \(binding: descent "
                                 r"cap, alpha \* cert_bound = 1\.\d+e-22 < 2\^-54, so "
                                 r"exp\(-alpha \* cert\) rounds to 1 for every certificate, "
                                 r"tv_bound = 8\.96\d+e\+20"):
            cal.check_rates(bounds)
        # the threshold itself: 2^-54 passes, the float below it does not;
        # alpha is the least cap, so the descent cap sets it under a mass cap of 1
        at_2_54 = dataclasses.replace(cal, alpha_cap_mass=1.0, alpha_cap_descent=2.0**-54,
                                      cert_bound=1.0)
        assert at_2_54.alpha == 2.0**-54
        at_2_54.check_rates(bounds)
        with pytest.raises(CalibrationError, match="rounds to 1 for every certificate"):
            dataclasses.replace(at_2_54, alpha_cap_descent=below).check_rates(bounds)

    def test_cert_bound_adds_kappa(self):
        # smooth_max * tv_bound + cert_offset + kappa, at constants small
        # enough that kappa = 0.1 moves the sum
        cal = calibrate(bounds_of(), nu0_tv=0.1, kappa=0.1, lambda_x=1.0, y_norm=0.0,
                        stochastic=False)
        assert cal.tv_bound < 11.0 and cal.cert_bound == cal.tv_bound + 1.0 + 0.1

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
        assert plan.alpha == 1.0

    def test_minimum_horizon_enforced(self):
        horizon_plan(100, 0.1, 0.05, d=1)
        with pytest.raises(ValueError):
            horizon_plan(99, 0.1, 0.05, d=1)

    def test_horizon_at_its_minimum_is_accepted(self):
        # alpha = 0.5 needs K >= 1 / alpha^2 = 4 exactly: K = 4 passes, 3 does not
        assert horizon_plan(4, 0.5, math.inf, d=2).m == 4
        with pytest.raises(ValueError, match="horizon K=3 below the minimum 4 for alpha=0.5"):
            horizon_plan(3, 0.5, math.inf, d=2)

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

    @pytest.mark.parametrize("alpha", [-0.01, math.nan])
    def test_fixed_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            FixedPlan(alpha, 0.05, 256, 0.0)
        assert FixedPlan(0.0, 0.05, 256, 0.0).alpha == 0.0  # the trivial rate is legal

    @pytest.mark.parametrize("beta", [-0.01, math.nan])
    def test_fixed_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            FixedPlan(0.5, 0.05, 256, beta)
        assert FixedPlan(0.5, 0.05, 256, 0.0).at(3) == (0.05, 256, 0.0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_fixed_rejects_empty_batch(self, m):
        with pytest.raises(ValueError, match="batch size must be at least 1"):
            FixedPlan(0.5, 0.05, m, 0.0)
        assert FixedPlan(0.5, 0.05, 1, 0.0).at(1) == (0.05, 1, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan])
    def test_horizon_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            horizon_plan(100, alpha, 0.05, d=1)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-160])
    def test_horizon_names_alpha_and_the_minimum_for_a_tiny_alpha(self, alpha):
        # alpha^2 is 0 or subnormal, so 1 / alpha^2 divided by zero or
        # overflowed to inf, which math.ceil refused
        with pytest.raises(ValueError, match=f"below the minimum inf for alpha={alpha}$"):
            horizon_plan(10**6, alpha, 0.05, d=1)
