import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm import dynamics
from conicswarm.dynamics import descent_check, weight_push_update
from conicswarm.audit import audit_assumptions
from conicswarm.objective import certificate_and_grad
from conicswarm.schedules import calibrate
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_relu_problem, make_synthetic_problem, random_swarm, \
    suite_descent
from helpers import rng


def exact_certs_and_pis(problem, swarm, beta):
    certs, grads = certificate_and_grad(problem, swarm, swarm.positions, swarm.signs)
    if beta > 0:
        _, pis = problem.domain.prox_step(swarm.positions, grads, beta)
    else:
        pis = np.zeros_like(grads)
    return certs, grads, pis


class TestWeightPushUpdate:
    def test_zero_rates_identity(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(1), max_particles=5)
        certs, grads, _ = exact_certs_and_pis(problem, sw, 0.0)
        out = weight_push_update(problem, sw, certs, grads, 0.0, 0.0)
        assert np.array_equal(out.weights, sw.weights)
        assert np.array_equal(out.positions, sw.positions)
        assert np.array_equal(out.signs, sw.signs)

    def test_log_two_certificate_halves_weight(self):
        problem = make_synthetic_problem()
        alpha = 0.8
        sw = ParticleSwarm([0.6], [1], [[0.5, 0.5]])
        certs = np.array([math.log(2.0) / alpha])
        grads = np.zeros((1, 2))
        out = weight_push_update(problem, sw, certs, grads, alpha, 0.0)
        assert out.weights[0] == pytest.approx(0.3)

    def test_positions_bitwise_unchanged_at_beta_zero(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(2), max_particles=6)
        certs, grads, _ = exact_certs_and_pis(problem, sw, 0.0)
        out = weight_push_update(problem, sw, certs, grads, 0.3, 0.0)
        assert np.array_equal(out.positions, sw.positions)

    def test_positions_stay_in_domain(self):
        problem = make_synthetic_problem()
        g = rng(3)
        for _ in range(10):
            sw = random_swarm(problem, g, max_particles=6)
            certs = g.standard_normal(len(sw))
            grads = 10.0 * g.standard_normal((len(sw), 2))
            out = weight_push_update(problem, sw, certs, grads, 0.1, 2.0)
            assert problem.domain.contains(out.positions).all()

    def test_tv_after_update_is_exponential_reweighting(self):
        problem = make_synthetic_problem()
        g = rng(4)
        sw = random_swarm(problem, g, max_particles=7)
        certs = g.standard_normal(len(sw))
        grads = g.standard_normal((len(sw), 2))
        alpha = 0.42
        out = weight_push_update(problem, sw, certs, grads, alpha, 0.5)
        assert out.tv_norm() == pytest.approx(float(np.sum(sw.weights * np.exp(-alpha * certs))))

    def test_nonnegative_certs_do_not_increase_tv(self):
        problem = make_synthetic_problem()
        g = rng(5)
        sw = random_swarm(problem, g, max_particles=7)
        certs = np.abs(g.standard_normal(len(sw)))
        grads = g.standard_normal((len(sw), 2))
        out = weight_push_update(problem, sw, certs, grads, 0.7, 0.0)
        assert out.tv_norm() <= sw.tv_norm() + 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exp_overflow_rejected(self):
        problem = make_synthetic_problem()
        sw = ParticleSwarm([0.6, 0.2], [1, 1], [[0.5, 0.5], [0.2, 0.8]])
        certs = np.array([0.0, -1e4])  # exp(-alpha * cert) = exp(1e4) overflows
        with pytest.raises(ValueError, match="non-finite"):
            weight_push_update(problem, sw, certs, np.zeros((2, 2)), 1.0, 0.0)

    @given(domain=st.sampled_from(["box", "ball"]), seed=st.integers(0, 2**32 - 1),
           p=st.integers(1, 40), beta=st.floats(1e-6, 3.0), scale=st.sampled_from([0.1, 10.0]))
    @settings(max_examples=100, deadline=None)
    def test_positions_are_the_prox_step(self, domain, seed, p, beta, scale):
        # the projected step keeps prox_step's t_plus bit for bit, also on
        # rows the projection moves back into the domain
        problem = make_synthetic_problem() if domain == "box" else make_relu_problem()
        g = rng(seed)
        sw = random_swarm(problem, g, max_particles=p)
        grads = scale * g.standard_normal((len(sw), problem.domain.dim))
        out = weight_push_update(problem, sw, np.zeros(len(sw)), grads, 0.1, beta)
        t_plus, _ = problem.domain.prox_step(sw.positions, grads, beta)
        assert out.positions.tobytes() == t_plus.tobytes()

    @pytest.mark.parametrize("domain", ["box", "ball"])
    def test_clipped_rows_are_the_prox_step(self, domain):
        problem = make_synthetic_problem() if domain == "box" else make_relu_problem()
        g = rng(7)
        sw = random_swarm(problem, g, max_particles=12)
        grads = 100.0 * g.standard_normal((len(sw), problem.domain.dim))
        out = weight_push_update(problem, sw, np.zeros(len(sw)), grads, 0.1, 0.5)
        t_plus, _ = problem.domain.prox_step(sw.positions, grads, 0.5)
        assert not problem.domain.contains(sw.positions - 0.5 * grads).any()
        assert out.positions.tobytes() == t_plus.tobytes()

    def test_gradient_dimension_mismatch_rejected(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(6), max_particles=4)
        with pytest.raises(ValueError, match="dimension"):
            weight_push_update(problem, sw, np.zeros(len(sw)),
                               np.zeros((len(sw), 1)), 0.1, 0.5)

    def test_length_mismatch_rejected(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(6), max_particles=4)
        with pytest.raises(ValueError):
            weight_push_update(problem, sw, np.zeros(len(sw) + 1),
                               np.zeros((len(sw), 2)), 0.1, 0.0)


class TestDescentCheck:
    def test_zero_rates_trivial(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(7), max_particles=4)
        certs, _, pis = exact_certs_and_pis(problem, sw, 0.0)
        holds, lhs, rhs = descent_check(problem, sw, 0.0, 0.0, certs, pis)
        assert holds and lhs == pytest.approx(0.0, abs=1e-12) and rhs == 0.0

    def test_calibrated_rates_descend(self):
        problem = make_synthetic_problem(seed=8)
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(9))
        cal = calibrate(bounds, nu0_tv=1.0, kappa=problem.kappa,
                        lambda_x=problem.domain.volume(),
                        y_norm=math.sqrt(problem.model.y_norm_sq), stochastic=False)
        alpha, beta = cal.alpha, cal.chosen_beta
        g = rng(10)
        for _ in range(10):
            sw = random_swarm(problem, g, max_particles=8,
                              tv=float(g.uniform(0.1, cal.tv_bound)))
            certs, _, pis = exact_certs_and_pis(problem, sw, beta)
            holds, lhs, rhs = descent_check(problem, sw, alpha, beta, certs, pis)
            assert holds
            assert lhs <= 0.0 or rhs >= lhs - 1e-10

    def test_oversized_rates_reported_not_asserted(self):
        # 100x the structural rates may break the bound; record the outcome
        # as a diagnostic
        problem = make_synthetic_problem(seed=11)
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(12))
        cal = calibrate(bounds, nu0_tv=1.0, kappa=problem.kappa,
                        lambda_x=problem.domain.volume(),
                        y_norm=math.sqrt(problem.model.y_norm_sq), stochastic=False)
        alpha, beta = 100 * cal.alpha, 100 * cal.chosen_beta
        sw = random_swarm(problem, rng(13), max_particles=6, tv=cal.tv_bound)
        certs, _, pis = exact_certs_and_pis(problem, sw, beta)
        holds, lhs, rhs = descent_check(problem, sw, alpha, beta, certs, pis)
        print(f"oversized-rate diagnostic: holds={holds} lhs={lhs:.3e} rhs={rhs:.3e}")

    def test_verify_checks_the_update_the_solver_runs(self, monkeypatch):
        # descent_check builds its measure with weight_push_update, so an
        # update that moves nothing fails the calibrated descent bound
        monkeypatch.setattr(dynamics, "weight_push_update", lambda problem, swarm, *rates: swarm)
        [result] = suite_descent(n_swarms=10)
        assert not result.passed and result.detail.startswith("0/10 swarms")
