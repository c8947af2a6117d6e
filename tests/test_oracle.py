import math

import numpy as np
import pytest

from conicswarm.audit import audit_assumptions
from conicswarm.objective import certificate, certificate_and_grad
from conicswarm.birth_death import guarded_threshold_coeff, tail_exponent_for_dim
from conicswarm.oracle import HOEFFDING_CAP_CONST, draw_batch
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem, \
    random_swarm
from helpers import rng


class TestDrawBatch:
    def test_single_sample_dataset(self):
        batch = draw_batch(rng(1), 16, 1)
        assert batch.size == 16 and np.all(batch == 0)

    def test_size_recorded(self):
        assert draw_batch(rng(2), 37, 100).size == 37

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            draw_batch(rng(3), 0, 10)
        with pytest.raises(ValueError):
            draw_batch(rng(3), 4, 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 24_000, 2**31 + 5, 2**33])
    @pytest.mark.parametrize("m", [1, 31, 256, 257])
    def test_one_draw_of_two_batches_is_two_draws(self, n, m):
        # the loop draws an iteration's two batches in one call and splits
        # it; numpy's bounded integers must give the values and leave the
        # state of two calls, or every stochastic trace moves
        for seed in range(5):
            one, two = rng(seed), rng(seed)
            both = draw_batch(one, 2 * m, n)
            assert np.array_equal(both[:m], draw_batch(two, m, n))
            assert np.array_equal(both[m:], draw_batch(two, m, n))
            assert one.integers(0, 2**62) == two.integers(0, 2**62)

    def test_histogram_uniform(self):
        n, draws = 8, 1_000_000
        batch = draw_batch(rng(4), draws, n)
        counts = np.bincount(batch, minlength=n)
        p = 1.0 / n
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.abs(counts - draws * p).max() <= 3 * sigma


@pytest.mark.parametrize("build", [make_synthetic_problem, make_gmm_problem,
                                   make_relu_problem])
def test_full_enumeration_equals_exact(build):
    problem = build(seed=5)
    g = rng(6)
    sw = random_swarm(problem, g, max_particles=5)
    pts = problem.domain.sample_uniform(g, size=4)
    signs = g.choice([-1.0, 1.0], size=4)
    full = np.arange(problem.model.n_samples)
    est = certificate(problem, sw, pts, signs, full)
    exact = certificate(problem, sw, pts, signs)
    assert np.abs(est - exact).max() < 1e-12
    est_v, est_g = certificate_and_grad(problem, sw, pts, signs, full)
    exact_v, exact_g = certificate_and_grad(problem, sw, pts, signs)
    assert np.abs(est_v - exact).max() < 1e-12
    assert np.abs(est_g - exact_g).max() < 1e-12
    # idx=None is the exact path of both evaluators
    assert np.array_equal(exact_v, exact)


def test_certificate_estimate_is_batch_mean_of_per_sample_values():
    problem = make_relu_problem(seed=7)
    g = rng(8)
    sw = random_swarm(problem, g, max_particles=4)
    pt = problem.domain.sample_uniform(g, size=1)
    sign = np.ones(1)
    per_sample = np.array([
        certificate(problem, sw, pt, sign, np.array([i]))[0]
        for i in range(problem.model.n_samples)
    ])
    for m in (1, 7, 32):
        batch = draw_batch(g, m, problem.model.n_samples)
        val = certificate(problem, sw, pt, sign, batch)[0]
        assert val == pytest.approx(per_sample[batch].mean(), abs=1e-12)


def test_gradient_unbiased_and_bounded_by_audit():
    problem = make_synthetic_problem(seed=9, noise_scale=0.05)
    sw = random_swarm(problem, rng(10), max_particles=4)
    bounds = audit_assumptions(problem.model, problem.domain, 120, rng(11),
                               tv_cap=sw.tv_norm())
    g = rng(12)
    pt = problem.domain.sample_uniform(g, size=1)
    sign = np.ones(1)
    exact = certificate_and_grad(problem, sw, pt, sign)[1][0]
    n = problem.model.n_samples
    devs = []
    acc = np.zeros_like(exact)
    trials = 300
    for _ in range(trials):
        batch = draw_batch(g, 16, n)
        est = certificate_and_grad(problem, sw, pt, sign, batch)[1][0]
        devs.append(np.linalg.norm(est - exact))
        acc += est
    assert max(devs) <= bounds.noise_sup + 1e-12
    # empirical mean within 5 sigma of exact, coordinatewise
    mean = acc / trials
    assert np.linalg.norm(mean - exact) <= 5 * bounds.noise_sup / math.sqrt(16 * trials) + 1e-9


class TestHoeffdingCap:
    def test_numeric_value(self):
        assert HOEFFDING_CAP_CONST == pytest.approx(math.sqrt(8 * math.log(8)))
        assert HOEFFDING_CAP_CONST == pytest.approx(4.0787, abs=2e-4)


class TestOracleConfig:
    """The birth coefficient that the oracle's noise bound configures."""

    def test_threshold_scale_formula(self):
        assert guarded_threshold_coeff(2.0, 0.25) == pytest.approx(2.0 * math.sqrt(0.5))

    def test_default_exponent_for_dim(self):
        assert tail_exponent_for_dim(2) == pytest.approx(2 / (2 * (2 + 2)))
        assert tail_exponent_for_dim(1) == pytest.approx(1 / 6)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            guarded_threshold_coeff(1.0, 0.0)
        with pytest.raises(ValueError):
            guarded_threshold_coeff(0.0, 0.25)
