import math
from unittest import mock

import numpy as np
import pytest

from conicswarm import objective
from conicswarm.domain import Box, grid_points
from conicswarm.audit import audit_assumptions
from conicswarm.kernels import SyntheticKernel
from conicswarm.objective import Problem, certificate, certificate_and_grad, frechet_gap, \
    kkt_residual, loss
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem, \
    random_swarm
from helpers import rng, same_bits
from reference import k_at, relu_objective, y_at


# One-point views of the vectorized evaluators.

def cert_at(problem, swarm, t, sign):
    return certificate(problem, swarm, t[None, :], [sign])[0]


def grad_at(problem, swarm, t, sign):
    return certificate_and_grad(problem, swarm, t[None, :], [sign])[1][0]


def planted_stationary_instance(kappa=5e-3, sigma=0.15, seed=0):
    """Construct an instance whose exact minimizer is known.

    Pick a support and positive weights w; solve K c = 1 and plant atoms
    w + kappa c. The certificate of (w, support) is then kappa * (1 - eta)
    with eta interpolating 1 on the support, so it vanishes there and stays
    nonnegative up to the interpolation overshoot, which is O(K_cross) and
    negligible for well-separated atoms.
    """
    domain = Box([0.0, 0.0], [1.0, 1.0])
    support = np.array([[0.25, 0.25], [0.75, 0.75], [0.2, 0.8]])
    w_star = np.array([0.4, 0.3, 0.25])
    scratch = SyntheticKernel(domain, sigma, np.zeros(1), np.zeros((1, 2)))
    kmat = scratch.kernel_matrix(support, support)
    c = np.linalg.solve(kmat, np.ones(3))
    model = SyntheticKernel(domain, sigma, w_star + kappa * c, support, seed=seed)
    problem = Problem(model=model, domain=domain, kappa=kappa, signed=False)
    nu_star = ParticleSwarm(w_star, np.ones(3), support)
    return problem, nu_star


class TestLoss:
    def test_empty_swarm_is_half_y_norm(self):
        problem = make_synthetic_problem()
        assert loss(problem, ParticleSwarm.empty(2)) == pytest.approx(
            0.5 * problem.model.y_norm_sq)

    def test_single_particle_closed_form(self):
        problem = make_synthetic_problem()
        model, kappa = problem.model, problem.kappa
        t = np.array([0.4, 0.6])
        w = 0.37
        sw = ParticleSwarm([w], [1], t[None, :])
        expected = 0.5 * model.y_norm_sq + w * (kappa - y_at(model, t)) + 0.5 * w**2
        assert loss(problem, sw) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("build", [make_synthetic_problem, make_gmm_problem,
                                       make_relu_problem])
    def test_three_particles_match_term_expansion(self, build):
        problem = build(seed=4)
        model, kappa = problem.model, problem.kappa
        g = rng(5)
        sw = random_swarm(problem, g, max_particles=3)
        w = sw.weights * sw.signs
        quad = sum(w[i] * w[j] * k_at(model, sw.positions[i], sw.positions[j])
                   for i in range(len(sw)) for j in range(len(sw)))
        cross = sum(w[j] * y_at(model, sw.positions[j]) for j in range(len(sw)))
        manual = 0.5 * model.y_norm_sq - cross + 0.5 * quad + kappa * sw.weights.sum()
        assert loss(problem, sw) == pytest.approx(manual, rel=1e-12)

    def test_relu_matches_network_residual(self):
        # J = 0.5 mean((relu(aug T') c - y)^2) + kappa TV with c = s * w,
        # evaluated from the network output without any kernel
        problem = make_relu_problem(seed=12, n=500, d=4)
        model = problem.model
        g = rng(13)
        swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=40), g.choice([-1.0, 1.0], size=40),
                              problem.domain.sample_uniform(g, size=40))
        closed = relu_objective(model, swarm.positions, swarm.weights, swarm.signs,
                                problem.kappa)
        assert loss(problem, swarm) == pytest.approx(closed, rel=1e-10, abs=0)

    def test_permutation_invariance(self):
        problem = make_synthetic_problem()
        g = rng(6)
        sw = random_swarm(problem, g, max_particles=6)
        perm = g.permutation(len(sw))
        shuffled = ParticleSwarm(sw.weights[perm], sw.signs[perm], sw.positions[perm])
        assert loss(problem, shuffled) == pytest.approx(loss(problem, sw), abs=1e-10)

    def test_atom_split_invariance(self):
        problem = make_synthetic_problem()
        g = rng(7)
        sw = random_swarm(problem, g, max_particles=4)
        split = ParticleSwarm(
            np.concatenate([sw.weights[:-1], [sw.weights[-1] / 2, sw.weights[-1] / 2]]),
            np.concatenate([sw.signs, [sw.signs[-1]]]),
            np.vstack([sw.positions, sw.positions[-1]]),
        )
        assert loss(problem, split) == pytest.approx(loss(problem, sw), abs=1e-10)


class TestCertificate:
    def test_empty_swarm(self):
        problem = make_synthetic_problem()
        t = np.array([0.2, 0.9])
        for sign in (1.0, -1.0):
            expected = problem.kappa - sign * y_at(problem.model, t)
            assert cert_at(problem, ParticleSwarm.empty(2), t, sign) == \
                pytest.approx(expected, rel=1e-12)

    def test_empty_swarm_gradient(self):
        problem = make_synthetic_problem()
        t = np.array([0.4, 0.3])
        for sign in (1.0, -1.0):
            grad = grad_at(problem, ParticleSwarm.empty(2), t, sign)
            assert np.allclose(grad, -sign * problem.model.grad_y_inner_many(t[None, :])[0])

    def test_lower_bound_for_positive_swarms(self):
        problem = make_synthetic_problem(signed=False)
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(8))
        y_norm = math.sqrt(problem.model.y_norm_sq)
        g = rng(9)
        for _ in range(20):
            sw = random_swarm(problem, g, max_particles=8)
            t = problem.domain.sample_uniform(g)
            cert = cert_at(problem, sw, t, 1.0)
            floor = bounds.kernel_min * sw.tv_norm() - y_norm + problem.kappa
            assert cert >= floor - 1e-12

    def test_quadratic_difference_identity(self):
        # (J(nu + h delta_t) - J(nu)) / h - h K(t,t) / 2 equals the
        # certificate exactly, for any step h
        problem = make_synthetic_problem(seed=10)
        g = rng(11)
        sw = random_swarm(problem, g, max_particles=5)
        t = problem.domain.sample_uniform(g)
        sign = -1.0
        cert = cert_at(problem, sw, t, sign)
        for h in (1.0, 0.1, 1e-3):
            bumped = ParticleSwarm(
                np.concatenate([sw.weights, [h]]),
                np.concatenate([sw.signs, [sign]]),
                np.vstack([sw.positions, t[None, :]]),
            )
            diff = (loss(problem, bumped) - loss(problem, sw)) / h \
                - 0.5 * h * k_at(problem.model, t, t)
            assert diff == pytest.approx(cert, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("build", [make_synthetic_problem, make_gmm_problem,
                                       make_relu_problem])
    def test_grad_matches_finite_differences(self, build):
        problem = build(seed=12)
        g = rng(13)
        sw = random_swarm(problem, g, max_particles=4)
        t = 0.7 * problem.domain.sample_uniform(g) + 0.3 * problem.domain.project(
            np.zeros(problem.domain.dim))
        sign = -1.0 if problem.signed else 1.0
        grad = grad_at(problem, sw, t, sign)
        h = 1e-6
        fd = np.empty_like(grad)
        for j in range(problem.domain.dim):
            e = np.zeros(problem.domain.dim)
            e[j] = h
            fd[j] = (cert_at(problem, sw, t + e, sign)
                     - cert_at(problem, sw, t - e, sign)) / (2 * h)
        assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)) < 1e-6

    def test_grad_norm_within_audited_lipschitz_bound(self):
        problem = make_synthetic_problem(seed=14)
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(15))
        g = rng(16)
        for _ in range(25):
            sw = random_swarm(problem, g, max_particles=6)
            t = problem.domain.sample_uniform(g)
            grad = grad_at(problem, sw, t, 1.0)
            lip = math.sqrt(bounds.smooth_max) * (bounds.smooth_max + sw.tv_norm())
            assert np.linalg.norm(grad) <= lip + 1e-9

    def test_certificate_lipschitz_on_grid(self):
        problem = make_synthetic_problem(seed=17)
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(18))
        g = rng(19)
        sw = random_swarm(problem, g, max_particles=5)
        lip = math.sqrt(bounds.smooth_max) * (bounds.smooth_max + sw.tv_norm())
        pts = problem.domain.sample_uniform(g, size=60)
        vals = certificate(problem, sw, pts, np.ones(60))
        for i in range(0, 60, 2):
            gap = abs(vals[i] - vals[i + 1])
            assert gap <= lip * np.linalg.norm(pts[i] - pts[i + 1]) + 1e-12


class TestFrechetGap:
    def test_empty_sigma(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(20))
        assert frechet_gap(problem, sw, ParticleSwarm.empty(2)) == 0.0

    def test_non_empty_sigma_gap_is_the_expansion_residual(self):
        # a linear term off by 1 per unit of sigma's mass shows in the gap as
        # sigma's total weight; a gap that skipped a non-empty sigma reads 0
        problem = make_synthetic_problem()
        g = rng(24)
        nu, sigma = random_swarm(problem, g), random_swarm(problem, g, max_particles=3)
        exact = objective.certificate
        with mock.patch.object(objective, "certificate", lambda *a: exact(*a) + 1.0):
            gap = frechet_gap(problem, nu, sigma)
        assert gap == pytest.approx(sigma.weights.sum(), rel=1e-9)

    def test_doubling(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(21), max_particles=4)
        gap = frechet_gap(problem, sw, sw)
        assert gap <= 1e-9 * (1.0 + abs(loss(problem, sw)))

    def test_random_mixed_sign_pairs(self):
        problem = make_relu_problem(seed=22)
        g = rng(23)
        for _ in range(20):
            nu = random_swarm(problem, g)
            sigma = random_swarm(problem, g, max_particles=3)
            gap = frechet_gap(problem, nu, sigma)
            assert gap <= 1e-9 * (1.0 + abs(loss(problem, nu)))


class TestKkt:
    def test_planted_optimum_is_stationary(self):
        problem, nu_star = planted_stationary_instance()
        grid = grid_points(problem.domain, 41)
        report = kkt_residual(problem, nu_star, grid)
        assert report.min_cert_grid >= -1e-6
        assert report.max_abs_cert_support <= 1e-12

    def test_planted_optimum_beats_perturbations(self):
        problem, nu_star = planted_stationary_instance()
        base = loss(problem, nu_star)
        g = rng(24)
        for _ in range(10):
            jitter = ParticleSwarm(nu_star.weights * g.uniform(0.7, 1.3, size=3),
                                   nu_star.signs,
                                   problem.domain.project(
                                       nu_star.positions + 0.05 * g.standard_normal((3, 2))))
            assert loss(problem, jitter) >= base - 1e-7

    def test_empty_swarm_zero_observation(self):
        domain = Box([0.0, 0.0], [1.0, 1.0])
        model = SyntheticKernel(domain, 1.0, np.zeros(1), np.array([[0.5, 0.5]]))
        problem = Problem(model=model, domain=domain, kappa=0.3, signed=False)
        report = kkt_residual(problem, ParticleSwarm.empty(2), grid_points(domain, 9))
        assert report.min_cert_grid == pytest.approx(0.3)
        assert report.max_abs_cert_support <= 1e-12

    def test_underfit_instance_has_negative_certificate(self):
        problem, nu_star = planted_stationary_instance()
        underfit = ParticleSwarm(nu_star.weights * 0.2, nu_star.signs, nu_star.positions)
        report = kkt_residual(problem, underfit, grid_points(problem.domain, 41))
        assert report.min_cert_grid < 0

    def test_empty_grid_rejected(self):
        problem = make_synthetic_problem()
        with pytest.raises(ValueError):
            kkt_residual(problem, ParticleSwarm.empty(2), np.empty((0, 2)))


def two_call_kkt(problem, swarm, grid):
    """``kkt_residual`` as one certificate call per sign choice."""
    best_val, best_arg = np.inf, grid[0]
    for sign in problem.sign_choices:
        vals = certificate(problem, swarm, grid, np.full(grid.shape[0], sign))
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_arg = float(vals[j]), grid[j].copy()
    support = certificate(problem, swarm, swarm.positions, swarm.signs)
    return best_val, best_arg, float(np.abs(support).max()) if len(swarm) else 0.0


@pytest.mark.parametrize("make", [make_synthetic_problem, make_relu_problem],
                         ids=["synthetic", "relu"])
@pytest.mark.parametrize("seed", range(6))
def test_kkt_one_field_equals_one_call_per_sign(make, seed):
    # the field is evaluated once and each sign folded in: the bits of the
    # per-sign certificates
    problem = make(seed=seed)
    assert problem.signed
    g = rng(100 + seed)
    swarm = random_swarm(problem, g) if seed else ParticleSwarm.empty(problem.model.dim)
    grid = problem.domain.sample_uniform(g, size=50)
    report = kkt_residual(problem, swarm, grid)
    best_val, best_arg, resid = two_call_kkt(problem, swarm, grid)
    assert report.min_cert_grid.hex() == best_val.hex()
    assert np.array_equal(report.argmin_grid, best_arg)
    assert report.max_abs_cert_support.hex() == resid.hex()


def test_grad_many_consistent_with_scalar():
    problem = make_synthetic_problem(seed=25)
    g = rng(26)
    sw = random_swarm(problem, g, max_particles=4)
    pts = problem.domain.sample_uniform(g, size=5)
    signs = g.choice([-1.0, 1.0], size=5)
    vals, grads = certificate_and_grad(problem, sw, pts, signs)
    for i in range(5):
        assert np.allclose(vals[i], cert_at(problem, sw, pts[i], signs[i]))
        assert np.allclose(grads[i], grad_at(problem, sw, pts[i], signs[i]))


#: a point set in another form, and the (k, d) float array of the same points
POINT_FORMS = {
    "one flat point": lambda pts: (pts[0], pts[:1]),
    "nested list": lambda pts: (pts.tolist(), pts),
    "integer array": lambda pts: (pts.astype(np.int64), pts),
}


@pytest.mark.exactness
@pytest.mark.parametrize("make", [make_synthetic_problem, make_gmm_problem, make_relu_problem],
                         ids=["synthetic", "gmm", "relu"])
@pytest.mark.parametrize("form", sorted(POINT_FORMS))
def test_entry_points_convert_points_for_the_models(make, form):
    # the models convert no operand: objective's entry points make every
    # point set a (k, d) float array, so any form of the same points gives
    # the bits of the array
    problem = make(seed=27)
    g = rng(28)
    swarm = random_swarm(problem, g)
    pts = g.integers(-1, 2, size=(3, problem.model.dim)).astype(float)
    given, want = POINT_FORMS[form](pts)
    signs = g.choice(problem.sign_choices, size=len(want))
    assert same_bits(certificate(problem, swarm, given, signs),
                     certificate(problem, swarm, want, signs))
    for got, expected in zip(certificate_and_grad(problem, swarm, given, signs),
                             certificate_and_grad(problem, swarm, want, signs)):
        assert same_bits(got, expected)
    got, expected = kkt_residual(problem, swarm, given), kkt_residual(problem, swarm, want)
    assert got.min_cert_grid.hex() == expected.min_cert_grid.hex()
    assert same_bits(got.argmin_grid, expected.argmin_grid)
    assert got.max_abs_cert_support.hex() == expected.max_abs_cert_support.hex()
