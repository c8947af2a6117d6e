import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conicswarm.domain import Ball
from conicswarm.experiments import GmmSpec, gen_gmm
from conicswarm.kernels import GmmKernel, ReluKernel, audit_assumptions
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# One-pair views of the vectorized primitives; ``i`` restricts to one sample.

def k_at(model, s, t, i=None):
    return model.kernel_matrix(s[None, :], t[None, :], None if i is None else [i])[0, 0]


def grad_k_at(model, s, t, i=None):
    return model.weighted_grad1_kernel(s[None, :], t[None, :], np.ones(1),
                                       None if i is None else [i])[0]


def y_at(model, t, i=None):
    return model.y_inner_many(t[None, :], None if i is None else [i])[0]


ALL_BUILDERS = [make_synthetic_problem, make_gmm_problem, make_relu_problem]


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_kernel_symmetric(build):
    problem = build(seed=1)
    g = rng(2)
    pts = problem.domain.sample_uniform(g, size=12)
    k_ab = problem.model.kernel_matrix(pts[:6], pts[6:])
    k_ba = problem.model.kernel_matrix(pts[6:], pts[:6])
    assert np.abs(k_ab - k_ba.T).max() < 1e-12


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_per_sample_average_reproduces_full(build):
    problem = build(seed=3)
    model = problem.model
    g = rng(4)
    s, t = problem.domain.sample_uniform(g, size=2)
    k_mean = np.mean([k_at(model, s, t, i) for i in range(model.n_samples)])
    assert k_mean == pytest.approx(k_at(model, s, t), rel=1e-10, abs=1e-14)
    y_mean = np.mean([y_at(model, t, i) for i in range(model.n_samples)])
    assert y_mean == pytest.approx(y_at(model, t), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_gradient_matches_finite_differences(build):
    problem = build(seed=5)
    model = problem.model
    g = rng(6)
    h = 1e-6
    for _ in range(5):
        pts = problem.domain.sample_uniform(g, size=2)
        s, t = 0.5 * (pts[0] + 0.5), 0.5 * (pts[1] + 0.2)  # pull strictly inside
        s = problem.domain.project(s)
        t = problem.domain.project(t)
        grad = grad_k_at(model, s, t)
        fd = np.empty_like(grad)
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = h
            fd[j] = (k_at(model, s + e, t) - k_at(model, s - e, t)) / (2 * h)
        scale = max(1.0, np.linalg.norm(fd))
        assert np.linalg.norm(grad - fd) / scale < 1e-6


class TestGram:
    def test_empty(self):
        problem = make_synthetic_problem()
        assert problem.model.kernel_matrix(np.empty((0, 2)), np.empty((0, 2))).shape == (0, 0)

    def test_synthetic_unit_diagonal(self):
        problem = make_synthetic_problem()
        t = np.array([[0.3, 0.7]])
        assert problem.model.kernel_matrix(t, t)[0, 0] == pytest.approx(1.0)

    def test_gmm_diagonal_closed_form_and_quadrature(self):
        tau = 0.3
        model = GmmKernel(np.zeros((4, 2)), tau)
        t = np.array([[0.1, -0.2]])
        diag = model.kernel_matrix(t, t)[0, 0]
        closed = 1.0 / (4.0 * math.pi * (1.0 + tau**2))
        assert diag == pytest.approx(closed, rel=1e-12)

        # independent oracle: integrate the squared feature over the plane
        var = 1.0 + tau**2
        feat = lambda x0, x1: math.exp(-((x0 - 0.1) ** 2 + (x1 + 0.2) ** 2) / (2 * var)) \
            / (2 * math.pi * var)
        val, _ = integrate.dblquad(lambda x1, x0: feat(x0, x1) ** 2, -12, 12, -12, 12,
                                   epsabs=1e-10)
        assert diag == pytest.approx(val, rel=1e-6)


class TestYInner:
    def test_relu_single_data_point(self):
        model = ReluKernel(np.array([[1.0, 0.0]]), np.array([1.0]))
        neuron = np.array([[1.0, 0.0, 0.0]])  # v = e1, b = 0
        assert model.y_inner_many(neuron)[0] == pytest.approx(1.0)

    def test_gmm_matches_quadrature(self):
        tau = 0.25
        data = np.array([[0.5, -0.3], [-0.8, 0.6], [0.0, 0.1]])
        model = GmmKernel(data, tau)
        t = np.array([0.2, 0.2])

        def smoothed_data(x0, x1):
            tot = 0.0
            for xi in data:
                tot += math.exp(-((x0 - xi[0]) ** 2 + (x1 - xi[1]) ** 2) / (2 * tau**2)) \
                    / (2 * math.pi * tau**2)
            return tot / len(data)

        var = 1.0 + tau**2
        feat = lambda x0, x1: math.exp(-((x0 - t[0]) ** 2 + (x1 - t[1]) ** 2) / (2 * var)) \
            / (2 * math.pi * var)
        val, _ = integrate.dblquad(lambda x1, x0: smoothed_data(x0, x1) * feat(x0, x1),
                                   -10, 10, -10, 10, epsabs=1e-9)
        assert y_at(model, t) == pytest.approx(val, rel=1e-6)

    def test_gmm_empty_swarm_energy_matches_quadrature(self):
        # 0.5 |y|^2 equals half the integral of the squared smoothed sample
        tau = 0.35
        data = np.array([[0.4, 0.0], [-0.5, 0.3]])
        model = GmmKernel(data, tau)

        def smoothed(x0, x1):
            tot = 0.0
            for xi in data:
                tot += math.exp(-((x0 - xi[0]) ** 2 + (x1 - xi[1]) ** 2) / (2 * tau**2)) \
                    / (2 * math.pi * tau**2)
            return tot / len(data)

        val, _ = integrate.dblquad(lambda x1, x0: smoothed(x0, x1) ** 2, -10, 10, -10, 10,
                                   epsabs=1e-10)
        assert model.y_norm_sq == pytest.approx(val, rel=1e-8)


class TestAudit:
    def test_synthetic_positivity_matches_closed_form(self):
        problem = make_synthetic_problem(sigma=2.0)
        bounds = audit_assumptions(problem.model, problem.domain, 200, rng(10))
        exact = problem.model.exact_positivity()
        assert bounds.kernel_min == pytest.approx(exact, rel=0.01)

    def test_synthetic_smooth_max_at_least_one(self):
        problem = make_synthetic_problem()
        bounds = audit_assumptions(problem.model, problem.domain, 120, rng(11))
        assert bounds.smooth_max >= 1.0

    def test_relu_dead_region_flags_zero(self):
        # tiny data cloud: any neuron with a sufficiently negative bias is
        # dead, so the sampled kernel minimum must vanish
        g = rng(12)
        x = 0.05 * g.standard_normal((40, 3))
        y = g.standard_normal(40)
        model = ReluKernel(x, y)
        domain = Ball(np.zeros(4), 1.0)
        bounds = audit_assumptions(model, domain, 200, rng(13))
        assert bounds.kernel_min == 0.0

    def test_kernel_metric_lipschitz(self):
        problem = make_synthetic_problem()
        model = problem.model
        bounds = audit_assumptions(model, problem.domain, 150, rng(14))
        g = rng(15)
        pts = problem.domain.sample_uniform(g, size=40)
        for i in range(0, 40, 2):
            s, t = pts[i], pts[i + 1]
            dk_sq = 2.0 * (1.0 - k_at(model, s, t))
            assert dk_sq <= bounds.smooth_max * np.sum((s - t) ** 2) + 1e-12

    def test_noise_sup_dominates_observed_deviations(self):
        problem = make_synthetic_problem(noise_scale=0.05)
        model = problem.model
        bounds = audit_assumptions(problem.model, problem.domain, 120, rng(16))
        g = rng(17)
        pts = problem.domain.sample_uniform(g, size=10)
        worst = max(
            abs(y_at(model, t, i) - y_at(model, t))
            for t in pts for i in range(model.n_samples)
        )
        assert bounds.noise_sup >= worst

    def test_cert_offset_is_max_abs_y_inner(self):
        problem = make_synthetic_problem()
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(18))
        g = rng(19)
        pts = problem.domain.sample_uniform(g, size=200)
        observed = np.abs(problem.model.y_inner_many(pts)).max()
        assert bounds.cert_offset >= observed * 0.8


def test_synthetic_y_norm_consistent_with_inner_products():
    # |y|^2 equals <y, y> expanded through the planted atoms and anchors
    problem = make_synthetic_problem(seed=21, noise_scale=0.03)
    model = problem.model
    coefs = np.concatenate([model.atom_weights, model.eta.mean(axis=0)])
    pts = np.vstack([model.atom_positions, model.anchors])
    manual = float(coefs @ model.kernel_matrix(pts, pts) @ coefs)
    assert model.y_norm_sq == pytest.approx(manual, rel=1e-12)


def test_vectorized_matches_scalar_loops():
    problem = make_relu_problem(seed=22)
    model = problem.model
    g = rng(23)
    a = problem.domain.sample_uniform(g, size=3)
    b = problem.domain.sample_uniform(g, size=4)
    idx = np.array([1, 5, 9])
    kmat = model.kernel_matrix(a, b, idx)
    for i in range(3):
        for j in range(4):
            manual = np.mean([k_at(model, a[i], b[j], s) for s in idx])
            assert kmat[i, j] == pytest.approx(manual, abs=1e-14)
    coef = np.array([0.5, -0.2, 0.1, 0.4])
    wg = model.weighted_grad1_kernel(a, b, coef, idx)
    for i in range(3):
        manual = sum(coef[j] * np.mean([grad_k_at(model, a[i], b[j], s) for s in idx], axis=0)
                     for j in range(4))
        assert np.allclose(wg[i], manual, atol=1e-14)


# ``GmmKernel.y_norm_sq`` skips pairs beyond a cutoff; the reference is the
# exact double sum over all ordered pairs, from coordinate differences.

def brute_y_norm_sq(data, tau):
    n, d = data.shape
    total = 0.0
    for lo in range(0, n, 256):
        diff = data[lo : lo + 256, None, :] - data[None, :, :]
        total += np.exp(-np.sum(diff * diff, axis=-1) / (4.0 * tau**2)).sum()
    return (4.0 * math.pi * tau**2) ** (-d / 2.0) * total / n**2


def gmm_cutoff(n, tau):
    return math.sqrt(4.0 * tau**2 * (math.log(n) + 60.0 * math.log(2.0)))


@given(n=st.integers(1, 400), d=st.sampled_from([1, 2, 3]), tau=st.floats(0.05, 1.0),
       layout=st.sampled_from(["clustered", "spread", "duplicated"]),
       offset=st.sampled_from([0.0, -3.7e6]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_gmm_y_norm_sq_matches_brute_force(n, d, tau, layout, offset, seed):
    g = rng(seed)
    if layout == "clustered":
        centres = g.uniform(-3.0, 3.0, size=(int(g.integers(1, 6)), d))
        data = centres[g.integers(0, len(centres), size=n)] \
            + tau * g.uniform(0.2, 3.0) * g.standard_normal((n, d))
    elif layout == "spread":
        data = g.uniform(0.0, g.uniform(1.0, 10.0) * gmm_cutoff(n, tau), size=(n, d))
    else:
        distinct = g.standard_normal((int(g.integers(1, n + 1)), d))
        data = distinct[g.integers(0, len(distinct), size=n)]
    data = data + offset
    assert GmmKernel(data, tau).y_norm_sq == pytest.approx(brute_y_norm_sq(data, tau),
                                                           rel=1e-13, abs=0)


def test_gmm_y_norm_sq_single_sample():
    tau = 0.3
    model = GmmKernel(np.array([[0.4, -1.2]]), tau)
    assert model.y_norm_sq == pytest.approx(1.0 / (4.0 * math.pi * tau**2), rel=1e-15)


def test_gmm_y_norm_sq_far_outlier():
    data = np.vstack([rng(31).standard_normal((300, 2)), [[1e9, -1e9]]])
    assert GmmKernel(data, 0.2).y_norm_sq == pytest.approx(brute_y_norm_sq(data, 0.2),
                                                           rel=1e-13, abs=0)


def test_gmm_y_norm_sq_desk_shaped_data():
    spec = GmmSpec.ring(5, 5.0, 2000, 0.2)
    data, problem = gen_gmm(spec, rng(32))
    assert problem.model.y_norm_sq == pytest.approx(brute_y_norm_sq(data, spec.tau),
                                                    rel=1e-13, abs=0)


@pytest.mark.parametrize("data", [np.empty((0, 2)), np.empty((3, 0))])
def test_gmm_rejects_empty_data(data):
    with pytest.raises(ValueError, match="non-empty"):
        GmmKernel(data, 0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gmm_rejects_non_finite_data(bad):
    data = np.zeros((4, 2))
    data[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GmmKernel(data, 0.2)


def test_relu_rejects_empty_features():
    with pytest.raises(ValueError, match="at least one sample"):
        ReluKernel(np.empty((0, 3)), np.empty(0))


@pytest.mark.parametrize("where", ["features", "targets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_relu_rejects_non_finite_data(where, bad):
    features, targets = np.zeros((4, 2)), np.zeros(4)
    (features[2] if where == "features" else targets)[1] = bad
    with pytest.raises(ValueError, match="finite"):
        ReluKernel(features, targets)
