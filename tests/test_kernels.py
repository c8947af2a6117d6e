import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from conicswarm import audit, gaussian, kernels
from conicswarm.audit import audit_assumptions
from conicswarm.domain import Ball, Box, DomainError
from conicswarm.experiments import GmmSpec, gen_gmm
from conicswarm.gaussian import gauss_density
from conicswarm.kernels import GmmKernel, ReluKernel, SyntheticKernel
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem
from helpers import mixture, rng, same_bits, y_norm_sq_case
import reference
from reference import U, brute_pair_sum, brute_y_norm_sq, close_pair_sum, grad_k_at, \
    grad_rounding_bound, k_at, kernel_sum, lattice_bound, mixture_kernel_bound, \
    mixture_kernel_side_bound, near, pair_cutoff, plane_density, relu_sum_bound, \
    scaled_kernel_grad, smoothed_sample, subtraction_exp_sum, y_at


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

    @pytest.mark.parametrize("tau", [0.0, -0.2, math.nan, math.inf, 1e200, 1e-160, 1e-200])
    def test_gmm_refuses_a_tau_without_a_finite_positive_square(self, tau):
        # 1e200 is finite, but its square overflows the kernel's variances;
        # the squares of 1e-160 and 1e-200 are subnormal or 0, and |y|^2's
        # scale (4 pi tau^2)^(-d/2) overflows or divides by 0
        with pytest.raises(ValueError, match="tau must be positive with a finite square"):
            mixture(np.zeros((4, 2)), tau)

    @pytest.mark.parametrize("tau, d", [(1e154, 2), (2e153, 2), (1e153, 3), (1e60, 12)])
    def test_gmm_refuses_a_tau_whose_gaussian_constants_vanish(self, tau, d):
        # every kernel entry is at most _knorm and every density at most
        # _ynorm; at 1e154 the variances overflow and both are 0, at 2e153
        # in d = 2 both are 1.99e-308, subnormal
        with pytest.raises(ValueError, match=re.escape(f"tau = {tau!r} is too large in d = {d}")):
            mixture(np.zeros((4, d)), tau)

    def test_gmm_keeps_a_tau_whose_gaussian_constants_are_normal(self):
        model = mixture(np.zeros((4, 2)), 1e153)  # both constants 7.96e-308
        assert np.finfo(float).tiny <= min(model._knorm, model._ynorm) < 8e-308

    @pytest.mark.parametrize("sigma", [0.0, -1.2, math.nan, math.inf, 1e200, 1e-160, 1e-300])
    def test_synthetic_refuses_a_sigma_without_a_finite_positive_square(self, sigma):
        # the kernel and its gradients divide by sigma^2, which overflows at
        # 1e200 and is subnormal or 0 at 1e-160 and 1e-300
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="sigma must be positive with a finite square"):
            SyntheticKernel(box, sigma, [1.0], [[0.5, 0.5]])

    def test_synthetic_keeps_the_smallest_sigma_with_a_normal_square(self):
        # 2^-511 squares to exactly the smallest normal float, and the next
        # float down to a subnormal one
        box = Box(np.zeros(2), np.ones(2))
        sigma = 2.0**-511
        model = SyntheticKernel(box, sigma, [1.0], [[0.5, 0.5]])
        assert model._kvar == np.finfo(float).tiny
        with pytest.raises(ValueError, match="sigma must be positive with a finite square"):
            SyntheticKernel(box, math.nextafter(sigma, 0.0), [1.0], [[0.5, 0.5]])

    def test_synthetic_refuses_a_sigma_too_small_for_its_box(self):
        # the box's squared diameter 2e304 is finite, but its Gaussian
        # exponent 2e304 / (2 sigma^2) is not at sigma = 1e-3
        box = Box(np.zeros(2), np.full(2, 1e152))
        with pytest.raises(DomainError, match=re.escape(
                "the kernel's largest exponent sum((upper - lower)^2) / (2 sigma^2) is inf")):
            SyntheticKernel(box, 1e-3, [1.0], [[0.5, 0.5]])
        assert SyntheticKernel(box, 1.0, [1.0], [[0.5, 0.5]]).sigma == 1.0

    def test_gmm_diagonal_closed_form_and_quadrature(self):
        tau = 0.3
        model = mixture(np.zeros((4, 2)), tau)
        t = np.array([[0.1, -0.2]])
        diag = model.kernel_matrix(t, t)[0, 0]
        closed = 1.0 / (4.0 * math.pi * (1.0 + tau**2))
        assert diag == pytest.approx(closed, rel=1e-12)

        # independent oracle: integrate the squared feature over the plane
        feat = plane_density(t[0], 1.0 + tau**2)
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
        model = mixture(data, tau)
        t = np.array([0.2, 0.2])
        smoothed, feat = smoothed_sample(data, tau), plane_density(t, 1.0 + tau**2)
        val, _ = integrate.dblquad(lambda x1, x0: smoothed(x0, x1) * feat(x0, x1),
                                   -10, 10, -10, 10, epsabs=1e-9)
        assert y_at(model, t) == pytest.approx(val, rel=1e-6)

    def test_gmm_empty_swarm_energy_matches_quadrature(self):
        # 0.5 |y|^2 equals half the integral of the squared smoothed sample
        tau = 0.35
        data = np.array([[0.4, 0.0], [-0.5, 0.3]])
        model = mixture(data, tau)
        smoothed = smoothed_sample(data, tau)
        val, _ = integrate.dblquad(lambda x1, x0: smoothed(x0, x1) ** 2, -10, 10, -10, 10,
                                   epsabs=1e-10)
        assert model.y_norm_sq == pytest.approx(val, rel=1e-8)


class TestAudit:
    def test_synthetic_positivity_matches_closed_form(self):
        problem = make_synthetic_problem(sigma=2.0)
        bounds = audit_assumptions(problem.model, problem.domain, 200, rng(10))
        # the Gaussian kernel's smallest value, at the domain's diameter
        diameter = np.linalg.norm(problem.domain.upper - problem.domain.lower)
        exact = np.exp(-diameter**2 / (2.0 * problem.model.sigma**2))
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


# ``K c``: the synthetic model's ``weighted_kernel`` has the bits of the
# reference's ``kernel_sum``, and with its constant 1 those of
# ``kernel_matrix @ coef``; the mixture's entries are expanded products,
# within ``mixture_kernel_side_bound`` of ``kernel_sum``'s exact differences.
# ReLU has no ``weighted_kernel``; its reference sums in feature space,
# within ``relu_sum_bound`` of ``kernel_matrix @ coef``.

WEIGHTED_PROBLEMS = {
    "synthetic": make_synthetic_problem(seed=5),
    "gmm": make_gmm_problem(seed=5),
    "relu": make_relu_problem(seed=5),
}


@given(name=st.sampled_from(sorted(WEIGHTED_PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       n_a=st.integers(0, 9), n_b=st.integers(0, 9),
       pairing=st.sampled_from(["apart", "same object", "equal copy"]),
       batch=st.one_of(st.none(), st.integers(1, 40)))
@settings(max_examples=200, deadline=None)
def test_weighted_kernel_matches_kernel_matrix(name, seed, n_a, n_b, pairing, batch):
    problem = WEIGHTED_PROBLEMS[name]
    model = problem.model
    g = rng(seed)
    a = problem.domain.sample_uniform(g, size=n_a)
    if pairing == "same object":
        b = a
    elif pairing == "equal copy":
        b = a.copy()
    else:
        b = problem.domain.sample_uniform(g, size=n_b)
    coef = g.uniform(0.01, 1.0, size=b.shape[0]) * g.choice([-1.0, 1.0], size=b.shape[0])
    idx = None if batch is None else g.integers(0, model.n_samples, size=batch)
    want = model.kernel_matrix(a, b, idx) @ coef
    if name == "relu":
        got = kernel_sum(model, a, b, coef, idx)
        assert np.all(np.abs(got - want) <= relu_sum_bound(model, a, b, coef, idx))
        return
    got = model.weighted_kernel(a, b, coef, idx)
    assert got.shape == (a.shape[0],)
    if name == "gmm":
        bound = mixture_kernel_side_bound(model, a, b, coef)[0]
        assert near(got, kernel_sum(model, a, b, coef), bound)
        assert near(got, want, 2.0 * bound)
        return
    assert np.array_equal(got, kernel_sum(model, a, b, coef))
    assert np.array_equal(got, want)


# Gaussian entries are finished from sums of squared coordinate differences,
# so each depends on its two points alone: a subset of rows (repeated,
# permuted or single), a subset of columns and the transposed call all give
# the bits of the full call. Points on a 2^-20 grid stay exact when shifted
# by 1e6, so there the entries must equal those of the unshifted points.
# The mixture's entries are expanded products of its centred points, each
# with the bits of its row and column in any product, so its subsets of
# rows and columns keep the bits; but ``K(b, a)'`` sums its terms in
# another order, and a shift moves the points against the samples' centre,
# so it keeps neither the transposed nor the shifted bits, which
# ``test_mixture_kernel_within_its_bound`` holds within the bound instead.
# Its samples move with the points, so that its domain holds them.

def dyadic_points(g, n, d):
    return np.round(g.uniform(-8.0, 8.0, size=(n, d)) * 2**20) / 2**20


def any_points(g, n, d):
    return g.uniform(-8.0, 8.0, size=(n, d))


#: set sizes on both sides of the switch to the product differences: 64 x 64
#: and larger pairs reach ``PRODUCT_ENTRIES``, single rows and small subsets
#: of them do not
SIZES = st.one_of(st.integers(1, 9), st.sampled_from([64, 70, 130]))


@pytest.mark.exactness
@given(p=SIZES, q=SIZES, d=st.sampled_from([1, 2, 3, 9]),
       points=st.sampled_from([dyadic_points, any_points]),
       offset=st.sampled_from([0.0, 1e6]), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=120, deadline=None)
def test_gaussian_entries_are_pair_local(p, q, d, points, offset, seed, data):
    g = rng(seed)
    a, b, x = points(g, p, d), points(g, q, d), points(g, 40, d)
    box = Box(np.full(d, -8.0), np.full(d, 8.0))
    # each kernel, and whether its entries are symmetric and move with the points
    a_off, b_off = a + offset, b + offset
    kernels = [(SyntheticKernel(box, 1.3, [1.0], a[:1]).kernel_matrix, True),
               (lambda s, t: gauss_density(s, t, 1.18), True)]
    if d == 2:  # the mixture is planar
        kernels.append((mixture(x + offset, 0.3, a_off, b_off).kernel_matrix, False))
    rows = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p))
    cols = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=2 * q))
    for kernel, symmetric in kernels:
        full = kernel(a_off, b_off)
        if symmetric and points is dyadic_points:  # the offset moves them exactly
            assert same_bits(full, kernel(a, b))
        if symmetric:
            assert same_bits(kernel(b_off, a_off).T, full)
        assert same_bits(kernel(a_off[rows], b_off), full[rows])
        assert same_bits(kernel(a_off, b_off[cols]), full[:, cols])
        for i in rows:
            assert same_bits(kernel(a_off[i : i + 1], b_off), full[i : i + 1])


# The mixture's kernel entries are expanded products of the centred points,
# within ``mixture_kernel_bound`` of the exact differences: every block the
# model builds, ``kernel_matrix``, the loop's pushed block ``K([T'; C], T')``
# and the support field's assembled ``K(T, T)``, and the loss's ``K(T, T)``,
# across the range of tau that ``config`` accepts.

@pytest.mark.exactness
@given(tau=st.one_of(st.sampled_from([1.4917e-154, 0.2, 1.891e153]),
                     st.floats(-153.8, 153.2).map(lambda e: 10.0**e)),
       spread=st.sampled_from([1.0, 3.0]), p=SIZES, c=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=80, deadline=None)
def test_mixture_kernel_within_its_bound(tau, spread, p, c, seed, data):
    g = rng(seed)
    samples = spread * g.standard_normal((30, 2))
    lo, hi = samples.min(axis=0) - spread, samples.max(axis=0) + spread
    model = GmmKernel(samples, tau, Box(lo, hi))
    pushed, cand = g.uniform(lo, hi, size=(p, 2)), g.uniform(lo, hi, size=(c, 2))
    points = np.vstack([pushed, cand])

    def within(k, a, b):
        exact = gauss_density(a, b, model._kvar) * model._knorm
        return k.shape == exact.shape and \
            bool(np.all(np.abs(k - exact) <= mixture_kernel_bound(model, a, b)))

    assert within(model.kernel_matrix(points, pushed), points, pushed)
    assert within(model.kernel_matrix(pushed, points), pushed, points)
    _, _, ev = model.pushed_values(pushed, g.uniform(-1.0, 1.0, size=p), None, cand)
    assert within(ev[0] * model._knorm, points, pushed)
    # the kernel that the support field of T = [T'; C][keep] assembles from ev
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=p + c, max_size=p + c).filter(any)))
    t = points[keep]
    seen = []
    real = GmmKernel._field
    with mock.patch.object(GmmKernel, "_field", lambda self, *args: seen.append(args[3])
                           or real(self, *args)):
        model.support_field(t, np.ones(len(t)), None, ev, keep)
    assert within(seen[0] * model._knorm, t, t)
    # the loss's quadratic term reduces the kernel of the swarm against itself
    reduced = []
    values = GmmKernel._values
    with mock.patch.object(GmmKernel, "_values", lambda self, k, coef: reduced.append(k)
                           or values(self, k, coef)):
        model.objective_value(t, np.ones(len(t)), np.ones(len(t)), 1e-4)
    square = [k for k in reduced if k.shape == (len(t), len(t))]
    assert len(square) == 1 and within(square[0] * model._knorm, t, t)


# ``gauss_grad`` sums ``c_j grad_a K(a_i, b_j)`` as one product; the
# reference scales the kernel first, and ``grad_rounding_bound`` derives how
# far the two groupings of the same terms may differ.

@pytest.mark.exactness
@given(p=st.integers(1, 400), q=st.integers(1, 400), d=st.sampled_from([1, 2, 3, 5]),
       signed=st.booleans(), offset=st.sampled_from([0.0, 40.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gauss_grad_within_rounding_of_the_scaled_kernel(p, q, d, signed, offset, seed):
    g = rng(seed)
    a = g.uniform(-4.0, 4.0, size=(p, d)) + offset
    b = g.uniform(-4.0, 4.0, size=(q, d)) + offset
    var = g.uniform(0.2, 3.0)
    c = g.uniform(0.0, 1.0, size=q) * (np.where(g.random(q) < 0.5, -1.0, 1.0) if signed else 1.0)
    k = gauss_density(a, b, var)
    grad = gaussian.gauss_grad(k, a, b, c, var)
    reference = scaled_kernel_grad(k, a, b, c, var)
    assert grad.shape == (p, d)
    assert np.all(np.abs(grad - reference) <= grad_rounding_bound(k, a, b, c, var))


@pytest.mark.exactness
@given(p=st.integers(1, 70), q=st.integers(1, 70), m=st.integers(1, 6),
       d=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gauss_grad_stacked_slices_have_the_bits_of_their_calls(p, q, m, d, seed):
    # CI runs this with OpenBLAS on two threads too
    g = rng(seed)
    a, b = g.uniform(-3.0, 3.0, size=(p, d)), g.uniform(-3.0, 3.0, size=(q, d))
    k = gauss_density(a, b, 1.3)
    coefs = g.standard_normal((m, q))
    stacked = gaussian.gauss_grad(k, a, b, coefs, 1.3)
    assert stacked.shape == (m, p, d)
    for i in range(m):
        assert same_bits(stacked[i], gaussian.gauss_grad(k, a, b, coefs[i], 1.3))


@pytest.mark.parametrize("p, q", [(0, 4), (3, 0), (0, 0)])
def test_gauss_grad_of_empty_point_sets(p, q):
    a, b = np.ones((p, 2)), np.ones((q, 2))
    k = gauss_density(a, b, 1.0)
    grad = gaussian.gauss_grad(k, a, b, np.ones(q), 1.0)
    assert grad.shape == (p, 2) and not grad.any()
    assert gaussian.gauss_grad(k, a, b, np.ones((3, q)), 1.0).shape == (3, p, 2)


# ``GmmKernel.y_norm_sq`` is the pair sum of ``gaussian.lattice_pair_sum``;
# the references are the exact double sum over all ordered pairs and, where
# that is too slow, the cell list of sample pairs that came before the lattice.

#: tau across the range ``config`` accepts, from the smallest with a normal
#: square to the largest whose Gaussian constants are normal
TAUS = st.one_of(st.sampled_from([1.4917e-154, 0.2, 1.891e153]),
                 st.floats(-153.8, 153.2).map(lambda e: 10.0**e))


def planar_layout(g, layout, n):
    """n planar samples in units of tau: a few clusters, a spread wider than
    the reach, or repeats of a few points."""
    if layout == "clustered":
        centres = g.uniform(-3.0, 3.0, size=(int(g.integers(1, 6)), 2))
        return centres[g.integers(0, len(centres), size=n)] \
            + g.uniform(0.2, 3.0) * g.standard_normal((n, 2))
    if layout == "spread":
        return g.uniform(0.0, g.uniform(1.0, 10.0) * pair_cutoff(n, 4.0), size=(n, 2))
    distinct = g.standard_normal((int(g.integers(1, n + 1)), 2))
    return distinct[g.integers(0, len(distinct), size=n)]


# ``tile`` is the chunk bound ``gaussian.SELF_BLOCK_ENTRIES``: None keeps the
# shipped 2^15, and a few dozen entries make every chunk one row.
@given(n=st.integers(1, 400), tau=TAUS, layout=st.sampled_from(["clustered", "spread", "duplicated"]),
       offset=st.sampled_from([0.0, -3.7e6]), tile=st.sampled_from([None, 1, 24, 48]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_gmm_y_norm_sq_matches_brute_force(n, tau, layout, offset, tile, seed):
    data = tau * (planar_layout(rng(seed), layout, n) + offset)
    # a domain holds its samples, and no box whose squared diameter passes
    # the float range is built, so no mixture has samples spread this far;
    # ``test_gmm_lattice_within_its_bound_of_the_cell_list`` sums such pairs
    assume(np.ptp(data, axis=0).max() < 1e153)
    with mock.patch.object(gaussian, "SELF_BLOCK_ENTRIES", tile or gaussian.SELF_BLOCK_ENTRIES):
        model = mixture(data, tau)
    # the same two square-root factors as the model's; at the largest tau
    # the value is subnormal, its last rounding an absolute 2^-1075
    half = (4.0 * math.pi * tau**2) ** -0.5
    want = brute_pair_sum(data, tau) / n**2 * half * half
    assert model.y_norm_sq == pytest.approx(want, rel=1e-13, abs=2.0**-1073)


@given(n=st.integers(1, 3000), exponent=st.integers(-510, 508),
       layout=st.sampled_from(["clustered", "spread", "duplicated"]),
       offset=st.sampled_from([0.0, -3.7e6]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gmm_lattice_within_its_bound_of_the_cell_list(n, exponent, layout, offset, seed):
    # tau = 2^exponent scales the samples exactly, so the cell list sums the
    # same samples in units of tau, where no square is subnormal
    u = planar_layout(rng(seed), layout, n) + offset
    tau = 2.0**exponent
    cells = close_pair_sum(u, 4.0, pair_cutoff(n, 4.0))
    bound = lattice_bound(u, 1.0) + 2.0**-60 + 80.0 * U * (math.log(n) + 60.0 * math.log(2.0)) \
        + (2.0 * n + 200.0) * U
    assert gaussian.lattice_pair_sum(u * tau, tau) == pytest.approx(cells, rel=bound, abs=0)


@pytest.mark.parametrize("shape", ["desk", "offset", "gmm_full"])
def test_gmm_y_norm_sq_agrees_with_the_subtraction_tiles(shape):
    # the cell list with exact differences in every tile, within 2^-60 and
    # its sums' rounding of the exact double sum, which would take about
    # 20 s at gmm_full's n = 24,000; the lattice lies far inside its derived
    # bound here (``test_gmm_lattice_within_its_bound_of_the_cell_list``)
    data, tau = y_norm_sq_case(shape)
    n, scale = len(data), 4.0 * tau**2
    with mock.patch.object(reference, "_exp_sum", subtraction_exp_sum):
        exact = close_pair_sum(data, scale, pair_cutoff(n, scale))
    assert mixture(data, tau).y_norm_sq == pytest.approx(
        exact / n**2 / (4.0 * math.pi * tau**2), rel=1e-14, abs=0)


THREAD_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from helpers import mixture, y_norm_sq_case
for name in ("gmm_full", "offset"):
    print(name, mixture(*y_norm_sq_case(name)).y_norm_sq.hex())
"""


def test_gmm_y_norm_sq_bits_do_not_depend_on_the_blas_thread_count():
    # each cell's lattice rows meet in one BLAS product, whose entries'
    # inner sums OpenBLAS must not split over threads
    src = str(Path(kernels.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    hexes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", THREAD_SCRIPT, tests], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        hexes.append(done.stdout)
    assert len(hexes[0].split()) == 4 and hexes[0] == hexes[1]


def test_gmm_y_norm_sq_single_sample():
    tau = 0.3
    model = mixture(np.array([[0.4, -1.2]]), tau)
    assert model.y_norm_sq == pytest.approx(1.0 / (4.0 * math.pi * tau**2), rel=1e-15)


def test_gmm_y_norm_sq_far_outlier():
    # the pair sum splits the outlier into a group of its own; a mixture
    # over samples this far apart passes the budget of its expanded entries
    data = np.vstack([rng(31).standard_normal((300, 2)), [[1e9, -1e9]]])
    pairs = gaussian.lattice_pair_sum(data, 0.2) / len(data) ** 2 / (4.0 * math.pi * 0.2**2)
    assert pairs == pytest.approx(brute_y_norm_sq(data, 0.2), rel=1e-13, abs=0)
    with pytest.raises(DomainError, match="past the budget"):
        mixture(data, 0.2)


def test_gmm_y_norm_sq_desk_shaped_data():
    spec = GmmSpec.ring(5, 5.0, 2000, 0.2)
    data, problem = gen_gmm(spec, rng(32))
    assert problem.model.y_norm_sq == pytest.approx(brute_y_norm_sq(data, spec.tau),
                                                    rel=1e-13, abs=0)


def lattice_with_repeats(n_distinct, repeats, d):
    """Points 0.5 apart on a lattice, the first ``len(repeats)`` of them
    repeated ``repeats[k]`` more times, and the sum ``sum_k n_k^2`` of the
    squared multiplicities: at a tiny tau the pair sum of ``|y|^2`` is that
    sum exactly, since every other pair's exp is exactly 0."""
    distinct = 0.5 * np.arange(n_distinct * d, dtype=float).reshape(n_distinct, d)
    data = np.vstack([distinct] + [np.repeat(distinct[k : k + 1], r, axis=0)
                                   for k, r in enumerate(repeats)])
    counts = np.ones(n_distinct, dtype=int)
    counts[: len(repeats)] += np.array(repeats, dtype=int)
    return data, int(counts @ counts)


#: the smallest tau that ``GmmKernel`` accepts: its square is the smallest
#: normal float, and the next float down's is not normal
SMALLEST_TAU = 1.4916681462400413e-154


@pytest.mark.exactness
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [SMALLEST_TAU, 1.4917e-154, 2e-154, 2.5e-154, 3.2e-154, 1e-150])
@pytest.mark.parametrize("d", [2])
def test_gmm_y_norm_sq_at_tiny_tau(tau, d):
    # the value n^-2 sum_k n_k^2 (4 pi tau^2)^(-1) is finite, up to about
    # 3e304 here, though n^2 times it is not; every distinct point is a
    # group of its own, which adds n_k^2 (``test_gmm_y_norm_sq_matches_brute_force``
    # draws tiny taus whose groups take the lattice)
    data, pair_sum = lattice_with_repeats(170, [12, 9, 5, 4], d)
    n = len(data)
    closed = pair_sum / n**2 * (4.0 * math.pi * tau**2) ** (-d / 2.0)
    assert mixture(data, tau).y_norm_sq == pytest.approx(closed, rel=1e-13, abs=0)
    if tau == SMALLEST_TAU:
        with pytest.raises(ValueError, match="finite square that is a normal float"):
            mixture(data, math.nextafter(tau, 0.0))
    # coincident samples, whose mean pair term is 1: the largest |y|^2 at
    # this tau, 1 / (4 pi tau^2), up to 3.6e306, is a finite float within a
    # few ulps of it, so no accepted tau overflows
    peak = 1.0 / (4.0 * math.pi * tau**2)
    assert abs(mixture(np.full((60, d), 3.0), tau).y_norm_sq - peak) <= 4.0 * math.ulp(peak)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_gmm_refuses_data_off_the_plane(d):
    # the lattice of |y|^2 is planar, and so are both mixture readers' data
    with pytest.raises(ValueError, match=f"mixture data must be planar \\(d = 2\\), got d = {d}"):
        mixture(lattice_with_repeats(50, [3], d)[0], 0.2)


#: batch indices: repeated, unsorted, both edges, and negative
BATCHES = [[3, 3, 3], [7, 0, 5, 0, 2], [0], [-1, 0, -8], list(range(7, -1, -1)) * 3]


@pytest.mark.parametrize("idx", BATCHES)
def test_batch_gathers_have_the_bits_of_fancy_indexing(idx):
    g = rng(11)
    gmm = mixture(g.standard_normal((8, 2)), 0.3)
    relu = ReluKernel(g.standard_normal((8, 3)), g.standard_normal(8))
    for as_array in (False, True):
        batch = np.array(idx) if as_array else idx
        assert gmm._samples(batch)[0].tobytes() == gmm.data[np.array(idx)].tobytes()
        assert relu._batch(batch).tobytes() == relu._aug[np.array(idx)].tobytes()
        assert relu._targets(batch).tobytes() == relu.targets[np.array(idx)].tobytes()
        assert gmm._samples(batch)[0].shape == (len(idx), 2)


@pytest.mark.parametrize("idx", [[8], [0, 9], [-9]])
def test_batch_gathers_refuse_an_index_out_of_range(idx):
    g = rng(12)
    gmm = mixture(g.standard_normal((8, 2)), 0.3)
    relu = ReluKernel(g.standard_normal((8, 3)), g.standard_normal(8))
    for gather in (gmm._samples, relu._batch, relu._targets):
        with pytest.raises(IndexError):
            gather(np.array(idx))


@pytest.mark.parametrize("data", [np.empty((0, 2)), np.empty((3, 0))])
def test_gmm_rejects_empty_data(data):
    with pytest.raises(ValueError, match="non-empty"):
        GmmKernel(data, 0.2, Box(np.zeros(2), np.ones(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gmm_rejects_non_finite_data(bad):
    data = np.zeros((4, 2))
    data[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GmmKernel(data, 0.2, Box(np.zeros(2), np.ones(2)))


@pytest.mark.parametrize("domain", [Ball([0.0, 0.0], 3.0), Box([-3.0], [3.0]),
                                    Box(np.full(3, -3.0), np.full(3, 3.0))],
                         ids=["ball", "box-1d", "box-3d"])
def test_gmm_refuses_a_domain_that_is_not_a_box_of_its_dimension(domain):
    # a ball raised a bare AttributeError and a 1-d box was admitted for
    # planar data; the refusal names the domain
    data = rng(2).standard_normal((20, 2))
    with pytest.raises(DomainError, match=re.escape(repr(domain))):
        GmmKernel(data, 0.2, domain)


def test_each_model_keeps_the_domain_it_is_built_on():
    box = Box([-4.0, -4.0], [4.0, 4.0])
    assert GmmKernel(rng(2).standard_normal((20, 2)), 0.2, box).domain is box
    assert SyntheticKernel(box, 1.0, [1.0], [[0.5, 0.5]]).domain is box
    relu = ReluKernel(np.zeros((4, 3)), np.zeros(4))
    assert isinstance(relu.domain, Ball) and relu.domain.dim == relu.dim == 4
    assert relu.domain.radius == 1.0 and same_bits(relu.domain.center, np.zeros(4))


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


#: what perfbench (``tracer.py``, ``micro.py``, ``child.py`` and
#: ``test_trace_bytes.py``) reaches of every model: the tracer wraps the
#: public methods of the classes named in ``kernels.__all__`` whose
#: ``__module__`` is ``conicswarm.kernels``, and counts with these members
BENCHMARK_MEMBERS = ("kernel_matrix", "weighted_grad1_kernel", "y_inner_many",
                     "grad_y_inner_many", "kernel_depends_on_samples")


@pytest.mark.parametrize("name", ["KernelModel", "GaussianKernel", "SyntheticKernel",
                                  "GmmKernel", "ReluKernel"])
def test_models_stay_where_perfbench_reaches_them(name):
    model = getattr(kernels, name)
    assert name in kernels.__all__
    assert model.__module__ == "conicswarm.kernels"
    for member in BENCHMARK_MEMBERS:
        assert hasattr(model, member), member


def test_perfbench_imports_from_kernels():
    from conicswarm.kernels import AssumptionBounds, ReluKernel, SyntheticKernel, \
        audit_assumptions as audited
    assert (SyntheticKernel, ReluKernel) == (kernels.SyntheticKernel, kernels.ReluKernel)
    assert (AssumptionBounds, audited) == (audit.AssumptionBounds, audit.audit_assumptions)
