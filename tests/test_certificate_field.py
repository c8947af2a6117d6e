"""The fused certificate evaluator against its references.

``certificate_and_grad`` (through ``KernelModel.certificate_field``) and
``certificate`` (through ``certificate_values``) are checked exactly and on a
batch, on an empty support, at the support itself and away from it, for
signed and unsigned problems:

* the mixture model must lie within ``mixture_field_bound`` of the
  certificate assembled from the reference's ``K c``,
  ``weighted_grad1_kernel`` and the plain data-side forms of
  ``observation_terms`` (``primitive_field``): the exponents of its kernel
  entries and densities come from expanded products;
* the synthetic observation is a signed point measure, so its certificate
  is the weighted kernel of ``P = [S; atoms; anchors]`` with coefficients
  ``q = [c; -w; -eta_b]`` (``signed_measure``). It must reproduce, bit for
  bit, ``weighted_kernel(t, P, q)`` and ``weighted_grad1_kernel(t, P, q)``,
  and match ``primitive_field``, which sums the same products in three
  groups, within the summation bound ``signed_sum_bound``;
* ReLU correlates each feature with the residual ``r = relu(X_b S) c - y``:
  values ``act' r / m`` and gradients ``((X_b * r)' [act > 0])' / m``, the
  residual scaling the batch rows, summed over row blocks of the batch. It
  must reproduce, bit for bit, that residual form as a plain block loop
  (``relu_block_field``), and match the one-shot residual form
  (``residual_field``) and ``primitive_field``, which subtracts the
  target's correlation separately, within the summation bound
  ``relu_residual_bound``. Its gradients are also held to the masked
  residual product ``(X_b' ([pre > 0] * r))' / m``, which scales the mask
  instead, within the rounding bound ``scaled_rows_bound``. Its
  ``certificate_values``, exact or batched, has the field's bits at every
  size.

``KernelModel`` derives ``y_inner_many`` and ``grad_y_inner_many`` from
each model's certificate of the zero measure. Each call above also holds
that pair, exact and batched, to ``observation_terms``: the synthetic model
bit for bit, since both take the same operations, the mixture within
``mixture_side_bound``, and ReLU, which sums over row blocks, within
``relu_residual_bound`` of an empty support.

The forms and their bounds are in ``reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.domain import Ball
from conicswarm.kernels import GmmKernel, ReluKernel, SyntheticKernel
from conicswarm.objective import Problem, certificate, certificate_and_grad, kkt_residual, loss
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem
from helpers import same_bits, traced_peak
from reference import masked_residual_grads, mixture_field_bound, mixture_side_bound, near, \
    observation_terms, primitive_field, relu_block_field, relu_residual_bound, residual_field, \
    scaled_rows_bound, signed_field, signed_sum_bound

pytestmark = pytest.mark.exactness

PROBLEMS = {
    "synthetic-signed": make_synthetic_problem(seed=3, signed=True),
    "synthetic-unsigned": make_synthetic_problem(seed=3, signed=False),
    "gmm-unsigned": make_gmm_problem(seed=3),
    "relu-signed": make_relu_problem(seed=3),
}


def fold(problem, signs, field):
    """Certificate values and gradients from the unsigned field."""
    vals, grads = field
    return signs * vals + problem.kappa, signs[:, None] * grads


def check_observation_terms(model, points, idx):
    got = model.y_inner_many(points, idx), model.grad_y_inner_many(points, idx)
    want = observation_terms(model, points, idx)
    if isinstance(model, ReluKernel):
        bounds = relu_residual_bound(model, points, np.empty((0, model.dim)), np.empty(0), idx)
        for g, w, b in zip(got, want, bounds):
            assert np.all(np.abs(g - w) <= b)
    elif isinstance(model, GmmKernel):
        for g, w, b in zip(got, want, mixture_side_bound(model, points, idx)):
            assert near(g, w, b)
    else:
        for g, w in zip(got, want):
            assert same_bits(g, w)


def check_certificate(problem, swarm, points, signs, idx):
    model = problem.model
    coef = swarm.weights * swarm.signs
    check_observation_terms(model, points, idx)
    want = primitive_field(model, points, swarm.positions, coef, idx)
    if isinstance(model, SyntheticKernel):
        for w, s, b in zip(want, signed_field(model, points, swarm.positions, coef, idx),
                           signed_sum_bound(model, points, swarm.positions, coef, idx)):
            assert np.all(np.abs(s - w) <= b)
        want = signed_field(model, points, swarm.positions, coef, idx)
    if isinstance(model, ReluKernel):
        bounds = relu_residual_bound(model, points, swarm.positions, coef, idx)
        got = model.certificate_field(points, swarm.positions, coef, idx)
        one_shot = residual_field(model, points, swarm.positions, coef, idx)
        for g, w, o, b in zip(got, want, one_shot, bounds):
            assert np.all(np.abs(g - w) <= b)
            assert np.all(np.abs(g - o) <= b)
        masked = masked_residual_grads(model, points, swarm.positions, coef, idx)
        assert np.all(np.abs(got[1] - masked)
                      <= scaled_rows_bound(model, points, swarm.positions, coef, idx))
        want = relu_block_field(model, points, swarm.positions, coef, idx)
    want_vals, want_grads = fold(problem, signs, want)
    vals, grads = certificate_and_grad(problem, swarm, points, signs, idx)
    if isinstance(model, GmmKernel):
        val_bound, grad_bound = mixture_field_bound(model, points, swarm.positions, coef, idx)
        assert near(vals, want_vals, val_bound) and near(grads, want_grads, grad_bound)
        assert near(certificate(problem, swarm, points, signs, idx), want_vals, val_bound)
        return
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(grads, want_grads)
    assert np.array_equal(certificate(problem, swarm, points, signs, idx), want_vals)


def draw_signs(problem, g, size):
    return g.choice([-1.0, 1.0], size=size) if problem.signed else np.ones(size)


@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       p=st.integers(0, 7), n_points=st.integers(0, 5), at_support=st.booleans(),
       batch=st.one_of(st.none(), st.integers(1, 40)))
@settings(max_examples=200, deadline=None)
def test_fused_certificate_matches_reference_primitives(name, seed, p, n_points, at_support,
                                                        batch):
    problem = PROBLEMS[name]
    g = np.random.Generator(np.random.Philox(seed))
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=p), draw_signs(problem, g, p),
                          problem.domain.sample_uniform(g, size=p))
    if at_support:
        points, signs = swarm.positions, swarm.signs
    else:
        points = problem.domain.sample_uniform(g, size=n_points)
        signs = draw_signs(problem, g, n_points)
    idx = None if batch is None else g.integers(0, problem.model.n_samples, size=batch)
    check_certificate(problem, swarm, points, signs, idx)


def relu_run_scale_problem(n=2000, seed=1):
    """n samples in d + 1 = 9 and a swarm of p = 300."""
    g = np.random.Generator(np.random.Philox(seed))
    model = ReluKernel(g.standard_normal((n, 8)), g.standard_normal(n))
    problem = Problem(model=model, domain=Ball(np.zeros(9), 1.0), kappa=1e-3)
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=300), g.choice([-1.0, 1.0], size=300),
                          problem.domain.sample_uniform(g, size=300))
    return problem, swarm, g


def test_relu_support_evaluation_matches_at_run_scale():
    # p = 300, where BLAS blocks the sums, on a batch of m = 256 (one row
    # block) and exactly over m = 2,000 (five): the fused evaluation at the
    # support and away from it keeps the block loop's bits and stays within
    # the summation bound of the one-shot residual form and the four
    # primitives and the rounding bound of the masked residual product.
    problem, swarm, g = relu_run_scale_problem()
    points = problem.domain.sample_uniform(g, size=50)
    for idx in (None, g.integers(0, 2000, size=256)):
        check_certificate(problem, swarm, swarm.positions, swarm.signs, idx)
        check_certificate(problem, swarm, points, g.choice([-1.0, 1.0], size=50), idx)


def test_relu_solver_paths_build_no_kernel_matrix(monkeypatch):
    problem, swarm, g = relu_run_scale_problem()
    points = problem.domain.sample_uniform(g, size=50)
    signs = g.choice([-1.0, 1.0], size=50)

    def refuse(*_args, **_kwargs):
        raise AssertionError("ReluKernel.kernel_matrix called")

    monkeypatch.setattr(ReluKernel, "kernel_matrix", refuse)
    loss(problem, swarm)
    for idx in (None, g.integers(0, 2000, size=256)):
        certificate(problem, swarm, swarm.positions, swarm.signs, idx)
        certificate(problem, swarm, points, signs, idx)
        certificate_and_grad(problem, swarm, swarm.positions, swarm.signs, idx)
        certificate_and_grad(problem, swarm, points, signs, idx)
    with pytest.raises(AssertionError, match="kernel_matrix called"):
        problem.model.kernel_matrix(points, points)


@pytest.mark.parametrize("p", [0, 1, 7, 300, 1000])
def test_relu_exact_values_match_the_one_shot_residual_form(p):
    # n = 2,000: from 66 points or particles on, their activations take more
    # than one row block; the values sum the residual form's products in
    # other groupings, so they are held to it within its summation bound,
    # on both sides of a block edge
    g = np.random.Generator(np.random.Philox(p))
    model = ReluKernel(g.standard_normal((2000, 8)), g.standard_normal(2000))
    ball = Ball(np.zeros(9), 1.0)
    support = ball.sample_uniform(g, size=p)
    coef = g.uniform(-1.0, 1.0, size=p)
    for size in (1, 65, 66, 200):
        points = ball.sample_uniform(g, size=size)
        got = model.certificate_values(points, support, coef)
        want = residual_field(model, points, support, coef, None)[0]
        assert np.all(np.abs(got - want) <= relu_residual_bound(model, points, support, coef,
                                                                None)[0])


@pytest.mark.parametrize("size", [1, 300, 512, 513, 1024])
def test_relu_batch_values_have_the_field_bits_within_one_chunk(size):
    # a batch of m = 256 and p = 300, one row block of the residual; up to
    # 512 points one row block of the points' activations, past it two or
    # more: the values and the field read the same blocks at every size
    problem, swarm, g = relu_run_scale_problem()
    model, coef = problem.model, swarm.weights * swarm.signs
    idx = g.integers(0, 2000, size=256)
    points = problem.domain.sample_uniform(g, size=size)
    assert same_bits(model.certificate_values(points, swarm.positions, coef, idx),
                     model.certificate_field(points, swarm.positions, coef, idx)[0])


def test_relu_kkt_residual_memory_does_not_grow_with_the_grid():
    # n = 1,600 samples in d + 1 = 9 (teacher_desk.cfg's sizes) and p = 300:
    # one-shot exact values would hold two n x |grid| arrays, 205 MB at
    # 8,000 points; the blocked ones hold one 1 MiB block whatever the
    # grid, plus a few floats per grid point
    problem, swarm, g = relu_run_scale_problem(n=1600, seed=3)
    peaks = []
    for size in (1000, 8000):
        grid = problem.domain.sample_uniform(g, size=size)
        peaks.append(traced_peak(lambda: kkt_residual(problem, swarm, grid)))
    assert peaks[1] < 4 * 2**20
    assert peaks[1] - peaks[0] < 32 * 7000


def test_relu_support_evaluations_hold_one_activation_array():
    # p = 400 on a batch of m = 256 (housing_full.cfg's batch): the field
    # and the pushed evaluation hold one m x p float array, 8 m p bytes:
    # the activations, rectified in place, which the field overwrites with
    # its mask. The rest (the batch rows and their scaled copy, r, u and the
    # 400 x 9 gradients with their scaled copy) comes to about 80 KB, within
    # the 2^17 bytes of slack; a separate pre-activation array or mask adds
    # 8 m p = 819 KB
    g = np.random.Generator(np.random.Philox(4))
    model = ReluKernel(g.standard_normal((2000, 8)), g.standard_normal(2000))
    m, p = 256, 400
    support = Ball(np.zeros(9), 1.0).sample_uniform(g, size=p)
    coef = g.uniform(-1.0, 1.0, size=p)
    idx = g.integers(0, 2000, size=m)
    slack = 2**17
    for call in (lambda: model.certificate_field(support, support, coef, idx),
                 lambda: model.pushed_values(support, coef, idx, support[:0])):
        assert traced_peak(call) <= 8 * m * p + slack
