"""The fused certificate evaluator against the four reference primitives.

``certificate_and_grad`` (through ``KernelModel.certificate_field``) and
``certificate`` must reproduce, bit for bit, the certificate assembled from
``weighted_kernel``, ``y_inner_many``, ``weighted_grad1_kernel`` and
``grad_y_inner_many``: exactly and on a batch, on an empty support, at the
support itself and away from it, for signed and unsigned problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.domain import Ball
from conicswarm.kernels import ReluKernel
from conicswarm.objective import Problem, certificate, certificate_and_grad, loss
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem
from test_weighted_kernel import relu_sum_bound

PROBLEMS = {
    "synthetic-signed": make_synthetic_problem(seed=3, signed=True),
    "synthetic-unsigned": make_synthetic_problem(seed=3, signed=False),
    "gmm-unsigned": make_gmm_problem(seed=3),
    "relu-signed": make_relu_problem(seed=3),
}


def reference(problem, swarm, points, signs, idx):
    model = problem.model
    coef = swarm.weights * swarm.signs
    field = model.weighted_kernel(points, swarm.positions, coef, idx)
    vals = signs * (field - model.y_inner_many(points, idx)) + problem.kappa
    grad = model.weighted_grad1_kernel(points, swarm.positions, coef, idx)
    grads = signs[:, None] * (grad - model.grad_y_inner_many(points, idx))
    return vals, grads


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

    ref_vals, ref_grads = reference(problem, swarm, points, signs, idx)
    vals, grads = certificate_and_grad(problem, swarm, points, signs, idx)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(grads, ref_grads)
    assert np.array_equal(certificate(problem, swarm, points, signs, idx), ref_vals)


def relu_run_scale_problem():
    g = np.random.Generator(np.random.Philox(1))
    model = ReluKernel(g.standard_normal((2000, 8)), g.standard_normal(2000))
    problem = Problem(model=model, domain=Ball(np.zeros(9), 1.0), kappa=1e-3)
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=300), g.choice([-1.0, 1.0], size=300),
                          problem.domain.sample_uniform(g, size=300))
    return problem, swarm, g


def test_relu_support_evaluation_matches_at_run_scale():
    # p = 300, where BLAS blocks the sums: the fused evaluation at the
    # support keeps the reference path's bits, and both stay within the
    # summation error bound of the kernel matrix product.
    problem, swarm, g = relu_run_scale_problem()
    model = problem.model
    coef = swarm.weights * swarm.signs
    for idx in (None, g.integers(0, 2000, size=256)):
        ref_vals, ref_grads = reference(problem, swarm, swarm.positions, swarm.signs, idx)
        vals, grads = certificate_and_grad(problem, swarm, swarm.positions, swarm.signs, idx)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(grads, ref_grads)
        field = model.weighted_kernel(swarm.positions, swarm.positions, coef, idx)
        matrix_field = model.kernel_matrix(swarm.positions, swarm.positions, idx) @ coef
        bound = relu_sum_bound(model, swarm.positions, swarm.positions, coef, idx)
        assert np.all(np.abs(field - matrix_field) <= bound)


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
