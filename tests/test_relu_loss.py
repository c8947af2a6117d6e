"""The blocked ReLU loss and held-out error against their one-piece forms.

``relu_outputs`` computes the network output ``relu(X T) c`` over row blocks
of at most ``_ROW_BLOCK_ENTRIES`` activations, and three evaluations read
it: ``ReluKernel.objective_value`` sums the residual
``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)``, ``certificate_values`` at
``idx=None`` takes ``r`` from it, and ``experiments.heldout_mse`` is twice
the kappa = 0 objective of the held-out rows. The loss must agree with the
expanded objective of the base class, ``0.5 |y|^2 + <kappa - s <y, phi_T>,
w> + 0.5 c' K c``, and with the residual evaluated in one piece, and the
held-out error and ``relu_predict`` with their one-shot forms, on both sides
of every block edge and for an empty swarm. The loss and the exact values
keep the bits of the block loops they had before ``relu_outputs``, copied
here, and the loss's and the held-out error's temporaries must not grow
with the sample count.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from conicswarm import kernels
from conicswarm.domain import Ball
from conicswarm.experiments import RegressionDataset, heldout_mse, relu_predict
from conicswarm.kernels import KernelModel, ReluKernel
from conicswarm.objective import Problem, loss
from conicswarm.swarm import ParticleSwarm
from helpers import same_bits

EPS = np.finfo(float).eps
ENTRIES = kernels._ROW_BLOCK_ENTRIES


def augmented(model):
    return np.hstack([model.features, np.ones((model.n_samples, 1))])


def closed_form(model, t, w, s, kappa):
    out = np.maximum(augmented(model) @ t.T, 0.0) @ (w * s)
    return 0.5 * np.mean((out - model.targets) ** 2) + kappa * w.sum()


def error_bound(model, t, w, s, kappa):
    """``4 (n + p + d + 4) eps`` times a scale that bounds every term of
    both forms in absolute value.

    Each form is a chain of at most ``N = n + p + d + 4`` rounded sums
    (pre-activations over d + 1 coordinates, network outputs over p
    particles, means over n samples, the final combination), and a computed
    sum of N terms is off by at most ``N eps`` times the sum of their
    absolute values. Those absolute sums are at most the scale
    ``0.5 mean((F + |y|)^2) + kappa sum(w)`` with
    ``F = (|X| |T|') |c|``, which also covers rounding in the
    pre-activations; the factor 4 covers the three terms of the expanded
    form and their difference from the residual. The measured differences
    stay below 5e-6 of the bound at n up to 131,073; dropping one sample
    of the last block already exceeds it."""
    aug = augmented(model)
    f = (np.abs(aug) @ np.abs(t).T) @ np.abs(w * s)
    scale = 0.5 * np.mean((f + np.abs(model.targets)) ** 2) + kappa * w.sum()
    n, d1 = aug.shape
    return 4.0 * (n + len(w) + d1 + 4) * EPS * scale


def output_bound(model, t, c):
    """``2 (p + d + 1) eps F`` with ``F = (|X| |T|') |c|``, per row.

    Each form rounds a pre-activation, a sum of d + 1 products, and the
    output, a sum of p terms; with relu 1-Lipschitz both errors are at most
    ``(p + d + 1) eps F``, which the factor 2 counts once per form."""
    aug = augmented(model)
    return 2.0 * (len(c) + aug.shape[1]) * EPS * ((np.abs(aug) @ np.abs(t).T) @ np.abs(c))


def draw_case(seed, d, p_kind, n_kind, blocks, data, entries=ENTRIES):
    """A model and a swarm on one side of a block edge of ``entries``
    activations: p of none, one, a few or one row per block, against n below
    one block, a multiple of it, or a multiple plus one."""
    p = data.draw(st.integers(2, 12)) if p_kind == "few" else \
        {"none": 0, "one": 1, "single row": entries // 2 + 1}[p_kind]
    rows = max(1, entries // max(1, p))
    if n_kind == "below one block":
        n = data.draw(st.integers(1, max(1, min(rows - 1, 500))))
    else:
        n = blocks * rows + (n_kind == "multiple plus one")
    g = np.random.Generator(np.random.Philox(seed))
    model = ReluKernel(g.standard_normal((n, d)), g.standard_normal(n))
    t = Ball(np.zeros(d + 1), 1.0).sample_uniform(g, size=p).reshape(p, d + 1)
    w = g.uniform(0.01, 1.0, size=p)
    s = g.choice([-1.0, 1.0], size=p)
    return model, t, w, s


CASES = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
             n_kind=st.sampled_from(["below one block", "block multiple",
                                     "multiple plus one"]),
             blocks=st.integers(1, 2), data=st.data())


@given(p_kind=st.sampled_from(["none", "one", "few", "single row"]), **CASES)
@settings(max_examples=80, deadline=None)
def test_relu_loss_matches_expanded_and_closed_forms(seed, d, p_kind, n_kind, blocks, data):
    model, t, w, s = draw_case(seed, d, p_kind, n_kind, blocks, data)
    kappa = 1e-3

    got = model.objective_value(t, w, s, kappa)
    bound = error_bound(model, t, w, s, kappa)
    assert abs(got - KernelModel.objective_value(model, t, w, s, kappa)) <= bound
    assert abs(got - closed_form(model, t, w, s, kappa)) <= bound

    # the held-out error of these rows: twice the kappa = 0 objective, so
    # within twice its bound of the one-shot mean; mean(y^2) with no swarm
    swarm = ParticleSwarm(w, s, t)
    dataset = RegressionDataset(model.features.copy(), model.targets.copy(),
                                np.empty(0, dtype=int), np.arange(model.n_samples))
    one_shot = np.maximum(augmented(model) @ t.T, 0.0) @ (w * s)
    mse = heldout_mse(swarm, dataset)
    assert abs(mse - np.mean((one_shot - model.targets) ** 2)) <= \
        2.0 * error_bound(model, t, w, s, 0.0)
    if not len(swarm):
        assert abs(mse - np.mean(model.targets**2)) <= 2.0 * error_bound(model, t, w, s, 0.0)
    pred = relu_predict(swarm, model.features)
    assert np.all(np.abs(pred - one_shot) <= output_bound(model, t, w * s))


def objective_loop(model, t, weights, signs, kappa):
    """``ReluKernel.objective_value`` as its own block loop, before
    ``relu_outputs``."""
    c = weights * signs
    n = model.n_samples
    step = max(1, kernels._ROW_BLOCK_ENTRIES // len(c))
    buf = np.empty((min(step, n), len(c)))
    total = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        act = buf[: hi - lo]
        np.matmul(model._aug[lo:hi], t.T, out=act)
        np.maximum(act, 0.0, out=act)
        resid = act @ c - model.targets[lo:hi]
        total += float(resid @ resid)
    return 0.5 * total / n + kappa * float(weights.sum())


def exact_values_loop(model, t, support, coef):
    """``ReluKernel.certificate_values(idx=None)`` as its own block loops,
    before ``relu_outputs``."""
    entries = kernels._ROW_BLOCK_ENTRIES
    n = model.n_samples
    r = np.empty(n)
    step = max(1, entries // max(1, len(coef)))
    for lo in range(0, n, step):
        r[lo : lo + step] = np.maximum(model._aug[lo : lo + step] @ support.T, 0.0) @ coef
    r -= model.targets
    vals = np.empty(len(t))
    step = 8 * max(1, entries // (8 * n))
    for lo in range(0, len(t), step):
        vals[lo : lo + step] = np.maximum(model._aug @ t[lo : lo + step].T, 0.0).T @ r
    return vals / n


#: block sizes: 64 activations, so a few hundred rows span several blocks,
#: and the shipped one
BLOCK_ENTRIES = st.sampled_from([64, ENTRIES])


@given(entries=BLOCK_ENTRIES, p_kind=st.sampled_from(["one", "few", "single row"]), **CASES)
@settings(max_examples=60, deadline=None)
def test_relu_loss_has_the_bits_of_the_block_loop(entries, seed, d, p_kind, n_kind, blocks,
                                                  data):
    model, t, w, s = draw_case(seed, d, p_kind, n_kind, blocks, data, entries)
    with mock.patch.object(kernels, "_ROW_BLOCK_ENTRIES", entries):
        assert same_bits(model.objective_value(t, w, s, 1e-3),
                         objective_loop(model, t, w, s, 1e-3))


@given(entries=BLOCK_ENTRIES, p_kind=st.sampled_from(["none", "one", "few", "single row"]),
       n_points=st.integers(1, 20), **CASES)
@settings(max_examples=60, deadline=None)
def test_exact_relu_values_have_the_bits_of_the_block_loops(entries, n_points, seed, d,
                                                             p_kind, n_kind, blocks, data):
    model, t, w, s = draw_case(seed, d, p_kind, n_kind, blocks, data, entries)
    points = Ball(np.zeros(d + 1), 1.0).sample_uniform(np.random.default_rng(seed),
                                                       size=n_points)
    with mock.patch.object(kernels, "_ROW_BLOCK_ENTRIES", entries):
        assert same_bits(model.certificate_values(points, t, w * s),
                         exact_values_loop(model, points, t, w * s))


def test_relu_loss_temporaries_do_not_scale_with_n():
    # n = 16,512 samples (the housing training split) and p = 400 particles:
    # the one-piece residual would hold n x p activations, 53 MB; the blocked
    # loss holds one block of at most _ROW_BLOCK_ENTRIES, 1 MiB.
    g = np.random.Generator(np.random.Philox(4))
    model = ReluKernel(g.standard_normal((16_512, 8)), g.standard_normal(16_512))
    problem = Problem(model=model, domain=Ball(np.zeros(9), 1.0), kappa=1e-3)
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=400), g.choice([-1.0, 1.0], size=400),
                          problem.domain.sample_uniform(g, size=400))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loss(problem, swarm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_heldout_mse_temporaries_do_not_scale_with_n():
    # 16,512 held-out rows and p = 400 particles: the one-shot error held two
    # n x p arrays, 53 MB each; the blocked one holds the rows' [x, 1]
    # (1.2 MB), their targets and one block of at most _ROW_BLOCK_ENTRIES,
    # 1 MiB
    g = np.random.Generator(np.random.Philox(5))
    n = 16_512
    dataset = RegressionDataset(g.standard_normal((n, 8)), g.standard_normal(n),
                                np.empty(0, dtype=int), np.arange(n))
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=400), g.choice([-1.0, 1.0], size=400),
                          Ball(np.zeros(9), 1.0).sample_uniform(g, size=400))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        heldout_mse(swarm, dataset)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
