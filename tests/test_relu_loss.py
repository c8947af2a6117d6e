"""The blocked ReLU loss against its expanded and closed forms.

``ReluKernel.objective_value`` sums the residual
``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)`` over row blocks of at most
``_ROW_BLOCK_ENTRIES`` activations. It must agree with the expanded
objective of the base class, ``0.5 |y|^2 + <kappa - s <y, phi_T>, w> +
0.5 c' K c``, and with the residual evaluated in one piece, on both sides of
every block edge, and its temporaries must not grow with the sample count.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from conicswarm import kernels
from conicswarm.domain import Ball
from conicswarm.kernels import KernelModel, ReluKernel
from conicswarm.objective import Problem, loss
from conicswarm.swarm import ParticleSwarm

EPS = np.finfo(float).eps
ENTRIES = kernels._ROW_BLOCK_ENTRIES
#: a swarm this large fits one activation row per block
SINGLE_ROW_P = ENTRIES // 2 + 1


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


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
       p_kind=st.sampled_from(["one", "few", "single row"]),
       n_kind=st.sampled_from(["below one block", "block multiple", "multiple plus one"]),
       blocks=st.integers(1, 2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_relu_loss_matches_expanded_and_closed_forms(seed, d, p_kind, n_kind, blocks, data):
    p = data.draw(st.integers(2, 12)) if p_kind == "few" else \
        {"one": 1, "single row": SINGLE_ROW_P}[p_kind]
    rows = max(1, ENTRIES // p)
    if n_kind == "below one block":
        n = data.draw(st.integers(1, max(1, min(rows - 1, 500))))
    else:
        n = blocks * rows + (n_kind == "multiple plus one")
    g = np.random.Generator(np.random.Philox(seed))
    model = ReluKernel(g.standard_normal((n, d)), g.standard_normal(n))
    t = Ball(np.zeros(d + 1), 1.0).sample_uniform(g, size=p)
    w = g.uniform(0.01, 1.0, size=p)
    s = g.choice([-1.0, 1.0], size=p)
    kappa = 1e-3

    got = model.objective_value(t, w, s, kappa)
    bound = error_bound(model, t, w, s, kappa)
    assert abs(got - KernelModel.objective_value(model, t, w, s, kappa)) <= bound
    assert abs(got - closed_form(model, t, w, s, kappa)) <= bound


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
