"""The blocked ReLU loss and held-out error against their one-piece forms.

``relu_blocks`` builds the activations ``relu(X T')`` over row blocks of at
most ``ROW_BLOCK_ENTRIES`` entries, and every ReLU sum over samples reads
them: ``ReluKernel.objective_value`` sums the residual
``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)``, the certificate takes
``r`` from the blocks' network outputs ``act @ c``, exact or batched, and
``experiments.heldout_mse`` is twice the kappa = 0 objective of the held-out
rows. The loss must agree with the expanded objective
``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K c`` and with the residual
evaluated in one piece, and the held-out error and the blocks' network
outputs with their one-shot forms, on both sides of every block edge and
for an empty swarm. The loss and the exact values keep the bits of plain
block loops, and the temporaries of the loss, the held-out error and the
exact support evaluations must not grow with the sample count. The
one-piece forms, the block loops and the bounds are in ``reference.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm import kernels
from conicswarm.domain import Ball
from conicswarm.experiments import RegressionDataset, heldout_mse
from conicswarm.kernels import ReluKernel
from conicswarm.objective import Problem, loss
from conicswarm.swarm import ParticleSwarm
from helpers import network_outputs, same_bits, traced_peak
from reference import expanded_objective, relu_objective, relu_objective_bound, \
    relu_block_field, relu_objective_loop, relu_output, relu_output_bound

ENTRIES = kernels.ROW_BLOCK_ENTRIES


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
    bound = relu_objective_bound(model, t, w, s, kappa)
    assert abs(got - expanded_objective(model, t, w, s, kappa)) <= bound
    assert abs(got - relu_objective(model, t, w, s, kappa)) <= bound

    # the held-out error of these rows: twice the kappa = 0 objective, so
    # within twice its bound of the one-shot mean; mean(y^2) with no swarm
    swarm = ParticleSwarm(w, s, t)
    dataset = RegressionDataset(model.features.copy(), model.targets.copy(),
                                np.empty(0, dtype=int), np.arange(model.n_samples))
    one_shot = relu_output(model, t, w * s)[2]
    mse = heldout_mse(swarm, dataset)
    bound = 2.0 * relu_objective_bound(model, t, w, s, 0.0)
    assert abs(mse - np.mean((one_shot - model.targets) ** 2)) <= bound
    if not len(swarm):
        assert abs(mse - np.mean(model.targets**2)) <= bound
    pred = network_outputs(swarm, model.features)
    assert np.all(np.abs(pred - one_shot) <= relu_output_bound(model, t, w * s))


#: block sizes: 64 activations, so a few hundred rows span several blocks,
#: and the shipped one
BLOCK_ENTRIES = st.sampled_from([64, ENTRIES])


@pytest.mark.exactness
@given(entries=BLOCK_ENTRIES, p_kind=st.sampled_from(["one", "few", "single row"]), **CASES)
@settings(max_examples=60, deadline=None)
def test_relu_loss_has_the_bits_of_the_block_loop(entries, seed, d, p_kind, n_kind, blocks,
                                                  data):
    model, t, w, s = draw_case(seed, d, p_kind, n_kind, blocks, data, entries)
    with mock.patch.object(kernels, "ROW_BLOCK_ENTRIES", entries):
        assert same_bits(model.objective_value(t, w, s, 1e-3),
                         relu_objective_loop(model, t, w, s, 1e-3))


@pytest.mark.exactness
@given(entries=BLOCK_ENTRIES, p_kind=st.sampled_from(["none", "one", "few", "single row"]),
       n_points=st.integers(1, 20), **CASES)
@settings(max_examples=60, deadline=None)
def test_exact_relu_values_have_the_bits_of_the_block_loops(entries, n_points, seed, d,
                                                             p_kind, n_kind, blocks, data):
    model, t, w, s = draw_case(seed, d, p_kind, n_kind, blocks, data, entries)
    points = Ball(np.zeros(d + 1), 1.0).sample_uniform(np.random.default_rng(seed),
                                                       size=n_points)
    with mock.patch.object(kernels, "ROW_BLOCK_ENTRIES", entries):
        assert same_bits(model.certificate_values(points, t, w * s),
                         relu_block_field(model, points, t, w * s, None)[0])


def test_relu_loss_temporaries_do_not_scale_with_n():
    # n = 16,512 samples (the housing training split) and p = 400 particles:
    # the one-piece residual, or an exact run's support field or pushed
    # values in one piece, would hold n x p activations, 53 MB; the blocked
    # ones hold one block of at most ROW_BLOCK_ENTRIES, 1 MiB, and r
    g = np.random.Generator(np.random.Philox(4))
    model = ReluKernel(g.standard_normal((16_512, 8)), g.standard_normal(16_512))
    problem = Problem(model=model, kappa=1e-3)
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=400), g.choice([-1.0, 1.0], size=400),
                          problem.domain.sample_uniform(g, size=400))
    s, c = swarm.positions, swarm.weights * swarm.signs
    for call in (lambda: loss(problem, swarm), lambda: model.certificate_field(s, s, c),
                 lambda: model.pushed_values(s, c, None, s[:0])):
        assert traced_peak(call) < 3 * 2**20


def test_heldout_mse_temporaries_do_not_scale_with_n():
    # 16,512 held-out rows and p = 400 particles: the one-shot error held two
    # n x p arrays, 53 MB each; the blocked one holds the rows' [x, 1]
    # (1.2 MB), their targets and one block of at most ROW_BLOCK_ENTRIES,
    # 1 MiB
    g = np.random.Generator(np.random.Philox(5))
    n = 16_512
    dataset = RegressionDataset(g.standard_normal((n, 8)), g.standard_normal(n),
                                np.empty(0, dtype=int), np.arange(n))
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=400), g.choice([-1.0, 1.0], size=400),
                          Ball(np.zeros(9), 1.0).sample_uniform(g, size=400))
    assert traced_peak(lambda: heldout_mse(swarm, dataset)) < 3 * 2**20
