"""What ``ReluKernel``'s loop evaluations build.

``pushed_values`` forms the residual ``r = u - y`` of the pushed support's
network output ``u = relu(X_b S) c`` on the batch rows and scores the birth
candidates against it on that same batch, so they build only their own
activation. A stateless evaluation builds every activation again. That the
loop evaluations have the bits of the stateless ones and keep nothing in
the model is checked for every model in ``test_loop_evaluations.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from conicswarm.kernels import ReluKernel
from conicswarm.runner import run
from conicswarm.verify import make_relu_problem, random_swarm
from helpers import loop_config, rng, same_bits

#: birth candidates per iteration, as in ``loop_config``
N_CAND = 4


def activations(model, fetched=None, blocked=None):
    """Makes the model's sample rows log the point count of every
    activation ``X_b T'`` built from them, into ``blocked`` that of every
    row block ``relu_blocks`` builds into its buffer (``np.matmul`` with
    ``out``), and into ``fetched`` the size of every batch fetched from
    them, by ``np.take`` or by fancy indexing; returns the first log, of
    activations built any other way. Only products whose inner dimension
    is the feature width ``model.dim`` are activations: the gradient's
    ``(X_b * r)' [act > 0]`` sums over the batch and is not logged."""
    log = []

    class Rows(np.ndarray):
        def __matmul__(self, other):
            if np.ndim(other) == 2 and other.shape[0] == self.shape[-1] == model.dim:
                log.append(other.shape[1])
            return np.asarray(np.ndarray.__matmul__(self, other))

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and "out" in kwargs and blocked is not None:
                blocked.append(inputs[1].shape[1])
            inputs = [x.view(np.ndarray) if isinstance(x, Rows) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

        def __getitem__(self, key):
            if isinstance(key, np.ndarray) and fetched is not None:
                fetched.append(len(key))
            return np.ndarray.__getitem__(self, key)

        def take(self, indices, *args, **kwargs):
            if fetched is not None:
                fetched.append(len(indices))
            return np.ndarray.take(self, indices, *args, **kwargs)

    model._aug = model._aug.view(Rows)
    return log


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("case", ["kept", "support", "coef", "batch", "unscoped"])
def test_only_the_kept_support_coef_and_batch_read_the_record(case, batched):
    # only the candidates of the pushed evaluation read its residual; a
    # stateless evaluation against any support, ``c`` or batch,
    # the pushed one's included, builds every activation again
    problem = make_relu_problem(seed=3)
    model = problem.model
    fresh = ReluKernel(model.features, model.targets)
    blocked = []
    log = activations(model, blocked=blocked)
    g = rng(1)
    pushed = problem.domain.sample_uniform(g, size=5)
    cand = problem.domain.sample_uniform(g, size=N_CAND)
    coef = g.uniform(-1.0, 1.0, size=5)
    idx = g.integers(0, model.n_samples, size=32) if batched else None
    other = g.integers(0, model.n_samples, size=32)
    support, c, batch = {
        "kept": (pushed, coef, idx),
        "unscoped": (pushed, coef, idx),
        "support": (np.vstack([pushed[:4], cand[:1]]), coef, idx),
        "coef": (pushed, coef[::-1].copy(), idx),
        "batch": (pushed, coef, other if idx is None else None),
    }[case]
    _, got, _ = model.pushed_values(pushed, coef, idx, cand)
    want = fresh.certificate_values(cand, support, c, batch)
    if case != "kept":
        got = model.certificate_values(cand, support, c, batch)
    assert same_bits(got, want)
    assert log == []
    assert sorted(blocked) == sorted([5, N_CAND] if case == "kept" else [5, N_CAND] * 2)


@pytest.mark.parametrize("full_batch", [True, False])
def test_iteration_builds_two_support_activations(full_batch):
    # the support's field and the pushed support's values each build one and
    # fetch their batch; the candidates build only their own and fetch none;
    # the loss at the cadence builds the swarm's. Each is one row block of
    # the 64 samples or the 32-row batch, and none is built outside
    # ``relu_blocks``
    problem = make_relu_problem(seed=3)
    fetched, blocked = [], []
    log = activations(problem.model, fetched, blocked)
    res = run(loop_config(random_swarm(problem, rng(8), max_particles=6), full_batch, k_iters=20),
              problem)
    assert res.total_births > 0
    want = [res.trace[0].particles]
    for before, rec in zip(res.trace, res.trace[1:]):
        want += [before.particles, before.particles, N_CAND]
        want += [rec.particles] if rec.loss is not None else []
    assert blocked == want
    assert log == []
    assert fetched == ([] if full_batch else [32] * (2 * 20))
