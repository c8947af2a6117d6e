"""``ReluKernel``'s loop evaluations: the pushed support's residual in ``ev``.

``pushed_values`` hands the batch rows and the residual ``r = u - y`` of the
pushed support's network output ``u = relu(X_b S) c`` on them to
``candidate_values`` as ``ev``; the loop scores its birth candidates against
the pushed support on that same batch, so they read ``r`` and build only
their own activation. The products see the same operands either way, so
every loop evaluation gives the bits of the stateless one, and a whole run
the rows of a run patched to the stateless evaluators. Nothing is kept
between calls: a stateless evaluation after the loop evaluations builds
fresh, and a run leaves the model's attributes as it found them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.runner as runner
from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.kernels import KernelModel, ReluKernel
from conicswarm.runner import RunAborted, RunConfig, run
from conicswarm.schedules import FixedPlan
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_relu_problem
from helpers import rng, same_bits

#: birth candidates per iteration
N_CAND = 3


def activations(model, fetched=None, blocked=None):
    """Makes the model's sample rows log the point count of every
    activation ``X_b T'`` built from them, into ``blocked`` that of every
    row block ``relu_outputs`` builds into its buffer (``np.matmul`` with
    ``out``), and into ``fetched`` the size of every batch fetched from
    them, by ``np.take`` or by fancy indexing; returns the first log. Only
    products whose inner dimension is the feature width ``model.dim`` are
    activations: the gradient's ``(X_b * r)' [act > 0]`` sums over the
    batch and is not logged."""
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


def init_swarm(problem, p=8):
    g = rng(5)
    return ParticleSwarm(g.uniform(0.05, 0.3, size=p), g.choice([-1.0, 1.0], size=p),
                         problem.domain.sample_uniform(g, size=p))


def loop_config(init, full_batch, **kw):
    base = dict(init_swarm=init, k_iters=40, alpha=0.5, plan=FixedPlan(0.01, 32, 0.05),
                full_batch=full_batch, birth_death=True, death_rule=DeathRule(),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=N_CAND),
                seed=9, trace_cadence=10)
    base.update(kw)
    return RunConfig(**base)


def attributes(model):
    """The model's attributes, by identity."""
    return {name: id(value) for name, value in vars(model).items()}


def rows(trace):
    return [(r.k, r.loss, r.tv, r.particles, r.births, r.deaths, r.min_cert, r.delta,
             r.cert_norm_sq) for r in trace]


@given(seed=st.integers(0, 2**32 - 1), batched=st.booleans(), n_cand=st.integers(1, 6),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_warm_model_gives_fresh_bits(seed, batched, n_cand, data):
    problem = make_relu_problem(seed=3)
    warm = problem.model
    fresh = ReluKernel(warm.features, warm.targets)
    g = rng(seed)
    pushed = problem.domain.sample_uniform(g, size=int(g.integers(1, 9)))
    cand = problem.domain.sample_uniform(g, size=n_cand)
    coef = g.uniform(-1.0, 1.0, size=len(pushed))
    idx = g.integers(0, warm.n_samples, size=32) if batched else None
    vals, ev = warm.pushed_values(pushed, coef, idx)
    assert same_bits(vals, fresh.certificate_values(pushed, pushed, coef, idx))
    assert same_bits(warm.candidate_values(ev, cand),
                     fresh.certificate_values(cand, pushed, coef, idx))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(pushed),
                                       max_size=len(pushed))), dtype=bool)
    born = np.array(data.draw(st.lists(st.booleans(), min_size=n_cand, max_size=n_cand)),
                    dtype=bool)
    t = np.vstack([pushed[keep], cand[born]])
    c = g.uniform(-1.0, 1.0, size=len(t))
    idx = g.integers(0, warm.n_samples, size=32) if batched else None
    for got, want in zip(warm.support_field(t, c, idx, ev, keep, born),
                         fresh.certificate_field(t, t, c, idx)):
        assert same_bits(got, want)


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("case", ["kept", "support", "coef", "batch", "unscoped"])
def test_only_the_kept_support_coef_and_batch_read_the_record(case, batched):
    # only ``candidate_values`` reads the pushed evaluation, through its
    # ``ev``; a stateless evaluation against any support, ``c`` or batch,
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
    _, ev = model.pushed_values(pushed, coef, idx)
    want = fresh.certificate_values(cand, support, c, batch)
    if case == "kept":
        got = model.candidate_values(ev, cand)
    else:
        got = model.certificate_values(cand, support, c, batch)
    assert same_bits(got, want)
    assert sorted(log + blocked) == sorted([5, N_CAND] if case == "kept" else [5, N_CAND, 5])


def test_record_dropped_after_run_and_after_abort(monkeypatch):
    # a run, and a run that aborts, leave the model's attributes as they were
    problem = make_relu_problem(seed=3)
    init = init_swarm(problem)
    before = attributes(problem.model)
    run(loop_config(init, False, k_iters=5), problem)
    assert attributes(problem.model) == before
    real, seen = runner.weight_push_update, []

    def failing(problem_, swarm, certs, grads, rates):
        seen.append(attributes(problem.model) == before)
        if len(seen) == 3:
            raise ValueError("stop here")
        return real(problem_, swarm, certs, grads, rates)

    monkeypatch.setattr(runner, "weight_push_update", failing)
    with pytest.raises(RunAborted):
        run(loop_config(init, False), problem)
    assert seen == [True] * 3
    assert attributes(problem.model) == before


@pytest.mark.parametrize("full_batch", [True, False])
def test_trace_equals_a_run_that_keeps_nothing(monkeypatch, full_batch):
    problem = make_relu_problem(seed=3)
    config = loop_config(init_swarm(problem), full_batch, k_iters=60)
    kept = run(config, problem)
    assert kept.total_births > 0 and kept.total_deaths > 0
    for name in ("pushed_values", "candidate_values"):
        monkeypatch.setattr(ReluKernel, name, getattr(KernelModel, name))
    bare = run(config, problem)
    assert rows(kept.trace) == rows(bare.trace)
    for name in ("weights", "signs", "positions"):
        assert same_bits(getattr(kept.final_swarm, name), getattr(bare.final_swarm, name))


@pytest.mark.parametrize("full_batch", [True, False])
def test_iteration_builds_two_support_activations(full_batch):
    # the support's field and the pushed support's values each build one and
    # fetch their batch; the candidates build only their own and fetch none
    problem = make_relu_problem(seed=3)
    fetched = []
    log = activations(problem.model, fetched)
    res = run(loop_config(init_swarm(problem), full_batch, k_iters=20), problem)
    assert res.total_births > 0
    assert log == [n for rec in res.trace[:-1] for n in (rec.particles, rec.particles, N_CAND)]
    assert fetched == ([] if full_batch else [32] * (2 * 20))
