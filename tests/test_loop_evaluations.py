"""The loop evaluations of every kernel model, under one contract.

Each iteration scores the pushed measure ``(T', c)`` twice on one batch,
``pushed_values`` at ``T'`` and ``candidate_values`` at the birth
candidates ``C`` through ``ev``, and the next ``support_field`` takes ``ev``
with the survivor mask ``keep`` of ``T = [T'[keep]; C[born]]``. For the
synthetic model (signed and unsigned), the mixture and the ReLU network,
exact and mini-batch: (a) each call has the bits of a fresh model's
stateless ``certificate_values`` or ``certificate_field``; (b) so does
every loop evaluation of runs with births and deaths at beta = 0 and > 0,
whose rows and final swarms are those of ``KernelModel``'s stateless
evaluations; (c) the model's attributes are the same objects after a run,
during and after an aborted one and after a weight overflow; (d) the trace
does not depend on the cadence; (e) no call after ``pushed_values`` writes
its ``ev``; (f) (a) holds for the two cases that random masks and fresh
coefficients rarely or never draw: an unchanged swarm with ``ev``'s own
coefficients, and deaths among 200 points. CI runs this again with OpenBLAS
on two threads.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.runner as runner
from conicswarm import verify
from conicswarm.kernels import KernelModel
from conicswarm.runner import RunAborted, run
from conicswarm.schedules import FixedPlan
from conicswarm.swarm import ParticleSwarm
from helpers import attributes, loop_config, rng, rows, same_bits

pytestmark = pytest.mark.exactness

BUILDERS = {
    "synthetic-signed": functools.partial(verify.make_synthetic_problem, seed=4),
    "synthetic-unsigned": functools.partial(verify.make_synthetic_problem, seed=4, signed=False),
    "gmm": functools.partial(verify.make_gmm_problem, seed=7),
    "relu": functools.partial(verify.make_relu_problem, seed=3),
}
#: one problem per model whose model every example of (a) warms further
WARM = {name: build() for name, build in BUILDERS.items()}

each_model = pytest.mark.parametrize("name", BUILDERS)
each_batching = pytest.mark.parametrize("full_batch", [True, False])


@each_model
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_warm_model_gives_fresh_bits(name, seed, data):
    problem = WARM[name]
    warm, fresh = problem.model, BUILDERS[name]().model
    g, exact = rng(seed), data.draw(st.booleans())
    # 70 and 200 points take ``_sqdist``'s product path and ``_gauss_self``'s
    # blocks, where the subsets a support field assembles take neither
    size = data.draw(st.one_of(st.integers(0, 7), st.sampled_from([70, 200])))
    pushed = problem.domain.sample_uniform(g, size=size)
    cand = problem.domain.sample_uniform(g, size=data.draw(st.integers(1, 5)))
    coef = g.uniform(-1.0, 1.0, size=size)
    idx = None if exact else g.integers(0, warm.n_samples, size=32)
    vals, ev = warm.pushed_values(pushed, coef, idx)
    assert same_bits(vals, fresh.certificate_values(pushed, pushed, coef, idx))
    assert same_bits(warm.candidate_values(ev, cand),
                     fresh.certificate_values(cand, pushed, coef, idx))

    def mask(n):  # all, none or any
        return np.array(data.draw(st.sampled_from([[True] * n, [False] * n])
                                  | st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)

    keep, born = mask(size), mask(len(cand))
    t = np.vstack([pushed[keep], cand[born]])
    c = g.uniform(-1.0, 1.0, size=len(t))
    idx = None if exact else g.integers(0, warm.n_samples, size=32)
    for got, want in zip(warm.support_field(t, c, idx, ev, keep),
                         fresh.certificate_field(t, t, c, idx)):
        assert same_bits(got, want)


class Stateless:
    """The model with stateless loop evaluations: ``ev`` is the operands, the
    values come from ``certificate_values`` and the support field is
    ``KernelModel``'s."""

    support_field = KernelModel.support_field

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def pushed_values(self, support, coef, idx=None):
        return self.model.certificate_values(support, support, coef, idx), (support, coef, idx)

    def candidate_values(self, ev, t):
        return self.model.certificate_values(t, *ev)


class Checked(Stateless):
    """The model's own loop evaluations, each checked against ``fresh``'s
    stateless call, counting the support fields that read an ``ev``."""

    def __init__(self, model, fresh):
        super().__init__(model)
        self.fresh, self.assembled, self.last = fresh, 0, None

    def pushed_values(self, support, coef, idx=None):
        vals, ev = self.model.pushed_values(support, coef, idx)
        assert same_bits(vals, self.fresh.certificate_values(support, support, coef, idx))
        self.last = support, coef, idx
        return vals, ev

    def candidate_values(self, ev, t):
        vals = self.model.candidate_values(ev, t)
        assert same_bits(vals, self.fresh.certificate_values(t, *self.last))
        return vals

    def support_field(self, t, coef, idx, ev, keep):
        got = self.model.support_field(t, coef, idx, ev, keep)
        for g, w in zip(got, self.fresh.certificate_field(t, t, coef, idx)):
            assert same_bits(g, w)
        self.assembled += ev is not None
        return got


def start(name):
    problem = BUILDERS[name]()
    return problem, verify.random_swarm(problem, rng(8), max_particles=6)


@each_model
@each_batching
@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_run_has_the_bits_of_stateless_evaluations(name, full_batch, beta):
    problem, init = start(name)
    config = loop_config(init, full_batch, k_iters=60, plan=FixedPlan(0.5, 0.02, 32, beta))
    checked = Checked(problem.model, BUILDERS[name]().model)
    res = run(config, dataclasses.replace(problem, model=checked))
    assert res.total_births > 0 and res.total_deaths > 0
    assert checked.assembled == config.k_iters - 1
    bare = run(config, dataclasses.replace(problem, model=Stateless(problem.model)))
    assert rows(res.trace) == rows(bare.trace)
    for field in ("weights", "signs", "positions"):
        assert same_bits(getattr(res.final_swarm, field), getattr(bare.final_swarm, field))


def overflowing(problem):
    """One light particle of the observation's sign where ``|<y, phi_t>|``
    peaks among 64 points: its certificate is about ``kappa - |<y, phi_t>|
    < 0``, so alpha = 1e6 sends its weight past the float range."""
    points = problem.domain.sample_uniform(rng(3), size=64)
    y = problem.model.y_inner_many(points)
    i = int(np.argmax(np.abs(y) if problem.signed else y))
    return ParticleSwarm(np.full(1, 1e-6), np.sign(y[[i]]), points[[i]])


@each_model
@each_batching
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nothing_kept_after_run_abort_and_overflow(monkeypatch, name, full_batch):
    problem, init = start(name)
    model = problem.model
    model.y_norm_sq  # the one cached constant
    light = overflowing(problem)
    before = attributes(model)
    run(loop_config(init, full_batch), problem)
    assert attributes(model) == before
    with pytest.raises(RunAborted, match="overflowed"):
        run(loop_config(light, full_batch, plan=FixedPlan(1e6, 0.02, 32, 0.05)), problem)
    assert attributes(model) == before
    real, seen = runner.weight_push_update, []

    def failing(*args):
        seen.append(attributes(model) == before)
        if len(seen) == 3:
            raise ValueError("stop here")
        return real(*args)

    monkeypatch.setattr(runner, "weight_push_update", failing)
    with pytest.raises(RunAborted, match="iteration 3: stop here"):
        run(loop_config(init, full_batch), problem)
    assert seen == [True] * 3
    assert attributes(model) == before


@each_model
@each_batching
def test_trace_does_not_depend_on_the_cadence(name, full_batch):
    problem, init = start(name)
    config = loop_config(init, full_batch, k_iters=60)
    fine, coarse = (run(dataclasses.replace(config, trace_cadence=c), problem).trace
                    for c in (1, 10))
    assert len(fine) == len(coarse) == 61
    assert rows(fine, "loss", "delta") == rows(coarse, "loss", "delta")
    assert all(a.loss == b.loss for a, b in zip(fine, coarse) if b.loss is not None)


def contents(ev):
    """``ev``'s keys and nesting, with each array's dtype, shape and bytes."""
    if isinstance(ev, dict):
        return {key: contents(value) for key, value in ev.items()}
    if isinstance(ev, tuple):
        return tuple(contents(value) for value in ev)
    if ev is None:
        return None
    ev = np.asarray(ev)
    return ev.dtype.str, ev.shape, ev.tobytes()


@each_model
@each_batching
def test_no_loop_evaluation_writes_ev(name, full_batch):
    # the birth step and the next support field read the pushed evaluation;
    # neither adds to it or overwrites it, whatever died or was born
    problem = WARM[name]
    model, g = problem.model, rng(5)
    pushed = problem.domain.sample_uniform(g, size=6)
    cand = problem.domain.sample_uniform(g, size=4)

    def batch():
        return None if full_batch else g.integers(0, model.n_samples, size=32)

    _, ev = model.pushed_values(pushed, g.uniform(-1.0, 1.0, size=6), batch())
    before = contents(ev)
    model.candidate_values(ev, cand)
    assert contents(ev) == before
    for keep, born in [(np.ones(6, dtype=bool), cand[:0]),
                       (np.ones(6, dtype=bool), cand[1:3]),
                       (np.array([True, False, True, True, False, True]), cand[:2]),
                       (np.zeros(6, dtype=bool), cand)]:
        t = np.vstack([pushed[keep], born])
        model.support_field(t, g.uniform(-1.0, 1.0, size=len(t)), batch(), ev, keep)
        assert contents(ev) == before


@each_model
@each_batching
@pytest.mark.parametrize("size", [6, 200])
def test_support_field_of_an_unchanged_swarm_has_fresh_bits(name, full_batch, size):
    # nothing died, nothing was born and the coefficients are ``ev``'s own,
    # as in most iterations: the mixture then reads ``ev``'s product
    # ``K(T', T') c`` in place of its own; a fresh ``c`` is formed afresh
    problem = WARM[name]
    model, fresh, g = problem.model, BUILDERS[name]().model, rng(11)
    pushed = problem.domain.sample_uniform(g, size=size)
    coef = g.uniform(-1.0, 1.0, size=size)
    idx = None if full_batch else g.integers(0, model.n_samples, size=32)
    _, ev = model.pushed_values(pushed, coef, idx)
    keep = np.ones(size, dtype=bool)
    for c in (coef, coef.copy(), g.uniform(-1.0, 1.0, size=size)):
        idx = None if full_batch else g.integers(0, model.n_samples, size=32)
        for got, want in zip(model.support_field(pushed, c, idx, ev, keep),
                             fresh.certificate_field(pushed, pushed, c, idx)):
            assert same_bits(got, want)


@each_model
@each_batching
@pytest.mark.parametrize("born", [0, 2])
def test_support_field_after_deaths_at_200_points_has_fresh_bits(name, full_batch, born):
    # 200 pushed points take ``_sqdist``'s product path and ``_gauss_self``'s
    # blocks; the mixture gathers the survivors' block of ``K(T', T')``,
    # which must stay C-ordered for its products to sum as a fresh build's
    problem = WARM[name]
    model, fresh, g = problem.model, BUILDERS[name]().model, rng(12)
    pushed = problem.domain.sample_uniform(g, size=200)
    cand = problem.domain.sample_uniform(g, size=2)
    idx = None if full_batch else g.integers(0, model.n_samples, size=32)
    _, ev = model.pushed_values(pushed, g.uniform(-1.0, 1.0, size=200), idx)
    keep = np.ones(200, dtype=bool)
    keep[[0, 57, 58, 131, 199]] = False
    t = np.vstack([pushed[keep], cand[:born]])
    c = g.uniform(-1.0, 1.0, size=len(t))
    idx = None if full_batch else g.integers(0, model.n_samples, size=32)
    for got, want in zip(model.support_field(t, c, idx, ev, keep),
                         fresh.certificate_field(t, t, c, idx)):
        assert same_bits(got, want)
