"""The loop evaluations of every kernel model, under one contract.

Each iteration scores the pushed measure ``(T', c)`` on one batch at ``T'``
and at the birth candidates ``C`` in one ``pushed_values`` call, and the
next ``support_field`` takes its ``ev`` with the one mask ``keep`` over
``[T'; C]`` that selects ``T = [T'; C][keep]``: the survivors, then the born
candidates. For the synthetic model (signed and unsigned), the mixture and
the ReLU network, exact and mini-batch: (a) each call has the bits of a
fresh model's stateless ``certificate_values`` or ``certificate_field``,
the mixture's too, although it builds its kernel entries and density rows
in expanded products of other shapes; (b) every loop evaluation of runs
with births and deaths at beta = 0 and > 0 has those bits, and the runs' rows
and final swarms are those of the stateless evaluations; (c) the model's
attributes are the same objects after a run, during and after an aborted
one and after a weight overflow; (d) the trace does not depend on the
cadence; (e) no call after ``pushed_values`` writes its ``ev``; (f) each
call has the stateless call's bits in the two cases that random masks and
fresh coefficients rarely or never draw: an unchanged swarm with ``ev``'s
own coefficients, and deaths among 200 points; (g) (a) holds for ReLU
where every evaluation spans several row blocks. For the mixture, (a), (b)
and (f) rest on each entry of an expanded product having the same bits in
every product that holds its row and column (``kernels._expanded_product``,
``test_row_slices.py``). CI runs this again with OpenBLAS on two threads.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.runner as runner
from conicswarm import verify
from conicswarm.domain import Ball, Box
from conicswarm.gaussian import gauss_density
from conicswarm.kernels import GmmKernel, ReluKernel
from conicswarm.runner import RunAborted, run
from conicswarm.schedules import FixedPlan
from conicswarm.swarm import ParticleSwarm
from conicswarm.workspace import Workspace
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
    # 70 and 200 points take ``_sqdist``'s product path, where the subsets a
    # support field assembles do not
    size = data.draw(st.one_of(st.integers(0, 7), st.sampled_from([70, 200])))
    pushed = problem.domain.sample_uniform(g, size=size)
    cand = problem.domain.sample_uniform(g, size=data.draw(st.integers(1, 5)))
    coef = g.uniform(-1.0, 1.0, size=size)
    idx = None if exact else g.integers(0, warm.n_samples, size=32)
    vals, at_cand, ev = warm.pushed_values(pushed, coef, idx, cand)
    assert same_bits(vals, fresh.certificate_values(pushed, pushed, coef, idx))
    assert same_bits(at_cand, fresh.certificate_values(cand, pushed, coef, idx))

    def mask(n):  # all, none or any
        return np.array(data.draw(st.sampled_from([[True] * n, [False] * n])
                                  | st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)

    keep, born = mask(size), mask(len(cand))
    t = np.vstack([pushed[keep], cand[born]])
    c = g.uniform(-1.0, 1.0, size=len(t))
    idx = None if exact else g.integers(0, warm.n_samples, size=32)
    for got, want in zip(warm.support_field(t, c, idx, ev, np.concatenate([keep, born])),
                         fresh.certificate_field(t, t, c, idx)):
        assert same_bits(got, want)


@pytest.mark.parametrize("far", [False, True])
def test_mixture_products_of_one_domain_take_one_form(far):
    # the mixture's expanded products hold their bound only within a limit
    # about the samples' centre. A domain within it (corners at 0.99 of it)
    # puts every product of a run on the expanded form; one past it
    # (corners 0.2 short of twice it, so a far candidate and a survivor 1
    # out pass the kernel's bound together while the survivors and a near
    # newborn do not) puts every product on exact differences. Either way
    # a support field whose far candidate was rejected has the bits of a
    # fresh field, and the kernel has the bits of its form.
    g = rng(12)
    data = g.standard_normal((300, 2))
    free = GmmKernel(data, 0.3)
    corner = (2.0 * free._limit - 0.2 if far else 0.99 * free._limit) / np.sqrt(2.0)
    domain = Box(free._center - corner, free._center + corner)
    model = GmmKernel(data, 0.3, domain)
    assert (model._limit < 0.0) == far
    pushed = free._center + np.vstack([[1.0, 0.0], g.uniform(-0.5, 0.5, size=(11, 2))])
    cand = np.vstack([domain.upper, free._center + 0.3])
    coef = g.uniform(0.0, 1.0, size=12)
    *_, ev = model.pushed_values(pushed, coef, None, cand)
    keep = np.array([True] * 12 + [False, True])
    t = np.vstack([pushed, cand[1:]])
    c = g.uniform(0.0, 1.0, size=13)
    for got, want in zip(model.support_field(t, c, None, ev, keep),
                         model.certificate_field(t, t, c)):
        assert same_bits(got, want)
    want = gauss_density(t, t, model._kvar) if far else free._kernel(t, t)
    assert same_bits(model._kernel(t, t), want)


class Stateless:
    """The model with stateless loop evaluations: there is no ``ev``, the
    values come from ``certificate_values`` and the support field is
    ``certificate_field``."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def pushed_values(self, support, coef, idx, cand, ws=None):
        return (self.model.certificate_values(support, support, coef, idx),
                self.model.certificate_values(cand, support, coef, idx), None)

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        return self.model.certificate_field(t, t, coef, idx)


class Checked(Stateless):
    """The model's own loop evaluations, with the run's workspace, each
    checked against ``fresh``'s stateless call, counting the support fields
    that read an ``ev``."""

    def __init__(self, model, fresh):
        super().__init__(model)
        self.fresh, self.assembled = fresh, 0

    def pushed_values(self, support, coef, idx, cand, ws=None):
        vals, at_cand, ev = self.model.pushed_values(support, coef, idx, cand, ws)
        assert same_bits(vals, self.fresh.certificate_values(support, support, coef, idx))
        assert same_bits(at_cand, self.fresh.certificate_values(cand, support, coef, idx))
        return vals, at_cand, ev

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        got = self.model.support_field(t, coef, idx, ev, keep, ws)
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
    # every support field after the first reads a pushed evaluation; ReLU's
    # builds everything it reads, so its ``ev`` is None
    assert checked.assembled == (0 if name == "relu" else config.k_iters - 1)
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
    # the next support field reads the pushed evaluation; it neither adds to
    # it nor overwrites it, whatever died or was born
    problem = WARM[name]
    model, g = problem.model, rng(5)
    pushed = problem.domain.sample_uniform(g, size=6)
    cand = problem.domain.sample_uniform(g, size=4)

    def batch():
        return None if full_batch else g.integers(0, model.n_samples, size=32)

    _, _, ev = model.pushed_values(pushed, g.uniform(-1.0, 1.0, size=6), batch(), cand)
    before = contents(ev)
    for keep in ([True] * 6 + [False] * 4, [True] * 6 + [False, True, True, False],
                 [True, False, True, True, False, True, True, True, False, False],
                 [False] * 6 + [True] * 4):
        keep = np.array(keep)
        t = np.vstack([pushed, cand])[keep]
        model.support_field(t, g.uniform(-1.0, 1.0, size=len(t)), batch(), ev, keep)
        assert contents(ev) == before


@each_model
@each_batching
@pytest.mark.parametrize("size", [6, 200])
def test_support_field_of_an_unchanged_swarm_has_fresh_bits(name, full_batch, size):
    # nothing died, nothing was born and the coefficients are ``ev``'s own,
    # as in most iterations: the mixture then reads ``ev``'s ``K(T', T')``
    # rows and the synthetic model its ``K(T', P')`` whole, with ``ev``'s
    # coefficients or a fresh ``c``
    problem = WARM[name]
    model, fresh, g = problem.model, BUILDERS[name]().model, rng(11)
    pushed = problem.domain.sample_uniform(g, size=size)
    coef = g.uniform(-1.0, 1.0, size=size)
    idx = None if full_batch else g.integers(0, model.n_samples, size=32)
    _, _, ev = model.pushed_values(pushed, coef, idx, pushed[:0])
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
    # 200 pushed points take ``_sqdist``'s product path; the mixture gathers
    # the kept rows' survivor columns of ``K([T'; C], T')``, which must stay
    # C-ordered for its products to sum as a fresh build's
    problem = WARM[name]
    model, fresh, g = problem.model, BUILDERS[name]().model, rng(12)
    pushed = problem.domain.sample_uniform(g, size=200)
    cand = problem.domain.sample_uniform(g, size=2)
    idx = None if full_batch else g.integers(0, model.n_samples, size=32)
    _, _, ev = model.pushed_values(pushed, g.uniform(-1.0, 1.0, size=200), idx, cand)
    keep = np.arange(202) < 200 + born
    keep[[0, 57, 58, 131, 199]] = False
    t = np.vstack([pushed, cand])[keep]
    c = g.uniform(-1.0, 1.0, size=len(t))
    idx = None if full_batch else g.integers(0, model.n_samples, size=32)
    for got, want in zip(model.support_field(t, c, idx, ev, keep),
                         fresh.certificate_field(t, t, c, idx)):
        assert same_bits(got, want)


@pytest.mark.parametrize("m, p", [(None, 300), (256, 600)], ids=["exact", "batch"])
def test_relu_loop_evaluations_past_one_row_block_have_fresh_bits(m, p):
    # n = 2,000 exactly at p = 300 (row blocks of 436 samples) and a 256-row
    # batch at p = 600 (blocks of 218): the pushed values, the candidates'
    # and the support field each sum several blocks
    g = rng(13)
    x, y = g.standard_normal((2000, 8)), g.standard_normal(2000)
    model, fresh = ReluKernel(x, y), ReluKernel(x, y)
    ball = Ball(np.zeros(9), 1.0)
    pushed, cand = ball.sample_uniform(g, size=p), ball.sample_uniform(g, size=p)
    coef = g.uniform(-1.0, 1.0, size=p)
    idx = None if m is None else g.integers(0, 2000, size=m)
    vals, at_cand, ev = model.pushed_values(pushed, coef, idx, cand)
    assert same_bits(vals, fresh.certificate_values(pushed, pushed, coef, idx))
    assert same_bits(at_cand, fresh.certificate_values(cand, pushed, coef, idx))
    keep = np.concatenate([g.random(p) < 0.9, np.arange(p) < 3])
    t = np.vstack([pushed, cand])[keep]
    c = g.uniform(-1.0, 1.0, size=len(t))
    idx = None if m is None else g.integers(0, 2000, size=m)
    for got, want in zip(model.support_field(t, c, idx, ev, keep),
                         fresh.certificate_field(t, t, c, idx)):
        assert same_bits(got, want)


@pytest.mark.parametrize("p", [300, 600])
@pytest.mark.parametrize("m", [None, 256], ids=["exact", "batch"])
def test_relu_two_pass_field_at_the_support_has_the_one_pass_bits(m, p):
    # ``certificate_field(t, t, ...)`` forms the residual r over every row
    # first, then the activations of t; ``support_field`` forms each block's
    # rows of r from that block's own activation of t. Over n = 2,000 rows
    # the exact calls span 5 (p = 300) or 10 (p = 600) row blocks, the batch
    # 1 or 2
    g = rng(14)
    x, y = g.standard_normal((2000, 8)), g.standard_normal(2000)
    model = ReluKernel(x, y)
    t = Ball(np.zeros(9), 1.0).sample_uniform(g, size=p)
    c = g.uniform(-1.0, 1.0, size=p)
    idx = None if m is None else g.integers(0, 2000, size=m)
    want = model.certificate_field(t, t, c, idx)
    for ws in (None, Workspace(), Workspace(16)):
        for got, ref in zip(model.support_field(t, c, idx, None, None, ws), want):
            assert same_bits(got, ref)
