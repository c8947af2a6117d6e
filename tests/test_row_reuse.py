"""Exact data-side rows kept by ``GmmKernel`` inside a run scope.

Inside ``run_scope`` an exact certificate evaluation keeps its density rows,
and later exact calls take the rows of points they find there. Entries are
pair-local, so a warm model must give the bits of a fresh one for every
point set: repeated, permuted, single and partly kept. Nothing is kept once
``runner.run`` returns or raises.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.kernels as kernels
from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.kernels import GmmKernel
from conicswarm.runner import RunAborted, RunConfig, run
from conicswarm.schedules import FixedPlan
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem, random_swarm


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and \
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


#: samples of the counted problems; no swarm here grows that large
DATA_ROWS = 400


@pytest.fixture
def rows_built(monkeypatch):
    """Counts the data-side density rows built from scratch."""
    built = {"rows": 0}
    real = kernels.gauss_density

    def counting(a, b, var, dim):
        if b.shape[0] == DATA_ROWS:
            built["rows"] += a.shape[0]
        return real(a, b, var, dim)

    monkeypatch.setattr(kernels, "gauss_density", counting)
    return built


def full_batch_config(init, **kw):
    base = dict(init_swarm=init, k_iters=40, alpha=0.5, plan=FixedPlan(0.02, 256, 0.05),
                full_batch=True, birth_death=True,
                death_rule=DeathRule(kind="ratio", tau_death=5.0),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=4),
                seed=9, trace_cadence=10)
    base.update(kw)
    return RunConfig(**base)


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_warm_model_gives_fresh_bits(seed, data):
    problem = make_gmm_problem(seed=3)
    g = rng(seed)
    warm, fresh = problem.model, GmmKernel(problem.model.data, problem.model.tau)
    support = problem.domain.sample_uniform(g, size=5)
    coef = g.uniform(-1.0, 1.0, size=5)
    earlier = [problem.domain.sample_uniform(g, size=int(g.integers(1, 7))) for _ in range(3)]
    new = problem.domain.sample_uniform(g, size=4)
    pool = np.vstack(earlier + [new])
    with warm.run_scope():
        for i, pts in enumerate(earlier):
            if i % 2:
                warm.certificate_field(pts, support, coef)
            else:
                warm.certificate_values(pts, support, coef)
        for _ in range(4):
            pick = data.draw(st.one_of(
                st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12),
                st.sampled_from([list(range(len(pool) - len(new) - len(earlier[-1]),
                                            len(pool) - len(new)))])))
            t = pool[pick]
            call = data.draw(st.sampled_from(["field", "values", "y"]))
            if call == "field":
                for got, want in zip(warm.certificate_field(t, support, coef),
                                     fresh.certificate_field(t, support, coef)):
                    assert same_bits(got, want)
            elif call == "values":
                assert same_bits(warm.certificate_values(t, support, coef),
                                 fresh.certificate_values(t, support, coef))
            else:
                assert same_bits(warm.y_inner_many(t), fresh.y_inner_many(t))


def test_kept_rows_are_reused_and_read_only():
    problem = make_gmm_problem(seed=4)
    model = problem.model
    pts = problem.domain.sample_uniform(rng(5), size=6)
    with model.run_scope():
        model.certificate_values(pts, pts, np.ones(6))
        first = model._density(pts, None)[0]
        assert first is model._density(pts.copy(), None)[0]  # the kept array itself
        assert not first.flags.writeable
        assert same_bits(model._density(pts[[5, 0, 0]], None)[0], first[[5, 0, 0]])


def test_a_repeated_evaluation_does_not_evict_the_other(rows_built):
    # the two most recent distinct evaluations stay kept: A, B, B keeps A
    problem = make_gmm_problem(seed=4, n=DATA_ROWS)
    model = problem.model
    a = problem.domain.sample_uniform(rng(7), size=5)
    b = problem.domain.sample_uniform(rng(8), size=3)
    with model.run_scope():
        for pts in (a, b, b):
            model.certificate_values(pts, pts, np.ones(len(pts)))
        assert rows_built["rows"] == 8
        model.certificate_values(a, a, np.ones(5))
        assert rows_built["rows"] == 8


def test_mini_batch_unscoped_and_loss_calls_keep_nothing(rows_built):
    problem = make_gmm_problem(seed=4, n=DATA_ROWS)
    model = problem.model
    pts = problem.domain.sample_uniform(rng(6), size=3)
    for _ in range(2):
        model.certificate_values(pts, pts, np.ones(3))
    assert rows_built["rows"] == 6
    with model.run_scope():
        for _ in range(2):
            model.certificate_values(pts, pts, np.ones(3), np.arange(DATA_ROWS))
        assert rows_built["rows"] == 12
        for _ in range(2):
            model.y_inner_many(pts)  # as the loss does: reads kept rows, adds none
        assert rows_built["rows"] == 18
        model.certificate_values(pts, pts, np.ones(3))
        model.y_inner_many(pts)
        assert rows_built["rows"] == 21


def test_support_evaluation_builds_no_rows(rows_built):
    # each iteration builds only the pushed support and the candidates; the
    # next support is made of those points, and the loss reads them
    problem = make_gmm_problem(seed=7, n=DATA_ROWS)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(full_batch_config(init, trace_cadence=1), problem)
    counts = [rec.particles for rec in res.trace]
    assert rows_built["rows"] == 2 * counts[0] + sum(p + 4 for p in counts[:-1])
    assert rows_built["rows"] < sum(2 * p + 4 for p in counts[:-1])


def test_nothing_kept_after_run(rows_built):
    problem = make_gmm_problem(seed=7, n=DATA_ROWS)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(full_batch_config(init), problem)
    assert problem.model._kept is None and problem.model._kept_kernels is None
    before = rows_built["rows"]
    problem.model.y_inner_many(res.final_swarm.positions)
    assert rows_built["rows"] == before + len(res.final_swarm)


def test_nothing_kept_after_abort():
    # a light particle on a cluster has a negative certificate, and alpha = 1e6
    # sends the weight update past the float range
    problem = make_gmm_problem(seed=7)
    init = ParticleSwarm(np.full(1, 1e-6), np.ones(1), np.array([[2.5, 0.0]]))
    with pytest.raises(RunAborted):
        run(full_batch_config(init, alpha=1e6), problem)
    assert problem.model._kept is None


def test_trace_does_not_depend_on_the_cadence():
    # mini-batch runs keep kernel blocks only, full-batch ones data-side rows too
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    for full_batch in (True, False):
        config = full_batch_config(init, k_iters=60, full_batch=full_batch)
        fine = run(dataclasses.replace(config, trace_cadence=1), problem).trace
        coarse = run(dataclasses.replace(config, trace_cadence=10), problem).trace
        assert len(fine) == len(coarse) == 61
        for a, b in zip(fine, coarse):
            assert (a.k, a.tv, a.particles, a.births, a.deaths, a.min_cert, a.cert_norm_sq) == \
                (b.k, b.tv, b.particles, b.births, b.deaths, b.min_cert, b.cert_norm_sq)
            if b.loss is not None:
                assert a.loss == b.loss
