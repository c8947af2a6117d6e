"""The support's inputs taken from ``GmmKernel``'s kept record.

Inside ``run_scope`` the model keeps its two most recent value-only
evaluations; in the loop these are the pushed support ``T'`` and the birth
candidates ``C`` scored against it. An evaluation at ``t == support`` whose
``t`` is ``T'`` followed by rows of ``C`` takes ``K(T', T')``, the born rows
of ``K(C, T')``, and for an exact evaluation the kept data-side rows and
means, and builds only ``K(C_born, C_born)``. A mini-batch evaluation keeps
the sample rows it fetched, so the candidates, scored on the pushed
support's batch, fetch none. Gaussian entries and rows are pair-local, so a
warm model must give the bits of a fresh one, and whole runs the rows of runs
that keep nothing. Every other evaluation builds fresh, and nothing is kept
once ``runner.run`` returns or raises.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.kernels as kernels
import conicswarm.runner as runner
from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.kernels import GmmKernel
from conicswarm.objective import loss
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


REAL_DENSITY = kernels.gauss_density


def fresh_kernel(model, a, b):
    return REAL_DENSITY(a, b, model._kvar, model.dim)


@pytest.fixture
def built(monkeypatch):
    """Every ``gauss_density`` call as ``(var, |a|, |b|)``."""
    log = []

    def counting(a, b, var, dim):
        log.append((var, a.shape[0], b.shape[0]))
        return REAL_DENSITY(a, b, var, dim)

    monkeypatch.setattr(kernels, "gauss_density", counting)
    return log


def data_rows(log, model, since=0):
    """Data-side density rows built since ``log[since]``."""
    return sum(a for var, a, _ in log[since:] if var == model._yvar)


def kernel_entries(log, model, since=0):
    """Kernel entries built since ``log[since]``."""
    return sum(a * b for var, a, b in log[since:] if var == model._kvar)


@pytest.fixture
def evaluations(monkeypatch, built):
    """Per certificate evaluation: ``(method, |t|, |support|, data-side rows
    built, kernel entries built)``."""
    out = []
    for name in ("certificate_field", "certificate_values"):
        def counted(self, t, support, coef, idx=None, _real=getattr(GmmKernel, name), _name=name):
            since = len(built)
            result = _real(self, t, support, coef, idx)
            out.append((_name, len(t), len(support), data_rows(built, self, since),
                        kernel_entries(built, self, since)))
            return result

        monkeypatch.setattr(GmmKernel, name, counted)
    return out


def loop_config(init, full_batch, **kw):
    base = dict(init_swarm=init, k_iters=40, alpha=0.5, plan=FixedPlan(0.02, 32, 0.05),
                full_batch=full_batch, birth_death=True,
                death_rule=DeathRule(kind="ratio", tau_death=5.0),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=4),
                seed=9, trace_cadence=10)
    base.update(kw)
    return RunConfig(**base)


#: a death rule that never fires
NO_DEATHS = DeathRule(kind="ratio", tau_death=1e300)


def rows(trace):
    return [(r.k, r.loss, r.tv, r.particles, r.births, r.deaths, r.min_cert, r.delta,
             r.cert_norm_sq) for r in trace]


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_warm_model_gives_fresh_bits(seed, data):
    problem = make_gmm_problem(seed=3)
    g = rng(seed)
    warm, fresh = problem.model, GmmKernel(problem.model.data, problem.model.tau)
    batches = st.sampled_from([None] + [g.integers(0, problem.model.n_samples, size=32)
                                        for _ in range(2)])
    pushed = problem.domain.sample_uniform(g, size=int(g.integers(0, 7)))
    cand = problem.domain.sample_uniform(g, size=4)
    coef = g.uniform(-1.0, 1.0, size=len(pushed))
    born = st.lists(st.integers(0, 3), unique=True).map(sorted)
    with contextlib.nullcontext() if data.draw(st.booleans()) else warm.run_scope():
        idx = data.draw(batches)
        warm.certificate_values(pushed, pushed, coef, idx)
        warm.certificate_values(cand, pushed, coef, idx)
        for _ in range(3):
            shape = data.draw(st.sampled_from(["births", "death", "unrelated", "arbitrary"]))
            if shape == "births":
                t = np.vstack([pushed, cand[data.draw(born)]])
            elif shape == "death":
                alive = data.draw(st.lists(st.booleans(), min_size=len(pushed),
                                           max_size=len(pushed)))
                t = np.vstack([pushed[np.array(alive, dtype=bool)], cand[data.draw(born)]])
            elif shape == "unrelated":
                t = problem.domain.sample_uniform(g, size=int(g.integers(1, 7)))
            else:
                pool = np.vstack([pushed, cand])
                t = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                            max_size=10))]
            c = g.uniform(-1.0, 1.0, size=len(t))
            idx = data.draw(batches)
            call = data.draw(st.sampled_from(["field", "values", "candidates", "y"]))
            if call == "field":
                for got, want in zip(warm.certificate_field(t, t, c, idx),
                                     fresh.certificate_field(t, t, c, idx)):
                    assert same_bits(got, want)
            elif call == "values":
                assert same_bits(warm.certificate_values(t, t, c, idx),
                                 fresh.certificate_values(t, t, c, idx))
            elif call == "candidates":
                assert same_bits(warm.certificate_values(t, pushed, coef, idx),
                                 fresh.certificate_values(t, pushed, coef, idx))
            else:
                assert same_bits(warm.y_inner_many(t, idx), fresh.y_inner_many(t, idx))


@pytest.mark.parametrize("full_batch", [True, False])
def test_assembled_kernel_has_fresh_bits(monkeypatch, full_batch):
    # whole runs with deaths and births, beta = 0 and > 0, equal runs that
    # keep nothing, row for row, and every reused input has fresh bits
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    real, reused = GmmKernel._reuse, []

    def checked(self, t, support):
        got = real(self, t, support)
        if got is not None:
            k, data_side, means = got
            assert same_bits(k, fresh_kernel(self, t, t))
            if data_side is not None:
                want = REAL_DENSITY(t, self.data, self._yvar, self.dim)
                assert same_bits(data_side, want) and same_bits(means, want.mean(axis=1))
            reused.append(len(t))
        return got

    configs = [loop_config(init, full_batch, k_iters=60, plan=FixedPlan(0.02, 32, beta),
                           death_rule=DeathRule())
               for beta in (0.0, 0.05)]
    monkeypatch.setattr(GmmKernel, "_reuse", checked)
    results = [run(config, problem) for config in configs]
    assert len(reused) >= 40
    monkeypatch.setattr(GmmKernel, "run_scope", lambda self: contextlib.nullcontext())
    for config, res in zip(configs, results):
        assert res.total_births > 0 and res.total_deaths > 0
        again = run(config, problem)
        assert rows(res.trace) == rows(again.trace)
        for name in ("weights", "signs", "positions"):
            assert same_bits(getattr(res.final_swarm, name), getattr(again.final_swarm, name))


@pytest.mark.parametrize("full_batch", [True, False])
def test_run_without_deaths_builds_no_support_kernel(evaluations, full_batch):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, full_batch, death_rule=NO_DEATHS), problem)
    assert res.total_deaths == 0 and res.total_births > 0
    fields = [e for e in evaluations if e[0] == "certificate_field"]
    sizes = [size for _, _, size, _, _ in fields]
    assert sizes == [rec.particles for rec in res.trace[:-1]]
    # the first support has nothing kept; later, only the born candidates
    # against themselves, and in a full-batch run no data-side rows
    assert [entries for *_, entries in fields] == \
        [sizes[0] ** 2] + [rec.births ** 2 for rec in res.trace[1:-1]]
    assert [built for *_, built, _ in fields] == \
        ([sizes[0]] + [0] * (len(sizes) - 1) if full_batch else sizes)


def test_support_evaluation_builds_no_rows(built):
    # the losses at k = 0 and k = K and the first support build p_0, p_K and
    # p_0 rows; then each iteration builds only its pushed support's p_k rows
    # and the q = 4 candidates'
    problem = make_gmm_problem(seed=7, n=400)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, True, death_rule=NO_DEATHS, trace_cadence=1000), problem)
    p = [rec.particles for rec in res.trace]
    assert res.total_deaths == 0 and res.total_births > 0
    assert data_rows(built, problem.model) == 2 * p[0] + sum(pk + 4 for pk in p[:-1]) + p[-1]


def test_pushed_evaluation_at_beta_zero_builds_no_rows(evaluations):
    # at beta = 0 the pushed support is the support, so it too is assembled
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, True, death_rule=NO_DEATHS, plan=FixedPlan(0.02, 32, 0.0)),
              problem)
    assert res.total_births > 0
    # each iteration evaluates its support, its pushed support, then the candidates
    pushed = [evaluations[i + 1] for i, e in enumerate(evaluations) if e[0] == "certificate_field"]
    assert len(pushed) == 40
    assert [(built, entries) for *_, built, entries in pushed[1:]] == \
        [(0, rec.births ** 2) for rec in res.trace[1:-1]]


def scoped_pair(model, domain, idx=None):
    """Keeps ``T'`` against itself and ``C`` against ``T'`` as the loop does;
    returns T', C."""
    pushed = domain.sample_uniform(rng(1), size=5)
    cand = domain.sample_uniform(rng(2), size=4)
    coef = np.linspace(0.1, 0.5, 5)
    model.certificate_values(pushed, pushed, coef, idx)
    model.certificate_values(cand, pushed, coef, idx)
    return pushed, cand


def support_builds(built, model, support):
    """Data-side rows and kernel entries an exact support evaluation builds."""
    since = len(built)
    model.certificate_field(support, support, np.ones(len(support)))
    return data_rows(built, model, since), kernel_entries(built, model, since)


def test_kept_support_with_births_builds_only_the_born_block(built):
    problem = make_gmm_problem(seed=3)
    model = problem.model
    with model.run_scope():
        pushed, cand = scoped_pair(model, problem.domain)
        support = np.vstack([pushed, cand[[3, 1]]])
        assert support_builds(built, model, support) == (0, 4)
        assert same_bits(model._reuse(support, support)[0], fresh_kernel(model, support, support))
        assert support_builds(built, model, pushed) == (0, 0)
        # kept mini-batch evaluations lend their kernel blocks, not their rows
        pushed, cand = scoped_pair(model, problem.domain, np.arange(10))
        assert support_builds(built, model, np.vstack([pushed, cand[[0]]])) == (6, 1)


@pytest.mark.parametrize("case", ["death", "unrelated", "stranger", "prefix", "unscoped"])
def test_other_supports_are_built_fresh(built, case):
    problem = make_gmm_problem(seed=3)
    model = problem.model
    with contextlib.nullcontext() if case == "unscoped" else model.run_scope():
        pushed, cand = scoped_pair(model, problem.domain)
        support = {
            "death": np.vstack([pushed[1:], cand[[0]]]),
            "unrelated": problem.domain.sample_uniform(rng(4), size=6),
            "stranger": np.vstack([pushed, problem.domain.sample_uniform(rng(5), size=1)]),
            "prefix": pushed[:4],
            "unscoped": np.vstack([pushed, cand[[0]]]),
        }[case]
        assert support_builds(built, model, support) == (len(support), len(support) ** 2)


@pytest.mark.parametrize("idx", [None, np.arange(40)])
def test_fresh_support_kernel_builds_the_upper_triangle(built, idx):
    # a pushed evaluation, a support after a death and the loss build K(T, T)
    # as row blocks of ``block`` rows against themselves and the rows after
    # them: p (p + 1) / 2 entries and fewer than p * block more, not p^2
    problem = make_gmm_problem(seed=3)
    model = problem.model
    p = 400
    block = kernels._SELF_BLOCK_ENTRIES // p
    bound = p * (p + 1) // 2 + p * block
    pushed = problem.domain.sample_uniform(rng(4), size=p)
    coef = np.linspace(0.1, 1.0, p)
    with model.run_scope():
        since = len(built)
        vals = model.certificate_values(pushed, pushed, coef, idx)
        assert kernel_entries(built, model, since) <= bound < p**2
        since = len(built)
        model.certificate_field(pushed[1:], pushed[1:], coef[1:], idx)  # after a death
        assert kernel_entries(built, model, since) <= bound
    since = len(built)
    loss(problem, ParticleSwarm(coef, np.ones(p), pushed))
    assert kernel_entries(built, model, since) <= bound
    assert same_bits(vals, fresh_kernel(model, pushed, pushed) @ coef
                     - model.y_inner_many(pushed, idx))


def test_mini_batch_unscoped_and_loss_calls_keep_nothing(built):
    problem = make_gmm_problem(seed=4)
    model = problem.model
    pts = problem.domain.sample_uniform(rng(6), size=3)
    for _ in range(2):
        model.certificate_values(pts, pts, np.ones(3))
    assert data_rows(built, model) == 6
    with model.run_scope():
        for _ in range(2):
            model.certificate_values(pts, pts, np.ones(3), np.arange(model.n_samples))
        assert data_rows(built, model) == 12
        model.certificate_values(pts, pts, np.ones(3))
        assert data_rows(built, model) == 15
        for _ in range(2):
            model.y_inner_many(pts)  # as the loss does: always the blocked means
        assert data_rows(built, model) == 21
        model.certificate_values(pts, pts, np.ones(3))  # the kept pushed support
        assert data_rows(built, model) == 21


def test_batched_field_fetches_the_batch_once(monkeypatch):
    problem = make_gmm_problem(seed=4)
    model = problem.model
    real, fetched = GmmKernel._batch, []
    monkeypatch.setattr(GmmKernel, "_batch", lambda self, idx: fetched.append(idx) or real(self, idx))
    pts = problem.domain.sample_uniform(rng(6), size=3)
    model.certificate_field(pts, pts, np.ones(3), np.arange(10))
    assert len(fetched) == 1


def test_mini_batch_iteration_fetches_two_batches():
    # the candidates are scored on the pushed support's batch, fetched once
    problem = make_gmm_problem(seed=7)
    model = problem.model
    model.y_norm_sq  # its cell list indexes the data too
    fetched = []

    class Samples(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                fetched.append(len(key))
            return np.asarray(np.ndarray.__getitem__(self, key))

    model.data = model.data.view(Samples)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, False), problem)
    assert res.total_births > 0
    assert fetched == [32] * (2 * 40)


def test_kept_kernels_are_read_only_and_dropped_after_abort(monkeypatch):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    real, seen = runner.weight_push_update, []

    def failing(problem_, swarm, certs, grads, rates):
        kept = problem.model._kept
        seen.append(len(kept))
        assert all(not a.flags.writeable for e in kept for a in e[2:] if a is not None)
        assert all(e[3] is not None for e in kept)  # full-batch: rows kept too
        if len(seen) == 3:
            raise ValueError("stop here")
        return real(problem_, swarm, certs, grads, rates)

    monkeypatch.setattr(runner, "weight_push_update", failing)
    with pytest.raises(RunAborted):
        run(loop_config(init, True), problem)
    assert seen == [0, 2, 2]
    assert problem.model._kept is None


def test_nothing_kept_after_run(built):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, True), problem)
    assert problem.model._kept is None
    since = len(built)
    positions = res.final_swarm.positions
    problem.model.certificate_field(positions, positions, np.ones(len(positions)))
    assert data_rows(built, problem.model, since) == len(positions)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nothing_kept_after_abort():
    # a light particle on a cluster has a negative certificate, and alpha = 1e6
    # sends the weight update past the float range
    problem = make_gmm_problem(seed=7)
    init = ParticleSwarm(np.full(1, 1e-6), np.ones(1), np.array([[2.5, 0.0]]))
    with pytest.raises(RunAborted):
        run(loop_config(init, True, alpha=1e6), problem)
    assert problem.model._kept is None


def test_trace_does_not_depend_on_the_cadence():
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    for full_batch in (True, False):
        config = loop_config(init, full_batch, k_iters=60)
        fine = run(dataclasses.replace(config, trace_cadence=1), problem).trace
        coarse = run(dataclasses.replace(config, trace_cadence=10), problem).trace
        assert len(fine) == len(coarse) == 61
        for a, b in zip(fine, coarse):
            assert (a.k, a.tv, a.particles, a.births, a.deaths, a.min_cert, a.cert_norm_sq) == \
                (b.k, b.tv, b.particles, b.births, b.deaths, b.min_cert, b.cert_norm_sq)
            if b.loss is not None:
                assert a.loss == b.loss
