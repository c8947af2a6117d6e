"""The support kernel assembled from the kept kernel blocks.

Inside ``run_scope`` ``GmmKernel`` keeps the kernel blocks of its two most
recent value-only evaluations, in the loop the pushed ``K(T', T')`` and the
candidates' ``K(C, T')``. ``certificate_field`` at a support that is ``T'``
followed by rows of ``C`` then builds only ``K(C_born, C_born)``. Gaussian
entries are pair-local, so the assembled matrix must equal a fresh
``kernel_matrix(T, T)`` bit for bit, and every other support (after a
death, unrelated points, outside a scope) must be built fresh.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import conicswarm.kernels as kernels
import conicswarm.runner as runner
from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.kernels import GmmKernel
from conicswarm.runner import RunAborted, RunConfig, run
from conicswarm.schedules import FixedPlan
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
def field_builds(monkeypatch):
    """Per ``certificate_field`` call: ``[support size, kernel-side entries
    built during it]``; data-side densities are not counted."""
    calls, active = [], []
    real_field = GmmKernel.certificate_field

    def counting(a, b, var, dim):
        if active and var == active[-1]._kvar:
            calls[-1][1] += a.shape[0] * b.shape[0]
        return REAL_DENSITY(a, b, var, dim)

    def field(self, t, support, coef, idx=None):
        calls.append([len(support), 0])
        active.append(self)
        try:
            return real_field(self, t, support, coef, idx)
        finally:
            active.pop()

    monkeypatch.setattr(kernels, "gauss_density", counting)
    monkeypatch.setattr(GmmKernel, "certificate_field", field)
    return calls


def loop_config(init, full_batch, **kw):
    base = dict(init_swarm=init, k_iters=40, alpha=0.5, plan=FixedPlan(0.02, 32, 0.05),
                full_batch=full_batch, birth_death=True,
                death_rule=DeathRule(kind="ratio", tau_death=5.0),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=4),
                seed=9, trace_cadence=10)
    base.update(kw)
    return RunConfig(**base)


def rows(trace):
    return [(r.k, r.loss, r.tv, r.particles, r.births, r.deaths, r.min_cert, r.delta,
             r.cert_norm_sq) for r in trace]


@pytest.mark.parametrize("full_batch", [True, False])
def test_assembled_kernel_has_fresh_bits(monkeypatch, field_builds, full_batch):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    config = loop_config(init, full_batch, k_iters=60)
    real = GmmKernel._support_kernel

    def checked(self, t, support):
        k = real(self, t, support)
        assert same_bits(k, fresh_kernel(self, t, support))
        return k

    monkeypatch.setattr(GmmKernel, "_support_kernel", checked)
    res = run(config, problem)
    assembled = sum(entries < size**2 for size, entries in field_builds)
    assert assembled >= 30 and res.total_births > 0
    monkeypatch.setattr(GmmKernel, "_support_kernel",
                        lambda self, t, support: self.kernel_matrix(t, support))
    assert rows(res.trace) == rows(run(config, problem).trace)


@pytest.mark.parametrize("full_batch", [True, False])
def test_run_without_deaths_builds_no_support_kernel(field_builds, full_batch):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, full_batch, death_rule=DeathRule(kind="ratio", tau_death=1e300)),
              problem)
    assert res.total_deaths == 0 and res.total_births > 0
    sizes = [size for size, _ in field_builds]
    built = [entries for _, entries in field_builds]
    assert sizes == [rec.particles for rec in res.trace[:-1]]
    assert built[0] == sizes[0] ** 2  # the first support has nothing kept
    # later, only the born candidates against themselves
    assert built[1:] == [rec.births ** 2 for rec in res.trace[1:-1]]


def scoped_pair(model, domain):
    """Keeps ``K(T', T')`` and ``K(C, T')`` as the loop does; returns T', C."""
    pushed = domain.sample_uniform(rng(1), size=5)
    cand = domain.sample_uniform(rng(2), size=4)
    coef = np.linspace(0.1, 0.5, 5)
    model.certificate_values(pushed, pushed, coef, np.arange(10))
    model.certificate_values(cand, pushed, coef, np.arange(10))
    return pushed, cand


def support_builds(field_builds, model, support):
    model.certificate_field(support, support, np.ones(len(support)))
    return field_builds[-1][1]


def test_kept_support_with_births_builds_only_the_born_block(field_builds):
    problem = make_gmm_problem(seed=3)
    model = problem.model
    with model.run_scope():
        pushed, cand = scoped_pair(model, problem.domain)
        support = np.vstack([pushed, cand[[3, 1]]])
        assert support_builds(field_builds, model, support) == 4
        assert same_bits(model._support_kernel(support, support),
                         fresh_kernel(model, support, support))
        kept = model._support_kernel(pushed, pushed)
        assert kept is model._kept_kernels[0][2]  # no births: the kept array itself
        assert not kept.flags.writeable
        assert same_bits(kept, fresh_kernel(model, pushed, pushed))
        assert support_builds(field_builds, model, pushed) == 0


@pytest.mark.parametrize("case", ["death", "unrelated", "stranger", "prefix", "unscoped"])
def test_other_supports_are_built_fresh(field_builds, case):
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
        assert support_builds(field_builds, model, support) == len(support) ** 2


def test_kept_kernels_are_read_only_and_dropped_after_abort(monkeypatch):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    real, seen = runner.weight_push_update, []

    def failing(problem_, swarm, certs, grads, rates):
        kept = problem.model._kept_kernels
        seen.append(len(kept))
        assert all(not k.flags.writeable for _, _, k in kept)
        if len(seen) == 3:
            raise ValueError("stop here")
        return real(problem_, swarm, certs, grads, rates)

    monkeypatch.setattr(runner, "weight_push_update", failing)
    with pytest.raises(RunAborted):
        run(loop_config(init, False), problem)
    assert seen == [0, 2, 2]
    assert problem.model._kept_kernels is None and problem.model._kept is None

