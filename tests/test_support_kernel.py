"""What ``GmmKernel``'s loop evaluations build.

Each iteration scores the pushed support ``T'`` against itself
(``pushed_values``) and the birth candidates ``C`` against ``T'`` on the
same batch (``candidate_values``); the next support is ``T'[keep]``
followed by ``C[born]``. ``ev`` carries the batch rows, ``K(T', T')`` and
``K(C, T')``, and in an exact run the data-side rows and means of both, so
``support_field`` builds only ``K(C_born, C_born)``, after deaths too, and
no data-side rows in an exact run, and the candidates fetch no batch.
Every stateless evaluation builds fresh. That the loop evaluations have
the bits of the stateless ones and keep nothing in the model is checked
for every model in ``test_loop_evaluations.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import conicswarm.kernels as kernels
import conicswarm.runner as runner
from conicswarm.birth_death import DeathRule
from conicswarm.kernels import GmmKernel
from conicswarm.objective import loss
from conicswarm.runner import run
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem, random_swarm
from helpers import loop_config, rng, same_bits


REAL_DENSITY = kernels.gauss_density


def fresh_values(model, a, b, coef):
    """``K(a, b) coef`` from freshly built entries, with the kernel's constant
    applied to the product."""
    return (REAL_DENSITY(a, b, model._kvar) @ coef) * model._knorm


@pytest.fixture
def built(monkeypatch):
    """Every ``gauss_density`` call as ``(var, |a|, |b|)``."""
    log = []

    def counting(a, b, var):
        log.append((var, a.shape[0], b.shape[0]))
        return REAL_DENSITY(a, b, var)

    monkeypatch.setattr(kernels, "gauss_density", counting)
    return log


def data_rows(log, model, since=0, until=None):
    """Data-side density rows built in ``log[since:until]``."""
    return sum(a for var, a, _ in log[since:until] if var == model._yvar)


def kernel_entries(log, model, since=0, until=None):
    """Kernel entries built in ``log[since:until]``."""
    return sum(a * b for var, a, b in log[since:until] if var == model._kvar)


#: each loop evaluation and the position of its points among its arguments
LOOP_EVALUATIONS = {"support_field": 0, "pushed_values": 0, "candidate_values": 1}


@pytest.fixture
def evaluations(monkeypatch, built):
    """Per loop evaluation: ``(method, |points|, data-side rows built,
    kernel entries built)``."""
    out = []
    for name, at in LOOP_EVALUATIONS.items():
        def counted(self, *args, _real=getattr(GmmKernel, name), _name=name, _at=at):
            since = len(built)
            result = _real(self, *args)
            out.append((_name, len(args[_at]), data_rows(built, self, since),
                        kernel_entries(built, self, since)))
            return result

        monkeypatch.setattr(GmmKernel, name, counted)
    return out


#: a death rule that never fires
NO_DEATHS = DeathRule(kind="ratio", tau_death=1e300)


@pytest.mark.parametrize("full_batch", [True, False])
def test_run_without_deaths_builds_no_support_kernel(evaluations, full_batch):
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, full_batch, death_rule=NO_DEATHS), problem)
    assert res.total_deaths == 0 and res.total_births > 0
    fields = [e for e in evaluations if e[0] == "support_field"]
    sizes = [size for _, size, _, _ in fields]
    assert sizes == [rec.particles for rec in res.trace[:-1]]
    # the first support has no pushed evaluation before it; later, only the
    # born candidates against themselves, and in a full-batch run no
    # data-side rows
    assert [entries for *_, entries in fields] == \
        [sizes[0] ** 2] + [rec.births ** 2 for rec in res.trace[1:-1]]
    assert [built for *_, built, _ in fields] == \
        ([sizes[0]] + [0] * (len(sizes) - 1) if full_batch else sizes)


@pytest.mark.parametrize("full_batch", [True, False])
def test_iteration_after_deaths_builds_only_the_born_block(monkeypatch, built, full_batch):
    # the support's field is everything built between one iteration's mass
    # tweak and the next one's weight update (the loss runs only at k = K):
    # after deaths as after births alone, K(C_born, C_born) and, in a
    # full-batch run, no data-side rows
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    marks = []
    for name in ("weight_push_update", "apply_mass_tweak"):
        monkeypatch.setattr(runner, name, lambda *args, _real=getattr(runner, name):
                            marks.append(len(built)) or _real(*args))
    res = run(loop_config(init, full_batch, k_iters=60, trace_cadence=1000), problem)
    model = problem.model
    steps = res.trace[1:-1]
    assert sum(rec.deaths > 0 for rec in steps) >= 5 and res.total_births > 0
    spans = list(zip(marks[1::2], marks[2::2]))
    assert [kernel_entries(built, model, lo, hi) for lo, hi in spans] == \
        [rec.births ** 2 for rec in steps]
    if full_batch:
        assert all(data_rows(built, model, lo, hi) == 0 for lo, hi in spans)


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


def scoped_pair(model, domain, idx=None):
    """The loop's pushed evaluation of ``T'`` and its candidates ``C`` on
    the batch ``idx``; returns T', C and ``ev``."""
    pushed = domain.sample_uniform(rng(1), size=5)
    cand = domain.sample_uniform(rng(2), size=4)
    _, ev = model.pushed_values(pushed, np.linspace(0.1, 0.5, 5), idx)
    model.candidate_values(ev, cand)
    return pushed, cand, ev


def support_builds(built, model, support, ev=None, keep=None, born=None):
    """Data-side rows and kernel entries an exact support field builds."""
    since = len(built)
    model.support_field(support, np.ones(len(support)), None, ev, keep, born)
    return data_rows(built, model, since), kernel_entries(built, model, since)


def test_kept_support_with_births_builds_only_the_born_block(built):
    problem = make_gmm_problem(seed=3)
    model = problem.model
    pushed, cand, ev = scoped_pair(model, problem.domain)
    born, none = np.array([False, True, False, True]), np.zeros(4, dtype=bool)
    for keep in (np.ones(5, dtype=bool), np.array([True, False, True, True, False]),
                 np.zeros(5, dtype=bool)):
        support = np.vstack([pushed[keep], cand[born]])
        assert support_builds(built, model, support, ev, keep, born) == (0, 4)
        assert support_builds(built, model, pushed[keep], ev, keep, none) == (0, 0)
    # mini-batch evaluations lend their kernel blocks, not their rows
    pushed, cand, ev = scoped_pair(model, problem.domain, np.arange(10))
    born = np.array([True, False, False, False])
    assert support_builds(built, model, np.vstack([pushed, cand[born]]), ev,
                          np.ones(5, dtype=bool), born) == (6, 1)


@pytest.mark.parametrize("case", ["death", "unrelated", "stranger", "prefix", "unscoped"])
def test_other_supports_are_built_fresh(built, case):
    # with no ``ev`` a support field builds everything, whatever the model
    # evaluated before: it keeps nothing between calls
    problem = make_gmm_problem(seed=3)
    model = problem.model
    if case == "unscoped":
        pushed = problem.domain.sample_uniform(rng(1), size=5)
        cand = problem.domain.sample_uniform(rng(2), size=4)
    else:
        pushed, cand, _ = scoped_pair(model, problem.domain)
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
    # a pushed evaluation, a stateless support field and the loss build K(T, T)
    # as row blocks of ``block`` rows against themselves and the rows after
    # them: p (p + 1) / 2 entries and fewer than p * block more, not p^2
    problem = make_gmm_problem(seed=3)
    model = problem.model
    p = 400
    block = kernels._SELF_BLOCK_ENTRIES // p
    bound = p * (p + 1) // 2 + p * block
    pushed = problem.domain.sample_uniform(rng(4), size=p)
    coef = np.linspace(0.1, 1.0, p)
    since = len(built)
    vals, _ = model.pushed_values(pushed, coef, idx)
    assert kernel_entries(built, model, since) <= bound < p**2
    since = len(built)
    model.certificate_field(pushed[1:], pushed[1:], coef[1:], idx)  # no ev to read
    assert kernel_entries(built, model, since) <= bound
    since = len(built)
    loss(problem, ParticleSwarm(coef, np.ones(p), pushed))
    assert kernel_entries(built, model, since) <= bound
    assert same_bits(vals, fresh_values(model, pushed, pushed, coef)
                     - model.y_inner_many(pushed, idx))


def test_mini_batch_unscoped_and_loss_calls_keep_nothing(built):
    # stateless evaluations build their rows on every call, before and after
    # the loop evaluations of the same points
    problem = make_gmm_problem(seed=4)
    model = problem.model
    pts = problem.domain.sample_uniform(rng(6), size=3)
    for _ in range(2):
        model.certificate_values(pts, pts, np.ones(3))
    assert data_rows(built, model) == 6
    _, ev = model.pushed_values(pts, np.ones(3))
    model.candidate_values(ev, pts)
    assert data_rows(built, model) == 12
    for _ in range(2):
        model.certificate_values(pts, pts, np.ones(3), np.arange(model.n_samples))
    assert data_rows(built, model) == 18
    model.certificate_field(pts, pts, np.ones(3))
    assert data_rows(built, model) == 21
    for _ in range(2):
        model.y_inner_many(pts)  # as the loss does: always the blocked means
    assert data_rows(built, model) == 27


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
        """Counts the gathers of rows by an index array, by ``np.take`` or
        by fancy indexing."""

        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                fetched.append(len(key))
            return np.asarray(np.ndarray.__getitem__(self, key))

        def take(self, indices, *args, **kwargs):
            fetched.append(len(indices))
            return np.asarray(np.ndarray.take(self, indices, *args, **kwargs))

    model.data = model.data.view(Samples)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, False), problem)
    assert res.total_births > 0
    assert fetched == [32] * (2 * 40)


def test_nothing_kept_after_run(built):
    # a stateless field after a run builds every data-side row again
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, True), problem)
    since = len(built)
    positions = res.final_swarm.positions
    problem.model.certificate_field(positions, positions, np.ones(len(positions)))
    assert data_rows(built, problem.model, since) == len(positions)
