"""What ``GmmKernel``'s loop evaluations build.

Each iteration scores the pushed support ``T'`` against itself and the
birth candidates ``C`` against ``T'`` on the same batch in one
``pushed_values`` call, which builds the data-side rows of ``[T'; C]``
together; the next support ``T = [T'; C][keep]`` is the survivors
followed by the born candidates, under one mask ``keep`` over ``[T'; C]``.
``ev`` carries ``K([T'; C], T')``, built in one product, and, in an exact
run, the data-side rows and means of ``[T'; C]``, so ``support_field``
builds only the born columns ``K(T, T_born)``, after deaths too (the born
rows against the survivors are ``ev``'s candidate rows), and in an exact
run no data-side row at all. Every stateless evaluation builds fresh. That
the loop evaluations have the bits of the stateless ones, write nothing
into ``ev`` and keep nothing in the model is checked for every model in
``test_loop_evaluations.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import conicswarm.runner as runner
from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.kernels import GmmKernel
from conicswarm.runner import run
from conicswarm.verify import make_gmm_problem, random_swarm
from helpers import loop_config, rng, same_bits


REAL_KERNEL, REAL_ROWS = GmmKernel._kernel, GmmKernel._density


@pytest.fixture
def built(monkeypatch):
    """Every mixture kernel build (``GmmKernel._kernel``, the expanded
    product) as ``("kernel", |a|, |b|)``, and every data-side build
    (``GmmKernel._density``) as ``("rows", |t|, |x|)``."""
    log = []

    def counting_kernel(self, a, b, *args, **kwargs):
        log.append(("kernel", a.shape[0], b.shape[0]))
        return REAL_KERNEL(self, a, b, *args, **kwargs)

    def counting_rows(self, t, batch, *args, **kwargs):
        log.append(("rows", t.shape[0], batch[0].shape[0]))
        return REAL_ROWS(self, t, batch, *args, **kwargs)

    monkeypatch.setattr(GmmKernel, "_kernel", counting_kernel)
    monkeypatch.setattr(GmmKernel, "_density", counting_rows)
    return log


def data_rows(log, since=0, until=None):
    """Data-side density rows built in ``log[since:until]``."""
    return sum(a for kind, a, _ in log[since:until] if kind == "rows")


def kernel_entries(log, since=0, until=None):
    """Kernel entries built in ``log[since:until]``."""
    return sum(a * b for kind, a, b in log[since:until] if kind == "kernel")


#: each loop evaluation and the position of its points among its arguments
LOOP_EVALUATIONS = {"support_field": 0, "pushed_values": 0}


@pytest.fixture
def evaluations(monkeypatch, built):
    """Per loop evaluation: ``(method, |points|, data-side rows built,
    kernel entries built)``."""
    out = []
    for name, at in LOOP_EVALUATIONS.items():
        def counted(self, *args, _real=getattr(GmmKernel, name), _name=name, _at=at, **kwargs):
            since = len(built)
            result = _real(self, *args, **kwargs)
            out.append((_name, len(args[_at]), data_rows(built, since),
                        kernel_entries(built, since)))
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
    # born columns against the whole support, and in a full-batch run no
    # data-side row: the pushed evaluation built the candidates' too
    assert [entries for *_, entries in fields] == \
        [sizes[0] ** 2] + [rec.births * rec.particles for rec in res.trace[1:-1]]
    assert [built for *_, built, _ in fields] == \
        ([sizes[0]] + [0] * (len(sizes) - 1) if full_batch else sizes)


@pytest.mark.parametrize("full_batch", [True, False])
def test_iteration_after_deaths_builds_only_the_born_block(monkeypatch, built, full_batch):
    # the support's field is everything built between one iteration's mass
    # tweak and the next one's weight update (the loss runs only at k = K):
    # after deaths as after births alone, K(T, T_born), and in a full-batch
    # run no data-side row
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
    assert [kernel_entries(built, lo, hi) for lo, hi in spans] == \
        [rec.births * rec.particles for rec in steps]
    if full_batch:
        assert [data_rows(built, lo, hi) for lo, hi in spans] == [0] * len(steps)


def test_support_evaluation_builds_no_rows(built):
    # the losses at k = 0 and k = K and the first support build p_0, p_K and
    # p_0 rows; then each iteration builds only its pushed support's p_k rows
    # and the q = 4 candidates', which hold the rows of the births the next
    # support adds
    problem = make_gmm_problem(seed=7, n=400)
    init = random_swarm(problem, rng(8), max_particles=6)
    res = run(loop_config(init, True, death_rule=NO_DEATHS, trace_cadence=1000), problem)
    p = [rec.particles for rec in res.trace]
    assert res.total_deaths == 0 and res.total_births > 0
    assert data_rows(built) == 2 * p[0] + sum(pk + 4 for pk in p[:-1]) + p[-1]


def scoped_pair(model, domain, idx=None):
    """The loop's pushed evaluation of ``T'`` and its candidates ``C`` on
    the batch ``idx``; returns T', C and ``ev``."""
    pushed = domain.sample_uniform(rng(1), size=5)
    cand = domain.sample_uniform(rng(2), size=4)
    _, _, ev = model.pushed_values(pushed, np.linspace(0.1, 0.5, 5), idx, cand)
    return pushed, cand, ev


def support_builds(built, model, support, ev=None, keep=None):
    """Data-side rows and kernel entries an exact support field builds."""
    since = len(built)
    model.support_field(support, np.ones(len(support)), None, ev, keep)
    return data_rows(built, since), kernel_entries(built, since)


def test_kept_support_with_births_builds_only_the_born_block(built):
    # the p survivors and the two born points against the born, and no
    # data-side row: ``ev`` holds the candidates'; nothing without births
    problem = make_gmm_problem(seed=3)
    model = problem.model
    pushed, cand, ev = scoped_pair(model, problem.domain)
    points = np.vstack([pushed, cand])
    born, none = np.array([False, True, False, True]), np.zeros(4, dtype=bool)
    for live in (np.ones(5, dtype=bool), np.array([True, False, True, True, False]),
                 np.zeros(5, dtype=bool)):
        p = int(live.sum())
        keep = np.concatenate([live, born])
        assert support_builds(built, model, points[keep], ev, keep) == (0, 2 * (p + 2))
        keep = np.concatenate([live, none])
        assert support_builds(built, model, points[keep], ev, keep) == (0, 0)
    # mini-batch evaluations lend their kernel blocks, not their rows
    pushed, cand, ev = scoped_pair(model, problem.domain, np.arange(10))
    keep = np.arange(9) < 6
    assert support_builds(built, model, np.vstack([pushed, cand])[keep], ev, keep) == (6, 6)


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


@pytest.mark.exactness
@pytest.mark.parametrize("idx", [None, np.arange(40)])
def test_each_kernel_entry_is_built_once(built, idx):
    # a pushed evaluation builds K([T'; C], T'), (p + c) p entries, in one
    # product; the support field of an unchanged swarm builds none; after
    # births, and after deaths and births, only the born columns
    # K(T, T_born): the born rows against the survivors are ev's candidate
    # rows. Each has the bits of the stateless call.
    problem = make_gmm_problem(seed=3)
    model, fresh = problem.model, make_gmm_problem(seed=3).model
    p, c = 400, 4
    pushed = problem.domain.sample_uniform(rng(4), size=p)
    points = np.vstack([pushed, problem.domain.sample_uniform(rng(5), size=c)])
    coef = np.linspace(0.1, 1.0, p)
    since = len(built)
    vals, at_cand, ev = model.pushed_values(pushed, coef, idx, points[p:])
    assert [e for e in built[since:] if e[0] == "kernel"] == [("kernel", p + c, p)]
    assert same_bits(vals, fresh.certificate_values(pushed, pushed, coef, idx))
    assert same_bits(at_cand, fresh.certificate_values(points[p:], pushed, coef, idx))
    keep = np.arange(p + c) < p
    for born, dead, entries in (([], [], 0), ([p, p + 2], [], (p + 2) * 2),
                                ([p + 1], [0, 57, 399], (p - 2) * 1)):
        keep[born], keep[dead] = True, False
        t = points[keep]
        since = len(built)
        field = model.support_field(t, np.ones(len(t)), idx, ev, keep)
        assert kernel_entries(built, since) == entries
        for got, want in zip(field, fresh.certificate_field(t, t, np.ones(len(t)), idx)):
            assert same_bits(got, want)
        keep = np.arange(p + c) < p


def test_mini_batch_unscoped_and_loss_calls_keep_nothing(built):
    # stateless evaluations build their rows on every call, before and after
    # the loop evaluations of the same points
    problem = make_gmm_problem(seed=4)
    model = problem.model
    pts = problem.domain.sample_uniform(rng(6), size=3)
    for _ in range(2):
        model.certificate_values(pts, pts, np.ones(3))
    assert data_rows(built) == 6
    model.pushed_values(pts, np.ones(3), None, pts)
    assert data_rows(built) == 12
    for _ in range(2):
        model.certificate_values(pts, pts, np.ones(3), np.arange(model.n_samples))
    assert data_rows(built) == 18
    model.certificate_field(pts, pts, np.ones(3))
    assert data_rows(built) == 21
    for _ in range(2):
        model.y_inner_many(pts)  # as the loss does: always the blocked means
    assert data_rows(built) == 27


def test_batched_field_fetches_the_batch_once(monkeypatch):
    problem = make_gmm_problem(seed=4)
    model = problem.model
    real, fetched = GmmKernel._samples, []
    monkeypatch.setattr(GmmKernel, "_samples",
                        lambda self, idx: fetched.append(idx) or real(self, idx))
    pts = problem.domain.sample_uniform(rng(6), size=3)
    model.certificate_field(pts, pts, np.ones(3), np.arange(10))
    assert len(fetched) == 1


def test_stochastic_loop_evaluations_build_only_their_points_sides(monkeypatch):
    # a batch's side is its columns of the samples' side, built with the
    # model: a pushed evaluation builds the side of [T'; C] (``_left``) and
    # its kernel's side of T' (``_right``), once each, and the support field
    # of an unchanged swarm only T's side, for its data-side rows
    problem = make_gmm_problem(seed=3)
    model, g, calls = problem.model, rng(9), []
    for name in ("_left", "_right"):
        monkeypatch.setattr(GmmKernel, name, lambda self, *args, _real=getattr(GmmKernel, name),
                            _name=name: calls.append(_name) or _real(self, *args))
    pushed, _, ev = scoped_pair(model, problem.domain, g.integers(0, model.n_samples, size=32))
    assert calls == ["_left", "_right"]
    calls.clear()
    model.support_field(pushed, np.ones(5), g.integers(0, model.n_samples, size=32), ev,
                        np.arange(9) < 5)
    assert calls == ["_left"]


def test_exact_run_without_deaths_or_births_builds_no_side_of_the_support(monkeypatch):
    # in an exact run the support field reads its data-side rows from ``ev``
    # and needs T's side (``_left``) only for born columns: where nothing
    # died and nothing was born it builds none, after the first field,
    # which has no pushed evaluation before it and builds T's side for its
    # rows and for both sides of its kernel
    problem = make_gmm_problem(seed=7)
    init = random_swarm(problem, rng(8), max_particles=6)
    calls, sides = [], []
    monkeypatch.setattr(GmmKernel, "_left", lambda self, t, _real=GmmKernel._left:
                        calls.append(len(t)) or _real(self, t))
    real = GmmKernel.support_field

    def counted(self, *args, **kwargs):
        since = len(calls)
        result = real(self, *args, **kwargs)
        sides.append(len(calls) - since)
        return result

    monkeypatch.setattr(GmmKernel, "support_field", counted)
    config = loop_config(init, True, death_rule=NO_DEATHS,
                         birth_rule=BirthRule(threshold_coeff=-math.inf, candidates_per_iter=4))
    res = run(config, problem)
    assert res.total_deaths == res.total_births == 0
    assert sides == [3] + [0] * (len(res.trace) - 2)


def test_mini_batch_iteration_fetches_two_batches():
    # the candidates are scored on the pushed support's batch, fetched once
    problem = make_gmm_problem(seed=7)
    model = problem.model
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
    assert data_rows(built, since) == len(positions)
