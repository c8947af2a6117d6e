"""Exact mixture data-side means over row blocks.

``GmmKernel`` averages exact data-side densities in blocks of at most
``_ROW_BLOCK_ENTRIES`` entries in ``y_inner_many`` (and so the loss) and in
``certificate_values`` (and so ``kkt_residual`` and ``frechet_gap``).
Gaussian entries are pair-local and each row is averaged on its own, so the
means must equal the one-shot ``gauss_density(t, data, ...).mean(axis=1)``
times the density's constant, bit for bit on both sides of every block
edge, before and after an exact pushed evaluation, whose full rows go to
its ``ev`` alone, and the temporaries must not grow with n.
"""

from __future__ import annotations

import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm import kernels
from conicswarm.cli import build_problem
from conicswarm.config import load_config
from conicswarm.objective import kkt_residual, loss
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem

ENTRIES = kernels._ROW_BLOCK_ENTRIES
#: sample counts: a block of 43 rows, one of 4 rows, and one row per block
SAMPLE_COUNTS = (3_000, 2**15, ENTRIES + 3)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and \
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


@functools.lru_cache(maxsize=None)
def problem_with(n):
    return make_gmm_problem(seed=5, n=n)


def one_shot(model, t):
    return kernels.gauss_density(t, model.data, model._yvar).mean(axis=1) * model._ynorm


def block_rows(n):
    return max(1, ENTRIES // n)


def row_counts(n):
    """0, 1, block - 1, block, block + 1 and two multiples of the block."""
    b = block_rows(n)
    return sorted({0, 1, max(b - 1, 0), b, b + 1, 2 * b, 3 * b})


@given(n=st.sampled_from(SAMPLE_COUNTS), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_blocked_means_match_one_shot(n, data, seed):
    problem = problem_with(n)
    model = problem.model
    g = np.random.Generator(np.random.Philox(seed))
    p = data.draw(st.sampled_from(row_counts(n)))
    t = problem.domain.sample_uniform(g, size=p) if p else np.empty((0, 2))
    support = problem.domain.sample_uniform(g, size=3)
    coef = g.uniform(-1.0, 1.0, size=3)
    want = one_shot(model, t)
    assert same_bits(model.y_inner_many(t), want)
    assert same_bits(model.certificate_values(t, support, coef),
                     (kernels.gauss_density(t, support, model._kvar) @ coef) * model._knorm
                     - want)


@given(n=st.sampled_from(SAMPLE_COUNTS), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scoped_means_with_kept_hits_and_misses(n, data, seed):
    problem = problem_with(n)
    model = problem.model
    g = np.random.Generator(np.random.Philox(seed))
    kept = problem.domain.sample_uniform(g, size=data.draw(st.integers(0, 4)))
    new = problem.domain.sample_uniform(g, size=data.draw(st.sampled_from(row_counts(n))))
    pool = np.vstack([kept, new])
    pick = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=3 * block_rows(n) + 1)
                     if len(pool) else st.just([]))
    t = pool[pick] if pick else np.empty((0, 2))
    if len(kept):  # the exact pushed evaluation's rows and means go to ``ev`` only
        _, ev = model.pushed_values(kept, np.ones(len(kept)))
        assert same_bits(model.candidate_values(ev, t),
                         model.certificate_values(t, kept, np.ones(len(kept))))
    assert same_bits(model.y_inner_many(t), one_shot(model, t))
    assert same_bits(model.y_inner_many(new), one_shot(model, new))


def traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_problem():
    problem = make_gmm_problem(seed=6, n=24_000)
    problem.model.y_norm_sq  # the cached constant is set-up, not loss, memory
    return problem


def test_loss_memory_does_not_scale_with_n(large_problem):
    # p = 400 and n = 24,000: a one-shot density would hold p x n entries
    # (77 MB) and its distance temporary as much again; the blocked means
    # hold two 1 MiB blocks, and the p x p quadratic term 2.6 MB
    g = np.random.Generator(np.random.Philox(7))
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=400), np.ones(400),
                          large_problem.domain.sample_uniform(g, size=400))
    assert traced_peak(lambda: loss(large_problem, swarm)) < 8e6


def test_kkt_residual_memory_does_not_scale_with_n(large_problem):
    # a 30 x 30 grid against n = 24,000 samples: 21.6M density entries
    # one-shot, two 1 MiB blocks here
    g = np.random.Generator(np.random.Philox(8))
    swarm = ParticleSwarm(g.uniform(0.01, 1.0, size=20), np.ones(20),
                          large_problem.domain.sample_uniform(g, size=20))
    lo, hi = large_problem.domain.lower, large_problem.domain.upper
    axes = [np.linspace(lo[j], hi[j], 30) for j in range(2)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    assert traced_peak(lambda: kkt_residual(large_problem, swarm, grid)) < 8e6


def test_y_norm_sq_memory_stays_in_cache_sized_tiles():
    # gmm_full.cfg's 24,000 samples: pair-term blocks of up to 2M entries
    # peaked at 15.4 MiB; tiles of at most _SELF_BLOCK_ENTRIES terms (256 KiB)
    # leave the sorted samples, their cell keys and the cell table, 1.9 MiB
    cfg = Path(__file__).resolve().parent.parent / "configs" / "gmm_full.cfg"
    problem, _ = build_problem(load_config(cfg))
    assert traced_peak(lambda: problem.model.y_norm_sq) < 3 * 2**20
