"""Mixture data-side means over row blocks.

``GmmKernel`` averages data-side densities, exact or batched, in blocks of
at most ``ROW_BLOCK_ENTRIES`` entries in ``y_inner_many`` (and so the
loss) and in ``certificate_values`` (and so ``kkt_residual`` and
``frechet_gap``). Each row is averaged on its
own, so the means must lie within the data-side bound
(``reference.mixture_side_bound``) of the reference's one-shot
``mixture_means``, whose densities take exact differences, on both sides of
every block edge, before and after an exact pushed evaluation, whose full
rows go to its ``ev`` alone, and the temporaries must not grow with n.
Where a test subtracts the means from ``K c``, the kernel side adds its own
bound, ``reference.mixture_kernel_side_bound``: its entries are expanded
products too.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm import kernels
from conicswarm.cli import build_problem
from conicswarm.config import load_config
from conicswarm.gaussian import lattice_pair_sum
from conicswarm.objective import kkt_residual, loss
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem
from helpers import rng, traced_peak
from reference import kernel_sum, mixture_kernel_side_bound, mixture_means, mixture_side_bound, \
    near

ENTRIES = kernels.ROW_BLOCK_ENTRIES
#: sample counts: a block of 43 rows, one of 4 rows, and one row per block
SAMPLE_COUNTS = (3_000, 2**15, ENTRIES + 3)


@functools.lru_cache(maxsize=None)
def problem_with(n):
    return make_gmm_problem(seed=5, n=n)


def block_rows(n):
    return max(1, ENTRIES // n)


def row_counts(n):
    """0, 1, block - 1, block, block + 1 and two multiples of the block."""
    b = block_rows(n)
    return sorted({0, 1, max(b - 1, 0), b, b + 1, 2 * b, 3 * b})


@pytest.mark.exactness
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
    want, bound = mixture_means(model, t), mixture_side_bound(model, t)[0]
    assert near(model.y_inner_many(t), want, bound)
    assert near(model.certificate_values(t, support, coef), kernel_sum(model, t, support, coef)
                - want, bound + mixture_kernel_side_bound(model, t, support, coef)[0])


@pytest.mark.exactness
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
        _, at_t, _ = model.pushed_values(kept, np.ones(len(kept)), None, t)
        # two evaluations of the model, each within the bound of the reference
        assert near(at_t, model.certificate_values(t, kept, np.ones(len(kept))),
                    2.0 * mixture_side_bound(model, t)[0])
    for pts in (t, new):
        assert near(model.y_inner_many(pts), mixture_means(model, pts),
                    mixture_side_bound(model, pts)[0])


@pytest.mark.exactness
@pytest.mark.parametrize("p", [511, 512, 513, 1025])
def test_batched_means_match_one_shot_across_the_block_edge(p):
    # a batch of m = 256 samples makes blocks of 512 rows; the batch's means
    # are the exact means of a model built on the batch's rows
    problem = problem_with(3_000)
    model = problem.model
    assert block_rows(256) == 512
    g = rng(p)
    idx = g.integers(0, model.n_samples, size=256)
    t = problem.domain.sample_uniform(g, size=p)
    want = mixture_means(kernels.GmmKernel(model.data[idx], model.tau, problem.domain), t)
    bound = mixture_side_bound(model, t, idx)[0]
    assert near(model.y_inner_many(t, idx), want, bound)
    support = problem.domain.sample_uniform(g, size=3)
    coef = g.uniform(-1.0, 1.0, size=3)
    _, at_t, _ = model.pushed_values(support, coef, idx, t)
    assert near(at_t, kernel_sum(model, t, support, coef) - want,
                bound + mixture_kernel_side_bound(model, t, support, coef)[0])


@pytest.fixture(scope="module")
def large_problem():
    return make_gmm_problem(seed=6, n=24_000)


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
    # gmm_full.cfg's 24,000 samples: lattice rows in chunks of at most
    # SELF_BLOCK_ENTRIES entries (256 KiB) leave the sorted samples, their
    # offsets and cells and the 180 lattice blocks, 2.5 MiB
    cfg = Path(__file__).resolve().parent.parent / "configs" / "gmm_full.cfg"
    problem, _ = build_problem(load_config(cfg))
    model = problem.model
    assert traced_peak(lambda: lattice_pair_sum(model.data, model.tau)) < 3 * 2**20
