"""The mixture's data-side densities from one centred expanded product.

``GmmKernel._density`` forms each exponent ``-|t - x|^2 / s``, ``s = 2
yvar``, as one entry of the product ``[a, -|a|^2/s, 1] @ [2b/s; 1;
-|b|^2/s]`` of the points and the samples centred on the samples' box,
within the bound of the ``GmmKernel`` docstring of the exact exponent, and
takes exact differences where that bound exceeds ``_EXPANDED_ERROR``. Its
densities must lie within ``reference.expansion_slack`` of the exact
``gauss_density``, and its means, and the blocked means of
``y_inner_many``, within ``reference.mixture_side_bound`` of
``mixture_means``: in the plane, up to 1e6 from the origin, exact and
batched, on both sides of ``PRODUCT_ENTRIES`` (``_sqdist``'s product path)
and ``ROW_BLOCK_ENTRIES`` (the blocked means). A call whose bound fails has
the exact form's bits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.cli import build_problem
from conicswarm.config import load_config
from conicswarm.domain import grid_points
from conicswarm.gaussian import gauss_density
from conicswarm.kernels import GmmKernel
from helpers import rng, same_bits
from reference import ETA, U, expansion_slack, mixture_means, mixture_side_bound, near

pytestmark = pytest.mark.exactness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cloud(g, size, d, width, offset):
    return g.uniform(-width, width, size=(size, d)) + offset


def takes_product(model, t):
    """Whether the data-side densities of the points t take the expanded
    product: they lie within the model's limit."""
    return model._expands(model._left(t))


#: points and samples: 60 x 70 entries fall below ``PRODUCT_ENTRIES``, 70 x
#: 70 above it, and 60 x 3,000 above ``ROW_BLOCK_ENTRIES``
SIZES = (1, 60, 70, 300)
SAMPLES = (1, 70, 3_000)


@given(p=st.sampled_from(SIZES), n=st.sampled_from(SAMPLES),
       width=st.sampled_from([0.5, 4.0, 20.0, 1e4]),
       offset=st.sampled_from([0.0, 1e6, -1e6, 3.7e5]), tau=st.floats(0.05, 1.0),
       batch=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_densities_within_the_bound_of_exact_differences(p, n, width, offset, tau, batch, seed):
    # ``width`` 20 puts most pairs' densities below the float range, and 1e4
    # fails the expanded product's bound; the mixture is planar
    g, d = rng(seed), 2
    model = GmmKernel(cloud(g, n, d, width, offset), tau)
    t = cloud(g, p, d, width, offset)
    idx = g.integers(0, n, size=int(g.integers(1, 2 * n + 1))) if batch else None
    x = model.data if idx is None else model.data[idx]

    batch = model._samples(idx)
    assert batch[1].flags.c_contiguous  # every product's right operand
    rows, means = model._density(t, batch)
    exact = gauss_density(t, x, model._yvar)
    slack = expansion_slack(model, t, x) + 8.0 * U
    assert np.all(np.abs(rows - exact) <= 1.01 * slack * exact + ETA)
    if not takes_product(model, t):
        assert same_bits(rows, exact)
    want = mixture_means(model, t, x)
    bound = mixture_side_bound(model, t, idx)[0]
    assert near(means, want, bound)
    assert near(model.y_inner_many(t, idx), want, bound)


def kernel_takes_product(model, t):
    """Whether the kernel ``K(t, t)`` takes the expanded product."""
    return model._expands(model._left(t), model._left(t))


def test_shipped_profiles_take_the_product_and_a_wide_ring_does_not():
    # gmm_full.cfg's domain corners lie 19.4 and its samples up to 11.9 from
    # the samples' centre: the data-side bound is about 5e-13 there, the
    # kernel's 4.0e-13 between opposite corners, and every point of its
    # domain takes the product on both sides; the same samples spread 1e6
    # times wider do not
    for name in ("gmm_full.cfg", "gmm_desk.cfg"):
        problem, _ = build_problem(load_config(CONFIGS / name))
        corners = grid_points(problem.domain, 2)
        assert takes_product(problem.model, corners)
        assert kernel_takes_product(problem.model, corners)
    wide = GmmKernel(problem.model.data * 1e6, 0.2)
    assert not takes_product(wide, corners * 1e6)
    assert not kernel_takes_product(wide, corners * 1e6)


def test_audit_densities_take_exact_differences_where_the_bound_fails():
    # samples spread 1e6 times wider than gmm_desk.cfg's fail the expanded
    # product's bound, so the audit's per-sample densities (``_sample_y``)
    # take ``gauss_density``'s exact differences: each sample's have the bits
    # of a model built on that sample alone, whose own bound fails too, and
    # its gradients equal them up to the sign of a zero
    problem, _ = build_problem(load_config(CONFIGS / "gmm_desk.cfg"))
    wide = GmmKernel(problem.model.data[:40] * 1e6, 0.2)
    rows = np.arange(0, 40, 7)
    t = wide.data[rows] + rng(5).uniform(-1.0, 1.0, size=(len(rows), 2))
    assert not takes_product(wide, t)
    vals, grads = wide._sample_y(t, rows)
    assert vals.shape == (len(rows), len(t)) and grads.shape == (len(rows), len(t), 2)
    assert np.all(vals.diagonal() > 0.0)
    for j, i in enumerate(rows):
        one = GmmKernel(wide.data[i : i + 1], 0.2)
        assert not takes_product(one, t)
        assert same_bits(vals[j], one.y_inner_many(t))
        assert np.array_equal(grads[j], one.grad_y_inner_many(t))
