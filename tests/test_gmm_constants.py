"""The mixture's Gaussian constants, applied to sums, against the per-entry form.

``GmmKernel`` finishes each entry as ``exp(d2 * (-0.5 / var))`` and
multiplies the densities' constants ``(2 pi var)^(-d/2)`` into what the
entries are reduced to. The reference's ``divided`` is the earlier form:
each entry ``exp(d2 / (-2 var)) (2 pi var)^(-d/2)``, and every sum taken
over the normalized entries (``mixture_field``). The model's exponents are
expanded products, within ``reference.expansion_slack`` of the exact ones,
so the two forms differ by that and rounding, within the bounds that
``mixture_field`` derives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.kernels import GmmKernel
from helpers import rng
from reference import divided, entry_size, expansion_slack, mixture_field

pytestmark = pytest.mark.exactness


def within(got, want, bound):
    return got.shape == want.shape and np.all(np.abs(got - want) <= bound)


def cloud(g, size, d, width, offset):
    return g.uniform(-width, width, size=(size, d)) + offset


@given(p=st.integers(1, 400), q=st.integers(1, 400),
       n=st.integers(1, 120), width=st.sampled_from([0.5, 4.0, 20.0]),
       offset=st.sampled_from([0.0, 1e6, -3.7e6]), tau=st.floats(0.05, 1.0),
       batch=st.booleans(), equal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gmm_within_rounding_of_the_divide_and_normalize_form(p, q, n, width, offset, tau,
                                                             batch, equal, seed):
    # ``width`` 20 puts most pairs' entries below the float range, 0.5 none;
    # the mixture is planar
    g, d = rng(seed), 2
    model = GmmKernel(cloud(g, n, d, width, offset), tau)
    t = cloud(g, p, d, width, offset)
    support = t if equal else cloud(g, q, d, width, offset)
    coef = g.uniform(-1.0, 1.0, size=len(support))
    idx = g.integers(0, n, size=int(g.integers(1, 2 * n + 1))) if batch else None
    x = model.data if idx is None else model.data[idx]

    k, k_eps = divided(t, support, model._kvar, d)
    k_eps += expansion_slack(model, t, support, model._kvar)
    assert within(model.kernel_matrix(t, support), k, 1.01 * entry_size(k, k_eps, 0))

    (vals, grads, y), (val_bound, grad_bound, y_bound) = \
        mixture_field(model, t, support, coef, x)
    assert within(model.y_inner_many(t, idx), y, y_bound)
    got_vals, got_grads = model.certificate_field(t, support, coef, idx)
    assert within(got_vals, vals, val_bound)
    assert within(got_grads, grads, grad_bound)
