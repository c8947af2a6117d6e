"""The mixture's Gaussian constants, applied to sums, against the per-entry form.

``GmmKernel`` finishes each entry as ``exp(d2 * (-0.5 / var))`` and
multiplies the densities' constants ``(2 pi var)^(-d/2)`` into what the
entries are reduced to. ``divided`` below is the earlier form, kept here as
the reference: each entry ``exp(d2 / (-2 var)) (2 pi var)^(-d/2)``, and
every sum taken over the normalized entries. Both forms start from the same
``_sqdist`` bits, so they differ by rounding alone.

The bound, with ``u = 2^-53`` and ``z = d2 / (2 var)`` for one entry:

* the reference rounds the exponent once (``-2 var`` is exact), the new
  form twice (``-0.5 / var``, then the product), so the two exponents differ
  by at most ``3.01 z u`` and the exact exps by that relative factor;
* each exp is within 2 units in the last place, at most ``4u`` of its
  value, on either side; the reference multiplies every entry by the
  constant and the new ``kernel_matrix`` does too, one rounding each;
* so every normalized entry is within ``eps_ij = (3.02 z + 10) u`` of the
  reference entry ``P_ij``, relative to it, and within ``ETA`` absolutely
  once it is subnormal, where rounding is absolute.

A reduction of q entries rounds each term at most q + 6 times on either
side, whatever the summation order (the product, the constant, the scaling
by t, the division and the final subtraction included), so it is off by at
most ``gamma_{q+6} = (q + 6) u / (1 - (q + 6) u)`` of the sum of its terms'
sizes on each side. The reference values and gradients are therefore within
``1.01 sum_j ((eps_ij + 2 gamma_{q+6}) |P_ij| + ETA) w_j`` of the new ones,
where ``w_j`` is a term's size per unit entry: ``|c_j|`` for ``K c``,
``1 / m`` for the means, ``|c_j| (|S_jl| + |t_il|) / var`` and
``(|x_jl| + |t_il|) / (m var)`` for the two halves of a gradient. In the
subnormal range every product and sum rounds by at most ``2^-1075``
absolutely, at most ``(q + 6) q`` times per output: below ``FLOOR``,
which is added to every bound.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from conicswarm import kernels
from conicswarm.kernels import GmmKernel
from helpers import rng

U = 2.0**-53
#: absolute slack of one subnormal entry: its exp and its constant's product
ETA = 8.0 * 2.0**-1074
#: absolute slack of the subnormal roundings of one reduction, ``(q + 6) q
#: 2^-1075`` for q up to 400 samples or points
FLOOR = 2.0**-1056


def divided(a, b, var, dim):
    """The reference entries ``exp(d2 / (-2 var)) (2 pi var)^(-d/2)`` and the
    per-entry relative bound ``eps_ij`` of the module docstring."""
    d2 = kernels._sqdist(a, b)
    eps = (3.02 * d2 / (2.0 * var) + 10.0) * U
    d2 /= -2.0 * var
    np.exp(d2, out=d2)
    d2 *= (2.0 * np.pi * var) ** (-dim / 2.0)
    return d2, eps


def gamma(k):
    return k * U / (1.0 - k * U)


def size(p, eps, k):
    """Each entry's bound per unit term size: ``(eps_ij + 2 gamma_k) |P_ij| + ETA``."""
    return (eps + 2.0 * gamma(k)) * np.abs(p) + ETA


def reference_field(model, t, support, coef, x):
    """The earlier form's values and gradients, and their bounds."""
    k, k_eps = divided(t, support, model._kvar, model.dim)
    ky, y_eps = divided(t, x, model._yvar, model.dim)
    m = len(x)
    y = ky.mean(axis=1)
    vals = k @ coef - y
    grads = kernels._gauss_grad(k, t, support, coef, model._kvar) \
        - (ky @ x / m - y[:, None] * t) / model._yvar
    ks = size(k, k_eps, len(support) + 6)
    ys = size(ky, y_eps, m + 6)
    c = np.abs(coef)
    y_bound = ys.sum(axis=1) / m
    val_bound = ks @ c + y_bound
    grad_bound = ((ks * c) @ np.abs(support) + (ks @ c)[:, None] * np.abs(t)) / model._kvar \
        + (ys @ np.abs(x) / m + y_bound[:, None] * np.abs(t)) / model._yvar
    return (vals, grads, y), (1.01 * val_bound + FLOOR, 1.01 * grad_bound + FLOOR,
                              1.01 * y_bound + FLOOR)


def within(got, want, bound):
    return got.shape == want.shape and np.all(np.abs(got - want) <= bound)


def cloud(g, size, d, width, offset):
    return g.uniform(-width, width, size=(size, d)) + offset


@given(p=st.integers(1, 400), q=st.integers(1, 400), d=st.sampled_from([1, 2, 3]),
       n=st.integers(1, 120), width=st.sampled_from([0.5, 4.0, 20.0]),
       offset=st.sampled_from([0.0, 1e6, -3.7e6]), tau=st.floats(0.05, 1.0),
       batch=st.booleans(), equal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gmm_within_rounding_of_the_divide_and_normalize_form(p, q, d, n, width, offset, tau,
                                                             batch, equal, seed):
    # ``width`` 20 puts most pairs' entries below the float range, 0.5 none
    g = rng(seed)
    model = GmmKernel(cloud(g, n, d, width, offset), tau)
    t = cloud(g, p, d, width, offset)
    support = t if equal else cloud(g, q, d, width, offset)
    coef = g.uniform(-1.0, 1.0, size=len(support))
    idx = g.integers(0, n, size=int(g.integers(1, 2 * n + 1))) if batch else None
    x = model.data if idx is None else model.data[idx]

    k, k_eps = divided(t, support, model._kvar, d)
    assert within(model.kernel_matrix(t, support), k, 1.01 * size(k, k_eps, 0))

    (vals, grads, y), (val_bound, grad_bound, y_bound) = \
        reference_field(model, t, support, coef, x)
    assert within(model.y_inner_many(t, idx), y, y_bound)
    got_vals, got_grads = model.certificate_field(t, support, coef, idx)
    assert within(got_vals, vals, val_bound)
    assert within(got_grads, grads, grad_bound)
