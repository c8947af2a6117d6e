"""Exact entry arithmetic of the Gaussian kernels and densities.

Every entry ``exp(-|a - b|^2 / (2 var))`` is finished in place by one
multiply and one exp (``_gauss_finish``) from ``_sqdist``'s sums of squared
coordinate differences, so each depends on its two points alone: a row has
the same bits whatever else shares the call, and ``K(A, B)`` is ``K(B, A)'``
exactly. From ``PRODUCT_ENTRIES`` entries on, each coordinate's differences
are one BLAS product ``[a, 1] @ [1; -b]``, exact up to the sign of a zero
for any BLAS summation order, FMA use or thread split. The entries carry no
constant: callers multiply the sums they reduce them to by ``gauss_norm``
or their own, the values ``K c`` and the gradients of ``gauss_grad`` (one
product ``K(A, B) @ [c B, c]``). One array against itself (``gauss_self``)
is the upper triangle of row blocks, mirrored, with the bits of the full
build. The pair sum of ``close_pair_sum`` alone takes its exponents from
expanded products, within a stated bound of the exact ones.
"""

from __future__ import annotations

import itertools

import numpy as np

from .workspace import PRODUCT_ENTRIES, SELF_BLOCK_ENTRIES, out_buffer

__all__ = ["gauss_density", "gauss_norm", "gauss_self", "gauss_grad", "close_pair_sum"]

#: leading coordinates that index the cell list of ``close_pair_sum``
_CELL_DIMS = 3
#: cell indices from this magnitude on take exact differences in
#: ``close_pair_sum``: below it, the index's own rounding is under 2^-12 cell
_EXPAND_LIMIT = 2**40


def _sqdist(a: np.ndarray, b: np.ndarray, ws=None, out=None) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (|a|, |b|), as sums of
    squared coordinate differences in one buffer, ``out`` if given: each
    entry depends on its two points alone, whatever else shares the call,
    and loses no digits far from the origin. Only the squares are returned,
    never the differences.

    From ``PRODUCT_ENTRIES`` entries on, each coordinate's differences
    ``a_i - b_j`` are one small product, ``[a_:,j, 1] @ [1; -b_:,j]``. Its
    terms are products by 1, so exact, and the sum of two terms is rounded
    once: every difference is the correctly rounded ``a_i - b_j`` of
    ``np.subtract.outer`` whatever the BLAS summation order, FMA use or
    thread split. Only the sign of a zero difference may differ, and the
    square removes it. The first coordinate's squares are formed in the
    result, each further one's in row blocks of at most
    ``SELF_BLOCK_ENTRIES`` entries (``ws``'s slot ``"diff"``), which stay
    in cache until they are added.
    """
    if len(a) * len(b) < PRODUCT_ENTRIES:
        d2 = np.subtract.outer(a[:, 0], b[:, 0], out=out)
        d2 *= d2
        for j in range(1, a.shape[1]):
            dj = np.subtract.outer(a[:, j], b[:, j])
            dj *= dj
            d2 += dj
        return d2
    left, right = np.empty((len(a), 2)), np.empty((2, len(b)))
    left[:, 1] = right[0] = 1.0
    left[:, 0] = a[:, 0]
    np.negative(b[:, 0], out=right[1])
    d2 = np.matmul(left, right, out=out)
    d2 *= d2
    step = max(1, SELF_BLOCK_ENTRIES // len(b))
    for j in range(1, a.shape[1]):
        left[:, 0] = a[:, j]
        np.negative(b[:, j], out=right[1])
        for lo in range(0, len(a), step):
            rows = d2[lo : lo + step]
            dj = np.matmul(left[lo : lo + step], right,
                           out=out_buffer(ws, "diff", len(rows), len(b)))
            dj *= dj
            rows += dj
    return d2


def _gauss_finish(d2: np.ndarray, var: float) -> np.ndarray:
    """``exp(-d2 / (2 var))`` from ``d2 = |a - b|^2``, in place, by one
    multiply and one exp: the Gaussian density ``N(a; b, var*I)`` without
    its constant ``gauss_norm(var, d)``, which callers apply to the sums
    they reduce the entries to."""
    d2 *= -0.5 / var
    return np.exp(d2, out=d2)


def gauss_norm(var: float, dim: int) -> float:
    """The constant ``(2 pi var)^(-d/2)`` of the density ``N(.; b, var*I)``."""
    return (2.0 * np.pi * var) ** (-dim / 2.0)


def gauss_density(a: np.ndarray, b: np.ndarray, var: float, ws=None, out=None) -> np.ndarray:
    """Isotropic Gaussian density N(a; b, var*I) evaluated pairwise, without
    its constant ``gauss_norm(var, d)``: ``exp(-|a_i - b_j|^2 / (2 var))``,
    finished in the distance buffer (``_sqdist``'s, with its ``ws`` and
    ``out``)."""
    return _gauss_finish(_sqdist(a, b, ws, out), var)


def _exp_sum(x: np.ndarray, m: int, scale: float, g: int) -> float:
    """``sum_ij w_ij exp(-|x_i - x_j|^2 / scale)`` over ``i < m``, with
    ``w_ij = 1`` for ``j < m`` and 2 otherwise: the first ``m`` rows
    against themselves once and against the rest twice, in cache-sized row
    tiles of at most ``SELF_BLOCK_ENTRIES`` terms, each tile against itself
    and the rows after it. A tile's exponents are formed in one buffer,
    exponentiated in place and summed by one matvec with the weights.

    The first ``g`` coordinates enter expanded: with ``a`` and ``b`` the
    rows centred on ``x_0``, ``-|a - b|^2 / s`` is one product with
    ``g + 2`` inner terms, ``[2a/s, -|a|^2/s, 1] @ [b; 1; -|b|^2/s]``. The
    other coordinates, all of them for ``g = 0``, subtract ``_sqdist``'s
    exact sums of squared differences over ``s``.
    """
    n, d = x.shape
    step = max(1, SELF_BLOCK_ENTRIES // n)
    if g:
        right = np.empty((g + 2, n))
        b = np.subtract(x[:, :g].T, x[0, :g, None], out=right[:g])
        right[g] = 1.0
        np.divide(np.einsum("ij,ij->j", b, b), -scale, out=right[g + 1])
        left = np.empty((m, g + 2))
        np.divide(b[:, :m].T, 0.5 * scale, out=left[:, :g])
        left[:, g] = right[g + 1, :m]
        left[:, g + 1] = 1.0
    weights = np.full(n, 2.0)
    total = 0.0
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        exponents = left[lo:hi] @ right[:, lo:] if g else np.zeros((hi - lo, n - lo))
        if d > g:
            exponents -= _sqdist(x[lo:hi, g:], x[lo:, g:]) / scale
        np.exp(exponents, out=exponents)
        weights[lo:hi] = 1.0
        total += float((exponents @ weights[lo:]).sum())
    return total


def gauss_self(x: np.ndarray, var: float, ws=None, out=None) -> np.ndarray:
    """``gauss_density(x, x, var)``, in ``out`` if given, from the upper
    triangle: row blocks of at most ``SELF_BLOCK_ENTRIES`` entries against
    themselves and the rows after them, each built in ``ws``'s slot
    ``"block"``, copied in and mirrored below the diagonal. Entries are
    pair-local and ``K(a, b) = K(b, a)`` bit for bit, so the result has the
    bits of the full build."""
    p = len(x)
    if p * p <= SELF_BLOCK_ENTRIES:
        return gauss_density(x, x, var, ws, out)
    k = np.empty((p, p)) if out is None else out
    step = max(1, SELF_BLOCK_ENTRIES // p)
    for lo in range(0, p, step):
        hi = min(lo + step, p)
        block = gauss_density(x[lo:hi], x[lo:], var, ws, out_buffer(ws, "block", hi - lo, p - lo))
        k[lo:hi, lo:] = block
        k[hi:, lo:hi] = block[:, hi - lo :].T
    return k


def close_pair_sum(x: np.ndarray, scale: float, cutoff: float) -> float:
    """``sum_ij exp(-|x_i - x_j|^2 / scale)`` over every ordered pair closer
    than ``cutoff`` (and some farther ones), by a cell list.

    Cells have side ``h = cutoff / 2`` in the first ``g = min(d, 3)``
    coordinates, so two samples closer than ``cutoff`` sit in cells whose
    indices differ by at most 2 per axis. Only occupied cells are stored,
    keyed by the bytes of their indices. ``_exp_sum`` sums each cell once
    against itself and twice against the occupied cells of the forward half
    of its ``5^g`` stencil, in tiles of at most ``SELF_BLOCK_ENTRIES`` terms.

    Each block is centred on its cell's first sample, so a row ``a`` and a
    column ``b`` of it have ``|a| < sqrt(g) h`` and ``|b| < 3 sqrt(g) h``,
    up to the indices' own rounding (under 2^-12 of a cell). The centring
    is exact far from the origin (Sterbenz) and elsewhere rounds each
    coordinate by a relative ``u = 2^-53`` at most, which moves the
    exponent by ``2u (|a| + |b|)^2 / scale``. The expanded product's
    operands round its cross terms at most ``g + 3`` times and its norm
    terms ``2g + 2`` times, so for ``d <= 3`` a term's exponent is within
    ``2 (g + 3) u (|a| + |b|)^2 / scale``, about
    ``8 g (g + 3) u cutoff^2 / scale`` or less, of the exact one. That is
    each term's relative error, apart from exp's own; the terms are
    positive, so the sum adds only the rounding of its sums. A cell whose
    index reaches ``_EXPAND_LIMIT`` in magnitude may hold samples far apart
    (the cast's clip at 2^62, or indices rounded by whole cells), so its
    tiles take exact differences in every coordinate.
    """
    n, g = len(x), min(x.shape[1], _CELL_DIMS)

    def byte_keys(idx):
        return np.ascontiguousarray(idx).view(np.dtype((np.void, 8 * g))).ravel()

    # The clip guards the int64 cast; it is monotone, so indices within 2 of
    # each other stay within 2.
    keys = np.clip(np.floor(x[:, :g] * (2.0 / cutoff)), -2.0**62, 2.0**62).astype(np.int64)
    order = np.argsort(byte_keys(keys), kind="stable")
    x, keys = x[order], keys[order]
    cells, starts = np.unique(byte_keys(keys), return_index=True)
    ends = np.r_[starts[1:], n]
    stencil = [off for off in itertools.product(range(-2, 3), repeat=g) if off > (0,) * g]
    near = np.full((len(starts), len(stencil)), -1)
    for s, off in enumerate(stencil):
        want = byte_keys(keys[starts] + np.array(off))
        pos = np.minimum(np.searchsorted(cells, want), len(cells) - 1)
        near[:, s] = np.where(cells[pos] == want, pos, -1)
    expand = np.where(np.abs(keys[starts]).max(axis=1) < _EXPAND_LIMIT, g, 0)
    total = 0.0
    for c, (lo, hi) in enumerate(zip(starts, ends)):
        block = [x[lo:hi]] + [x[starts[j] : ends[j]] for j in near[c] if j >= 0]
        total += _exp_sum(np.concatenate(block), hi - lo, scale, int(expand[c]))
    return total


def gauss_grad(k: np.ndarray, a: np.ndarray, b: np.ndarray, coef, var: float) -> np.ndarray:
    """``sum_j coef_j grad_a K(a_i, b_j)`` from the Gaussian kernel matrix ``k``
    of variance ``var``, ``grad_a K = K (b - a) / var``: one product ``s = k @
    [coef b, coef]`` against a |b| x (d + 1) right-hand side, with no |a| x |b|
    temporary, gives ``(s[:, :d] - s[:, d:] a) / var``. A ``coef`` of shape
    (m, |b|) stacks m vectors: one matmul, one BLAS call and its bits per slice."""
    s = k @ np.concatenate([coef[..., None] * b, coef[..., None]], axis=-1)
    return (s[..., :-1] - s[..., -1:] * a) / var
