"""Exact entry arithmetic of the Gaussian kernels and densities.

Every entry ``exp(-|a - b|^2 / (2 var))`` of ``gauss_density`` is finished
in place by one multiply and one exp (``_gauss_finish``) from ``_sqdist``'s
sums of squared coordinate differences, so each depends on its two points
alone: a row has the same bits whatever else shares the call, and ``K(A,
B)`` is ``K(B, A)'`` exactly. From ``PRODUCT_ENTRIES`` entries on, each
coordinate's differences are one BLAS product ``[a, 1] @ [1; -b]``, exact
up to the sign of a zero for any BLAS summation order, FMA use or thread
split. The entries carry no constant: callers multiply the sums they reduce
them to by ``gauss_norm`` or their own, the values ``K c`` and the
gradients of ``gauss_grad`` (one product ``K(A, B) @ [c B, c]``). The
synthetic model's kernel is ``gauss_density``. The mixture's kernel entries
and data-side densities (``kernels.GmmKernel``) take their exponents from
expanded products instead, within a derived budget of the exact ones,
neither symmetric nor moving with the points. The planar pair sum of
``lattice_pair_sum`` is the squared norm of the smoothed samples on a
lattice, within the bound that ``kernels.GmmKernel`` derives.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .workspace import SELF_BLOCK_ENTRIES

__all__ = ["gauss_density", "gauss_norm", "gauss_grad", "lattice_pair_sum"]

#: pairwise entries from which ``_sqdist`` forms coordinate differences as a
#: product. Below it the product's set-up costs more than it saves: in d = 2
#: on a Xeon core with OpenBLAS 0.3.31 on one thread, 15 us against 10 us at
#: 8 x 8, about even at 48 x 48, 22 us against 27 us at 64 x 64 and 34 us
#: against 62 us at 128 x 128
PRODUCT_ENTRIES = 4096

#: the spacing of ``lattice_pair_sum``'s lattice in units of tau, from the
#: aliasing bound of ``kernels.GmmKernel``
_SPACING = 0.5
#: the reach of a sample's lattice rows in units of tau, ``sqrt(45 c)`` with
#: ``c = 2 tau^2``: a row's entries beyond it are below e^-45
_REACH = math.sqrt(90.0)
#: lattice lines per side of a cell of samples, the reach in lines: a cell's
#: rows cover it and one cell on either side
_CELL = math.ceil(_REACH / _SPACING)
#: the 3 x 3 blocks of lattice that a cell's rows reach, as cell offsets
_NEAR = np.array(list(itertools.product((-1, 0, 1), repeat=2)))


def _sqdist(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
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
    ``SELF_BLOCK_ENTRIES`` entries, one buffer per call, which stay in
    cache until they are added.
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
    block = np.empty((min(step, len(a)), len(b)))
    for j in range(1, a.shape[1]):
        left[:, 0] = a[:, j]
        np.negative(b[:, j], out=right[1])
        for lo in range(0, len(a), step):
            rows = d2[lo : lo + step]
            dj = np.matmul(left[lo : lo + step], right, out=block[: len(rows)])
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


def gauss_density(a: np.ndarray, b: np.ndarray, var: float, out=None) -> np.ndarray:
    """Isotropic Gaussian density N(a; b, var*I) evaluated pairwise, without
    its constant ``gauss_norm(var, d)``: ``exp(-|a_i - b_j|^2 / (2 var))``,
    finished in the distance buffer (``_sqdist``'s, ``out`` if given)."""
    return _gauss_finish(_sqdist(a, b, out), var)


def _groups(x, gap):
    """The planar samples ``x`` split wherever two neighbours leave a gap
    wider than ``gap``, along x0 and then along x1 within each part: samples
    of different groups lie more than ``gap`` apart."""
    x = x[np.argsort(x[:, 0])]
    # a gap past the float range is inf, which still splits
    with np.errstate(over="ignore"):
        part = np.r_[0, np.cumsum(np.diff(x[:, 0]) > gap)]
        # by part, then x1, then x0: samples that the unstable sort may have
        # swapped are equal, so the sorted array is unique; ``part``, sorted
        # already, keeps its order
        x = x[np.lexsort((x[:, 1], part))]
        cut = (np.diff(part) > 0) | (np.diff(x[:, 1]) > gap)
    return np.split(x, np.flatnonzero(cut) + 1)


def _line_rows(values, first):
    """``exp(-(z_j - v)^2 / 2)`` of each value v at the ``3 _CELL`` lattice
    lines ``z_j = first + j _SPACING``, one row per value."""
    t = np.subtract.outer(values, first + _SPACING * np.arange(3 * _CELL))
    t *= t
    t *= -0.5
    return np.exp(t, out=t)


def _group_sum(x, tau):
    """``h^2 sum_k F_k^2 / pi`` over the lattice of one group, in units of tau
    and anchored at one of its samples: ``F = sum_i exp(-|z - u_i|^2 / 2)``
    over the lines within reach of each sample's cell. The samples sorted
    by cell, each cell adds ``A^T B`` to the 3 x 3 lattice blocks around
    it, with A and B its samples' ``_line_rows`` along x0 and x1, summed in
    row chunks of at most ``SELF_BLOCK_ENTRIES`` entries. Only the blocks
    that some cell reaches are stored."""
    u = (x - x[len(x) // 2]) / tau
    cells = np.floor(u / (_CELL * _SPACING)).astype(np.int64)
    # the samples come sorted by x1, so a stable sort by c0 sorts by cell
    order = np.argsort(cells[:, 0], kind="stable")
    u, cells = u[order], cells[order]
    starts = np.flatnonzero(np.r_[True, (np.diff(cells, axis=0) != 0).any(axis=1)])
    ends = np.r_[starts[1:], len(u)]
    occupied = cells[starts]
    # one integer key per block over the box of the group's cells and their neighbours
    low = occupied.min(axis=0) - 1
    keys = ((occupied - low)[:, None, :] + _NEAR) @ np.array([occupied[:, 1].max() - low[1] + 2, 1])
    blocks, slots = np.unique(keys.ravel(), return_inverse=True)
    lattice = np.zeros((len(blocks), _CELL, _CELL))
    step = max(1, SELF_BLOCK_ENTRIES // (3 * _CELL))
    for cell, near, lo, hi in zip(occupied, slots.reshape(-1, 9), starts, ends):
        first = (cell - 1) * (_CELL * _SPACING)
        reach = np.zeros((3 * _CELL, 3 * _CELL))
        for r in range(lo, hi, step):
            rows = u[r : min(r + step, hi)]
            reach += _line_rows(rows[:, 0], first[0]).T @ _line_rows(rows[:, 1], first[1])
        lattice[near] += reach.reshape(3, _CELL, 3, _CELL).swapaxes(1, 2).reshape(9, _CELL, _CELL)
    lattice *= lattice
    return float(lattice.sum()) * _SPACING**2 / math.pi


def lattice_pair_sum(x: np.ndarray, tau: float) -> float:
    """``sum_ij exp(-|x_i - x_j|^2 / (4 tau^2))`` over every ordered pair of
    the planar samples ``x``, as ``h^2 sum_k F_k^2 / pi`` on a lattice of
    spacing ``h = _SPACING`` in units of tau (``kernels.GmmKernel`` derives
    the identity and its error). Groups of samples more than twice the
    reach apart (``_groups``) are summed on lattices of their own, and a
    group of one point, repeated m times, as ``m^2`` exactly."""
    total = 0.0
    for group in _groups(x, 2.0 * _REACH * tau):
        total += float(len(group)) ** 2 if (group == group[0]).all() else _group_sum(group, tau)
    return total


def gauss_grad(k: np.ndarray, a: np.ndarray, b: np.ndarray, coef, var: float) -> np.ndarray:
    """``sum_j coef_j grad_a K(a_i, b_j)`` from the Gaussian kernel matrix ``k``
    of variance ``var``, ``grad_a K = K (b - a) / var``: one product ``s = k @
    [coef b, coef]`` against a |b| x (d + 1) right-hand side, with no |a| x |b|
    temporary, gives ``(s[:, :d] - s[:, d:] a) / var``. A ``coef`` of shape
    (m, |b|) stacks m vectors: one matmul, one BLAS call and its bits per slice."""
    s = k @ np.concatenate([coef[..., None] * b, coef[..., None]], axis=-1)
    return (s[..., :-1] - s[..., -1:] * a) / var
