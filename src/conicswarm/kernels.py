"""Problem kernels: model kernel K, observation inner products and audits.

Every concrete model implements four vectorized primitives, each with an
optional mini-batch restriction ``idx`` (``None`` means the exact,
full-data quantity):

* ``kernel_matrix(A, B, idx)``        -- K(a_i, b_j), shape (|A|, |B|)
* ``weighted_grad1_kernel(A, B, c, idx)`` -- sum_j c_j * grad_a K(a_i, b_j)
* ``y_inner_many(T, idx)``            -- <y, phi_t> per row of T
* ``grad_y_inner_many(T, idx)``       -- gradient of the above

the value-side twin of ``weighted_grad1_kernel``, whose default is
``kernel_matrix(A, B, idx) @ c`` and which ReLU forms in feature space,
``relu(X A)' (relu(X B) c) / m``, in O(m (|A| + |B|) d) without the
|A| x |B| matrix,

* ``weighted_kernel(A, B, c, idx)``   -- sum_j c_j K(a_i, b_j)

and one fused evaluator of the unsigned certificate field,

* ``certificate_field(T, S, c, idx)`` -- ``(K(T, S) c - <y, phi_T>,
  sum_j c_j grad K(T, s_j) - grad <y, phi_T>)``

which builds one kernel matrix and one data-side density (for ReLU, one
activation array and no kernel matrix) for both values and gradients and
matches ``weighted_kernel``, ``y_inner_many``, ``weighted_grad1_kernel``
and ``grad_y_inner_many`` bit for bit. Two more evaluators serve the
solver's value-only calls:

* ``certificate_values(T, S, c, idx)`` -- the values of
  ``certificate_field`` alone, by default
  ``weighted_kernel(T, S, c, idx) - y_inner_many(T, idx)``; ReLU builds
  one activation of T (reused for S when S equals T) with the same
  expression as its ``certificate_field``, so all three agree bit for bit;
* ``objective_value(T, w, s, kappa)`` -- the exact objective of a
  non-empty swarm, by default the expanded
  ``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K(T, T) c`` with
  ``c = s w``. ReLU sums the residual
  ``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)`` over row blocks of at
  most ``_ROW_BLOCK_ENTRIES`` activations (1 MiB) in one reused buffer,
  so its temporaries stay that size whatever n is (one row of p entries
  once p exceeds the block).

A batch restriction averages per-sample quantities, so
``idx = arange(n)`` reproduces the exact one.

Gaussian entries are finished in place from sums of squared coordinate
differences, so each depends on its two points alone: a row has the same
bits whatever else shares the call, and ``K(A, B)`` is ``K(B, A)'`` exactly.
So ``GmmKernel`` averages exact data-side densities over row blocks of
``_ROW_BLOCK_ENTRIES`` entries with the bits of one n-wide array, and inside
``run_scope``, the span of one ``runner.run`` call, it takes each support's
kernel matrix, and in a full-batch run its data-side rows, from the
previous iteration's pushed and candidate evaluations, and the candidates'
batch rows from the pushed evaluation's fetch.

``ReluKernel`` keeps, inside ``run_scope``, its last value-only evaluation
at the support: the batch rows, their targets and the support's network
output ``u = relu(X_b S) c``. The candidates, scored against the pushed
support on the same batch, read them and build only their own activation;
the products see the same operands, so the values keep their bits.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .domain import Ball, Box, Domain, grid_points

__all__ = [
    "KernelModel",
    "SyntheticKernel",
    "GmmKernel",
    "ReluKernel",
    "AssumptionBounds",
    "audit_assumptions",
]


def _rows(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, dim) if x.size else x.reshape(0, dim)
    return x


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (|a|, |b|), as sums of
    squared coordinate differences in one buffer: each entry depends on its
    two points alone, whatever else shares the call, and loses no digits far
    from the origin."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    for j in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        diff *= diff
        d2 += diff
    return d2


def gauss_density(a: np.ndarray, b: np.ndarray, var: float, dim: int) -> np.ndarray:
    """Isotropic Gaussian density N(a; b, var*I) evaluated pairwise, finished
    in the distance buffer."""
    d2 = _sqdist(a, b)
    d2 /= -2.0 * var
    np.exp(d2, out=d2)
    d2 *= (2.0 * np.pi * var) ** (-dim / 2.0)
    return d2


#: pair terms per temporary block in ``_exp_sum``
_BLOCK_ENTRIES = 2_000_000
#: entries per row block of an n-long evaluation: ``ReluKernel.objective_value``'s
#: activations and ``GmmKernel``'s exact data-side means (1 MiB)
_ROW_BLOCK_ENTRIES = 2**17
#: leading coordinates that index the cell list of ``_close_pair_sum``
_CELL_DIMS = 3


def _exp_sum(x: np.ndarray, m: int, scale: float) -> float:
    """``sum_ij w_ij exp(-|x_i - x_j|^2 / scale)`` over ``i < m``, with
    ``w_ij = 1`` for ``j < m`` and 2 otherwise: the first ``m`` rows
    against themselves once and against the rest twice.

    Each row block, at most ``_BLOCK_ENTRIES`` terms, meets only itself
    and the columns after it, the latter counted twice, so every unordered
    pair is evaluated once, its distance by ``_sqdist``.
    """
    step = max(1, _BLOCK_ENTRIES // len(x))
    total = 0.0
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        d2 = _sqdist(x[lo:hi], x[lo:])
        d2 *= -1.0 / scale
        terms = np.exp(d2, out=d2)
        total += float(terms[:, : hi - lo].sum()) + 2.0 * float(terms[:, hi - lo :].sum())
    return total


def _close_pair_sum(x: np.ndarray, scale: float, cutoff: float) -> float:
    """``sum_ij exp(-|x_i - x_j|^2 / scale)`` over every ordered pair closer
    than ``cutoff`` (and some farther ones), by a cell list.

    Cells have side ``cutoff / 2`` in the first ``g = min(d, 3)``
    coordinates, so two samples closer than ``cutoff`` sit in cells whose
    indices differ by at most 2 per axis. Only occupied cells are stored,
    keyed by the bytes of their indices. Each cell is summed once against
    itself and twice against the occupied cells of the forward half of its
    ``5^g`` stencil.
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
    total = 0.0
    for c, (lo, hi) in enumerate(zip(starts, ends)):
        block = [x[lo:hi]] + [x[starts[j] : ends[j]] for j in near[c] if j >= 0]
        total += _exp_sum(np.concatenate(block), hi - lo, scale)
    return total


def _gauss_grad(k: np.ndarray, a: np.ndarray, b: np.ndarray, coef, var: float) -> np.ndarray:
    """``sum_j coef_j grad_a K(a_i, b_j)`` from the Gaussian kernel matrix ``k``
    of variance ``var``, using ``grad_a K = K * (b - a) / var``."""
    k = k * coef[None, :]
    return (k @ b - k.sum(axis=1)[:, None] * a) / var


class KernelModel(ABC):
    """Abstract evaluator of the kernel and observation inner products."""

    dim: int
    #: whether per-sample kernel values differ from the exact kernel
    kernel_depends_on_samples: bool = False

    @property
    @abstractmethod
    def n_samples(self) -> int:
        """Number of data samples backing the stochastic oracle."""

    @property
    @abstractmethod
    def y_norm_sq(self) -> float:
        """Squared Hilbert norm of the observation."""

    @abstractmethod
    def kernel_matrix(self, a, b, idx=None) -> np.ndarray: ...

    def weighted_kernel(self, a, b, coef, idx=None) -> np.ndarray:
        """``sum_j coef_j K(a_i, b_j)``, shape (|a|,)."""
        return self.kernel_matrix(a, b, idx) @ np.asarray(coef, dtype=float).reshape(-1)

    @abstractmethod
    def weighted_grad1_kernel(self, a, b, coef, idx=None) -> np.ndarray: ...

    @abstractmethod
    def y_inner_many(self, t, idx=None) -> np.ndarray: ...

    @abstractmethod
    def grad_y_inner_many(self, t, idx=None) -> np.ndarray: ...

    @abstractmethod
    def certificate_field(self, t, support, coef, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """Values ``K(t, S) c - <y, phi_t>`` and their gradients in t."""

    #: evaluations kept between calls: a list inside ``run_scope``, else None
    _kept = None

    @contextmanager
    def run_scope(self):
        """The span of one solver run. A model may keep evaluations between
        calls inside it, in ``_kept``, and they are dropped on exit however it
        ends: ``GmmKernel`` keeps its last two value-only evaluations (kernel
        matrices, and data-side rows or the fetched batch), ``ReluKernel`` its
        last value-only evaluation at the support (the batch, its targets and
        the support's network output)."""
        self._kept = []
        try:
            yield
        finally:
            self._kept = None

    def certificate_values(self, t, support, coef, idx=None) -> np.ndarray:
        """Values ``K(t, S) c - <y, phi_t>`` alone, the value twin of
        ``certificate_field``."""
        return self.weighted_kernel(t, support, coef, idx) - self.y_inner_many(t, idx)

    def objective_value(self, t, weights, signs, kappa: float) -> float:
        """``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K(T, T) c`` with
        ``c = s w``: the exact objective of a non-empty swarm."""
        c = weights * signs
        k_t = signs * self.y_inner_many(t)
        quad = c @ self.weighted_kernel(t, t, c)
        return float(0.5 * self.y_norm_sq + (kappa - k_t) @ weights + 0.5 * quad)


class SyntheticKernel(KernelModel):
    """Gaussian kernel on a box with a planted sparse observation.

    ``K(s, t) = exp(-|s - t|^2 / (2 sigma^2))`` so ``K(t, t) = 1`` and the
    positivity constant is exactly ``exp(-diam(X)^2 / (2 sigma^2))``. The
    observation is the image of a planted atomic measure plus a bounded
    perturbation spread over ``n_samples`` pseudo-samples, giving the
    stochastic oracle a real (but exactly controlled) noise source.
    """

    def __init__(self, domain: Box, sigma: float, atom_weights, atom_positions,
                 n_samples: int = 64, noise_scale: float = 0.0, n_anchors: int = 3,
                 seed: int = 0, center_noise: bool = False):
        if not isinstance(domain, Box):
            raise TypeError("SyntheticKernel expects a Box domain")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.domain = domain
        self.sigma = float(sigma)
        self.dim = domain.dim
        self.atom_weights = np.asarray(atom_weights, dtype=float).reshape(-1)
        self.atom_positions = _rows(atom_positions, self.dim)
        if self.atom_positions.shape[0] != self.atom_weights.size:
            raise ValueError("atom weights and positions must agree in length")
        self._n = int(n_samples)
        if self._n < 1:
            raise ValueError("n_samples must be >= 1")
        rng = np.random.Generator(np.random.Philox(seed))
        self.anchors = domain.sample_uniform(rng, size=int(n_anchors))
        # eta[i, r]: bounded per-sample noise coefficients, mean kept explicit.
        # Centering makes the aggregate observation exactly the planted image
        # while the per-sample oracle stays noisy.
        self.eta = noise_scale * rng.uniform(-1.0, 1.0, size=(self._n, int(n_anchors)))
        if center_noise:
            self.eta = self.eta - self.eta.mean(axis=0)
        self._eta_mean = self.eta.mean(axis=0)

    @property
    def n_samples(self):
        return self._n

    @property
    def y_norm_sq(self):
        coefs = np.concatenate([self.atom_weights, self._eta_mean])
        pts = np.vstack([self.atom_positions, self.anchors])
        return float(coefs @ self.kernel_matrix(pts, pts) @ coefs)

    def noise_sup(self) -> tuple[float, float]:
        """Exact a.s. bounds on the per-sample noise of values and gradients."""
        dev = np.abs(self.eta - self._eta_mean).sum(axis=1).max() if self.eta.size else 0.0
        grad_max = np.exp(-0.5) / self.sigma  # max |grad K| for the Gaussian kernel
        return float(dev), float(dev * grad_max)

    def exact_positivity(self) -> float:
        return float(np.exp(-self.domain.diameter**2 / (2.0 * self.sigma**2)))

    def kernel_matrix(self, a, b, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        # Data-independent kernel: per-sample value equals the exact value.
        d2 = _sqdist(a, b)
        d2 /= -2.0 * self.sigma**2
        return np.exp(d2, out=d2)

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        return _gauss_grad(self.kernel_matrix(a, b), a, b, coef, self.sigma**2)

    def _noise_coef(self, idx):
        if idx is None:
            return self._eta_mean
        return self.eta[np.asarray(idx, dtype=int)].mean(axis=0)

    def y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        core = self.kernel_matrix(t, self.atom_positions) @ self.atom_weights
        return core + self.kernel_matrix(t, self.anchors) @ self._noise_coef(idx)

    def grad_y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        g = self.weighted_grad1_kernel(t, self.atom_positions, self.atom_weights)
        return g + self.weighted_grad1_kernel(t, self.anchors, self._noise_coef(idx))

    def certificate_field(self, t, support, coef, idx=None):
        t = _rows(t, self.dim)
        support = _rows(support, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        var = self.sigma**2
        noise = self._noise_coef(idx)
        k_s = self.kernel_matrix(t, support)
        k_atoms = self.kernel_matrix(t, self.atom_positions)
        k_anchors = self.kernel_matrix(t, self.anchors)
        vals = k_s @ coef - (k_atoms @ self.atom_weights + k_anchors @ noise)
        grads = _gauss_grad(k_s, t, support, coef, var) - (
            _gauss_grad(k_atoms, t, self.atom_positions, self.atom_weights, var)
            + _gauss_grad(k_anchors, t, self.anchors, noise, var))
        return vals, grads


class GmmKernel(KernelModel):
    """Smoothed-density kernel for mixture deconvolution in the plane.

    The feature of a location t is the Gaussian density N(.; t, (1+tau^2) I)
    in L2, so the kernel is ``K(s, t) = N(s; t, 2 (1+tau^2) I)`` and the
    observation inner product averages ``N(X_i; t, (1+2 tau^2) I)`` over the
    data. The kernel itself carries no data dependence; only the
    observation side is estimated per sample.

    ``|y|^2 = n^-2 sum_ij N(X_i; X_j, 2 tau^2 I)`` skips the pairs farther
    apart than r, ``r^2 = 4 tau^2 (ln n + 60 ln 2)``. Each skipped term is at
    most ``c exp(-r^2 / (4 tau^2)) = c 2^-60 / n`` with
    ``c = (4 pi tau^2)^(-d/2)``, and the diagonal alone contributes ``n c``,
    so the at most n^2 skipped terms change the sum by a relative 2^-60 or
    less.

    Exact data-side means that are not kept (``y_inner_many``, and so the
    loss; ``certificate_values`` outside a run scope, and so
    ``kkt_residual``) are built and averaged in row blocks of at most
    ``_ROW_BLOCK_ENTRIES`` densities, so no |T| x n array is held.

    Inside ``run_scope`` the model keeps one record: its two most recent
    value-only evaluations, each ``(T bytes, S bytes, K(T, S), rows, means,
    batch)``. Exact evaluations keep the data-side density rows and their
    means; mini-batch ones keep ``batch``, the index bytes and the sample
    rows fetched, and an evaluation on a kept batch takes those rows. In the
    loop these are the pushed support ``T'`` against itself and the birth
    candidates ``C`` against ``T'`` on the same batch, and the next support
    is ``T'`` followed by the accepted candidates unless a particle died.
    So an evaluation at ``t == support`` (``certificate_field``, and
    ``certificate_values`` too) whose ``t`` is the kept ``T'`` followed by
    rows of the kept ``C`` takes ``K(T', T')``, the born rows of
    ``K(C, T')`` and their transpose, and for an exact evaluation the kept
    rows and means; it builds only ``K(C_born, C_born)``. Every other
    evaluation builds fresh. The kept arrays are read-only and are dropped
    when the scope ends.
    """

    def __init__(self, data: np.ndarray, tau: float):
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 2 or self.data.size == 0:
            raise ValueError("data must be a non-empty (n, d) array")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data must be finite")
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)
        self.dim = self.data.shape[1]
        self._kvar = 2.0 * (1.0 + tau**2)
        self._yvar = 1.0 + 2.0 * tau**2
        self._y_norm_sq = None

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def y_norm_sq(self):
        if self._y_norm_sq is None:
            n, scale = self.n_samples, 4.0 * self.tau**2
            cutoff = math.sqrt(scale * (math.log(n) + 60.0 * math.log(2.0)))
            norm = (math.pi * scale) ** (-self.dim / 2.0)
            self._y_norm_sq = norm * _close_pair_sum(self.data, scale, cutoff) / n**2
        return self._y_norm_sq

    def kernel_matrix(self, a, b, idx=None):
        return gauss_density(_rows(a, self.dim), _rows(b, self.dim), self._kvar, self.dim)

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        return _gauss_grad(self.kernel_matrix(a, b), a, b, coef, self._kvar)

    def _batch(self, idx):
        """The sample rows of the batch ``idx`` (all of them for None), from
        the kept record when it holds a fetch of the same indices."""
        if idx is None:
            return self.data
        idx = np.asarray(idx, dtype=int)
        key = idx.tobytes()
        kept = next((e[5][1] for e in self._kept or () if e[5] and e[5][0] == key), None)
        return self.data[idx] if kept is None else kept

    def _density(self, t, x):
        """Density rows ``N(t_i; x_j, (1 + 2 tau^2) I)`` over the samples
        ``x`` and their means."""
        rows = gauss_density(t, x, self._yvar, self.dim)
        return rows, rows.mean(axis=1)

    def _exact_means(self, t):
        """``<y, phi_t>`` exactly, built and averaged in blocks of at most
        ``_ROW_BLOCK_ENTRIES`` densities (one row of n once n exceeds it)."""
        out = np.empty(len(t))
        step = max(1, _ROW_BLOCK_ENTRIES // self.n_samples)
        for lo in range(0, len(t), step):
            out[lo : lo + step] = self._density(t[lo : lo + step], self.data)[1]
        return out

    def y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        return self._exact_means(t) if idx is None else self._density(t, self._batch(idx))[1]

    def grad_y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        x = self._batch(idx)
        k, y = self._density(t, x)
        return (k @ x / x.shape[0] - y[:, None] * t) / self._yvar

    def _reuse(self, t, support):
        """``(K(t, t), rows, means)`` from the kept record when ``t`` is the
        support and the kept ``T'`` followed by rows of the kept ``C`` (see
        the class docstring), with ``rows`` and ``means`` None unless both
        evaluations were exact; None when the record does not apply."""
        pushed = next((e for e in reversed(self._kept or ()) if e[0] == e[1]), None)
        if pushed is None or not np.array_equal(t, support):
            return None
        points, _, k_pp, rows, means, _ = pushed
        p = len(k_pp)
        if t[:p].tobytes() != points:
            return None
        if len(t) == p:
            return k_pp, rows, means
        cand = next((e for e in self._kept if e is not pushed and e[1] == points), None)
        if cand is None:
            return None
        point = np.dtype((np.void, 8 * self.dim))
        match = np.frombuffer(t[p:].tobytes(), point)[:, None] == np.frombuffer(cand[0], point)
        if not match.any(axis=1).all():
            return None
        born = match.argmax(axis=1)
        k = np.empty((len(t), len(t)))
        k[:p, :p] = k_pp
        k[p:, :p] = cand[2][born]
        k[:p, p:] = k[p:, :p].T
        k[p:, p:] = self.kernel_matrix(t[p:], t[p:])
        if rows is None or cand[3] is None:
            return k, None, None
        return k, np.vstack([rows, cand[3][born]]), np.concatenate([means, cand[4][born]])

    def _inputs(self, t, support, idx, x):
        """``K(t, support)``, the density rows over the batch ``x`` and their
        means, from the kept record where it applies."""
        k, rows, means = self._reuse(t, support) or (self.kernel_matrix(t, support), None, None)
        if rows is None or idx is not None:
            rows, means = self._density(t, x)
        return k, rows, means

    def certificate_values(self, t, support, coef, idx=None):
        t = _rows(t, self.dim)
        support = _rows(support, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        if idx is None and self._kept is None:
            return self.kernel_matrix(t, support) @ coef - self._exact_means(t)
        x = self._batch(idx)
        k, rows, means = self._inputs(t, support, idx, x)
        vals = k @ coef - means
        if self._kept is not None:
            for a in (k, rows, means) if idx is None else (k, x):
                a.flags.writeable = False
            data_side = (rows, means, None) if idx is None else \
                (None, None, (np.asarray(idx, dtype=int).tobytes(), x))
            self._kept = self._kept[-1:] + [(t.tobytes(), support.tobytes(), k) + data_side]
        return vals

    def certificate_field(self, t, support, coef, idx=None):
        t = _rows(t, self.dim)
        support = _rows(support, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        x = self._batch(idx)
        k_s, k_y, y = self._inputs(t, support, idx, x)
        vals = k_s @ coef - y
        grads = _gauss_grad(k_s, t, support, coef, self._kvar) \
            - (k_y @ x / x.shape[0] - y[:, None] * t) / self._yvar
        return vals, grads


class ReluKernel(KernelModel):
    """Empirical two-layer ReLU kernel over a regression sample.

    Positions are neuron parameters ``t = (v, b)`` in R^{d+1}; the feature
    evaluates ``relu(<v, x_k> + b)`` across the data, with the empirical
    L2(P_n) inner product. The subgradient of relu at 0 is taken as 0.

    Weighted sums of kernel values are formed in feature space,
    ``K(A, B) c = relu(X A)' (relu(X B) c) / m``, so neither the
    certificate nor the loss builds a particle-by-particle matrix.

    Inside ``run_scope`` the model keeps one record: its last value-only
    evaluation at ``t == support``, as read-only views of the batch rows
    ``X_b``, their targets and the support's output ``u = relu(X_b S) c``,
    keyed by the bytes of the support, ``c`` and the batch indices (None for
    the exact evaluation). In the loop this is the pushed support, and the
    birth candidates are scored against it on the same batch, so they take
    ``X_b``, the targets and ``u`` from the record and build only their own
    activation. Any evaluation against another support, ``c`` or batch is
    built fresh; the record is dropped when the scope ends.
    """

    kernel_depends_on_samples = True

    def __init__(self, features: np.ndarray, targets: np.ndarray):
        self.features = np.asarray(features, dtype=float)
        self.targets = np.asarray(targets, dtype=float).reshape(-1)
        if self.features.ndim != 2 or self.features.shape[0] != self.targets.size:
            raise ValueError("features must be (n, d) matching targets")
        if self.features.shape[0] == 0:
            raise ValueError("features must hold at least one sample")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("features and targets must be finite")
        self.dim = self.features.shape[1] + 1
        self._aug = np.hstack([self.features, np.ones((self.features.shape[0], 1))])

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def y_norm_sq(self):
        return float(np.mean(self.targets**2))

    def _batch(self, idx):
        return self._aug if idx is None else self._aug[np.asarray(idx, dtype=int)]

    def _acts(self, pos, idx):
        aug = self._batch(idx)
        return aug, aug @ pos.T

    def _targets(self, idx):
        return self.targets if idx is None else self.targets[np.asarray(idx, dtype=int)]

    def kernel_matrix(self, a, b, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        aug, pre_a = self._acts(a, idx)
        act_a = np.maximum(pre_a, 0.0)
        act_b = np.maximum(aug @ b.T, 0.0)
        return act_a.T @ act_b / aug.shape[0]

    def weighted_kernel(self, a, b, coef, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        aug, pre_a = self._acts(a, idx)
        act_a = np.maximum(pre_a, 0.0)
        act_b = act_a if np.array_equal(a, b) else np.maximum(aug @ b.T, 0.0)
        return act_a.T @ (act_b @ coef) / aug.shape[0]

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        aug, pre_a = self._acts(a, idx)
        act_b = np.maximum(aug @ b.T, 0.0)
        u = act_b @ coef
        mask = pre_a > 0.0
        return (mask * u[:, None]).T @ aug / aug.shape[0]

    def y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        aug, pre = self._acts(t, idx)
        return np.maximum(pre, 0.0).T @ self._targets(idx) / aug.shape[0]

    def grad_y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        aug, pre = self._acts(t, idx)
        mask = pre > 0.0
        return (mask * self._targets(idx)[:, None]).T @ aug / aug.shape[0]

    def _field(self, t, support, coef, idx, keep=False):
        """Batch rows, pre-activations of ``t``, the network output ``u`` of
        the support on the batch, targets and values of the certificate
        field, from one activation of ``t``. The batch rows, targets and
        ``u`` are the kept record's when it was made against the same
        support, coefficients and batch; else ``u`` reuses the activation of
        ``t`` when the support equals ``t``, and with ``keep`` inside a run
        scope such an evaluation becomes the record."""
        t = _rows(t, self.dim)
        support = _rows(support, self.dim)
        coef = np.asarray(coef, dtype=float).reshape(-1)
        key = None if self._kept is None else (
            support.tobytes(), coef.tobytes(),
            None if idx is None else np.asarray(idx, dtype=int).tobytes())
        kept = next((e[1:] for e in self._kept or () if e[0] == key), None)
        aug, y, u = kept or (self._batch(idx), self._targets(idx), None)
        pre = aug @ t.T
        act = np.maximum(pre, 0.0)
        if u is None:
            at_support = np.array_equal(support, t)
            u = (act if at_support else np.maximum(aug @ support.T, 0.0)) @ coef
            if keep and at_support and key is not None:
                views = tuple(a.view() for a in (aug, y, u))
                for a in views:
                    a.flags.writeable = False
                self._kept = [(key,) + views]
        m = aug.shape[0]
        return aug, pre, u, y, act.T @ u / m - act.T @ y / m

    def certificate_values(self, t, support, coef, idx=None):
        return self._field(t, support, coef, idx, keep=True)[-1]

    def certificate_field(self, t, support, coef, idx=None):
        aug, pre, u, y, vals = self._field(t, support, coef, idx)
        m = aug.shape[0]
        mask = pre > 0.0
        grads = (mask * u[:, None]).T @ aug / m - (mask * y[:, None]).T @ aug / m
        return vals, grads

    def objective_value(self, t, weights, signs, kappa):
        """The residual ``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)``,
        ``c = s w``, over row blocks of at most ``_ROW_BLOCK_ENTRIES``
        activations in one reused buffer, so no n x p array is built."""
        t = _rows(t, self.dim)
        c = weights * signs
        n = self.n_samples
        step = max(1, _ROW_BLOCK_ENTRIES // len(c))
        buf = np.empty((min(step, n), len(c)))
        total = 0.0
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            act = buf[: hi - lo]
            np.matmul(self._aug[lo:hi], t.T, out=act)
            np.maximum(act, 0.0, out=act)
            resid = act @ c - self.targets[lo:hi]
            total += float(resid @ resid)
        return 0.5 * total / n + kappa * float(weights.sum())


@dataclass
class AssumptionBounds:
    """Empirical estimates of the regularity constants of a model.

    kernel_min    -- smallest sampled kernel value (0 flags failed positivity)
    smooth_max    -- bound on |K|, |grad K| and a finite-difference Hessian norm
    noise_sup     -- a.s. bound estimate on per-sample estimator deviations
    cert_slope    -- slope of the certificate lower bound in the TV norm
    cert_offset   -- offset of that lower bound (max |<y, phi_t>| on the grid)
    diag_gap      -- max |K(t, t) - 1|, reported for normalization warnings
    """

    kernel_min: float
    smooth_max: float
    noise_sup: float
    cert_slope: float
    cert_offset: float
    diag_gap: float = 0.0

    def __post_init__(self):
        if self.kernel_min < 0 or self.noise_sup < 0:
            raise ValueError("bounds must be nonnegative")
        if self.smooth_max < self.kernel_min:
            raise ValueError("smooth_max must dominate kernel_min")


def _grad1(model: KernelModel, s, t, idx=None) -> np.ndarray:
    """``grad_s K(s, t)`` for one pair of points, through the vectorized primitive."""
    return model.weighted_grad1_kernel(s[None, :], t[None, :], np.ones(1), idx)[0]


def _fd_hessian_norm(model: KernelModel, s, t, h: float = 1e-4) -> float:
    """Spectral norm of a central finite-difference Hessian of K in s."""
    d = model.dim
    hess = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        gp = _grad1(model, s + e, t)
        gm = _grad1(model, s - e, t)
        hess[:, j] = (gp - gm) / (2.0 * h)
    hess = 0.5 * (hess + hess.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(hess))))


def audit_assumptions(model: KernelModel, domain: Domain, grid_points_n: int,
                      rng: np.random.Generator, tv_cap: float = 1.0,
                      noise_safety: float = 1.5) -> AssumptionBounds:
    """Estimate the assumption constants by sampling the domain.

    Boxes contribute their corners to the sample (the kernel minimum of a
    radial kernel sits at maximal separation), the rest is uniform. The
    noise bound multiplies the worst observed per-sample deviation by
    ``noise_safety`` and scales kernel deviations by ``tv_cap``.
    """
    if grid_points_n < 2:
        raise ValueError("need at least two audit points")
    pts = domain.sample_uniform(rng, size=grid_points_n)
    if isinstance(domain, Box) and domain.dim <= 12:
        corners = grid_points(domain, 2)
        pts = np.vstack([pts, corners])

    kmat = model.kernel_matrix(pts, pts)
    kernel_min = max(float(kmat.min()), 0.0)
    kernel_abs_max = float(np.abs(kmat).max())
    diag = np.array([model.kernel_matrix(p[None, :], p[None, :])[0, 0]
                     for p in pts[: min(64, len(pts))]])
    diag_gap = float(np.abs(diag - 1.0).max())

    n_pairs = min(48, len(pts) - 1)
    pair_a = pts[:n_pairs]
    pair_b = pts[1 : n_pairs + 1]
    grad_norms = [float(np.linalg.norm(_grad1(model, a, b))) for a, b in zip(pair_a, pair_b)]
    inner_idx = [i for i in range(n_pairs) if _strictly_inside(domain, pair_a[i])][:12]
    hess_norms = [_fd_hessian_norm(model, pair_a[i], pair_b[i]) for i in inner_idx]
    smooth_max = max([kernel_abs_max] + grad_norms + hess_norms)

    # Per-sample deviations on a subsample of points and pairs; kernel-side
    # deviations enter scaled by the caller's TV cap since the certificate
    # weighs them by particle mass.
    n_eval = min(24, len(pts))
    eval_pts = pts[:n_eval]
    y_full = model.y_inner_many(eval_pts)
    gy_full = model.grad_y_inner_many(eval_pts)
    k_full = model.kernel_matrix(pair_a, pair_b)
    n_gpairs = min(8, n_pairs)
    gk_full = np.array([_grad1(model, pair_a[j], pair_b[j]) for j in range(n_gpairs)])
    dev_y = dev_gy = dev_k = dev_gk = 0.0
    for i in range(model.n_samples):
        one = np.array([i])
        dev_y = max(dev_y, float(np.abs(model.y_inner_many(eval_pts, one) - y_full).max()))
        dev_gy = max(dev_gy, float(
            np.linalg.norm(model.grad_y_inner_many(eval_pts, one) - gy_full, axis=1).max()))
        if not model.kernel_depends_on_samples:
            continue
        dev_k = max(dev_k, float(np.abs(model.kernel_matrix(pair_a, pair_b, one) - k_full).max()))
        gk_one = np.array([_grad1(model, pair_a[j], pair_b[j], one) for j in range(n_gpairs)])
        dev_gk = max(dev_gk, float(np.linalg.norm(gk_one - gk_full, axis=1).max()))
    noise_val = dev_y + tv_cap * dev_k
    noise_grad = dev_gy + tv_cap * dev_gk
    noise_sup = noise_safety * max(noise_val, noise_grad)

    cert_offset = float(np.abs(model.y_inner_many(pts)).max())
    return AssumptionBounds(
        kernel_min=kernel_min,
        smooth_max=smooth_max,
        noise_sup=noise_sup,
        cert_slope=kernel_min,
        cert_offset=cert_offset,
        diag_gap=diag_gap,
    )


def _strictly_inside(domain: Domain, p: np.ndarray, margin: float = 1e-3) -> bool:
    if isinstance(domain, Box):
        return bool(np.all(p > domain.lower + margin) and np.all(p < domain.upper - margin))
    if isinstance(domain, Ball):
        return bool(np.linalg.norm(p - domain.center) < domain.radius - margin)
    return True
