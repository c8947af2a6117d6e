"""Problem kernels: model kernel K, observation inner products and audits.

Every concrete model implements four vectorized primitives, each with an
optional mini-batch restriction ``idx`` (``None`` means the exact,
full-data quantity):

* ``kernel_matrix(A, B, idx)``        -- K(a_i, b_j), shape (|A|, |B|)
* ``weighted_grad1_kernel(A, B, c, idx)`` -- sum_j c_j * grad_a K(a_i, b_j)
* ``y_inner_many(T, idx)``            -- <y, phi_t> per row of T
* ``grad_y_inner_many(T, idx)``       -- gradient of the above

and one fused evaluator of the unsigned certificate field,

* ``certificate_field(T, S, c, idx)`` -- ``(K(T, S) c - <y, phi_T>,
  sum_j c_j grad K(T, s_j) - grad <y, phi_T>)``

which builds one kernel matrix and one data-side density for both values
and gradients. The mixture matches ``GaussianKernel.weighted_kernel``
(``K c`` from the unnormalized entries, the constant applied to the
product), ``y_inner_many``, ``weighted_grad1_kernel`` and
``grad_y_inner_many`` bit for bit, the synthetic model up to summation
rounding (see below). ReLU builds one activation array and no kernel
matrix, and correlates it with the residual ``r = relu(X_b S) c - y``:
values ``act' r / m``, gradients ``((X_b * r)' [act > 0])' / m`` with the
residual scaling the batch rows, equal to ``K c`` and the primitives up to
summation rounding. Value-only calls go through two more:

* ``certificate_values(T, S, c, idx)`` -- the values of
  ``certificate_field`` alone, ``candidate_values(_evaluation(S, c, idx),
  T)`` for every model. The Gaussian models' agree with the field bit for
  bit; ReLU forms the residual over the row blocks of ``relu_outputs`` and
  the values over chunks of points, so it holds no m x |T| array and has
  the field's bits within one block and one chunk;
* ``objective_value(T, w, s, kappa)`` -- the exact objective of a
  non-empty swarm. Both Gaussian models take the expanded
  ``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K(T, T) c`` with
  ``c = s w``, the last term from ``weighted_kernel``. ReLU sums the residual
  ``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)`` over the 1 MiB row
  blocks of ``relu_outputs``, so its memory does not grow with n.

A batch restriction averages per-sample quantities, so
``idx = arange(n)`` reproduces the exact one.

A solver iteration scores one pushed measure ``(T', c)`` on one batch
twice, and three loop evaluations hand what the two share on as an
explicit value ``ev`` (each class says what its ``ev`` holds), which no
call writes after ``pushed_values`` returns it; they have the bits of the
stateless calls (ReLU's within one block and one chunk):

* ``pushed_values(T', c, idx)`` -- ``certificate_values(T', T', c, idx)``
  for the death step, and ``ev``, by default ``_evaluation(T', c, idx)``;
* ``candidate_values(ev, C)`` -- ``certificate_values(C, T', c, idx)``;
* ``support_field(T, c, idx, ev, keep)`` -- the next iteration's
  ``certificate_field(T, T, c, idx)`` at ``T = [T'[keep]; born]``, the
  survivors under the boolean mask ``keep``, then the born candidates.

ReLU's ``pushed_values`` takes ``r`` and the values from the field's one
activation. The mixture's ``ev`` also holds the product ``K(T', T') c``,
and its ``support_field`` reads it in place of its own when every particle
survived, none was born and its ``c`` has the bytes of ``ev``'s (any
coefficients are accepted, so the bytes are compared), as in most
iterations.

``GaussianKernel`` is the kernel side of both Gaussian models,
``K(a, b) = knorm exp(-|a - b|^2 / (2 kvar))``: ``SyntheticKernel`` has
``kvar = sigma^2`` and ``knorm = 1``, ``GmmKernel`` the variance and
density constant of ``N(.; b, kvar I)``. ``_gauss_finish`` finishes every
entry in place by one multiply and one exp from ``_sqdist``'s sums of
squared coordinate differences, so each depends on its two points alone: a
row has the same bits whatever else shares the call, and ``K(A, B)`` is
``K(B, A)'`` exactly. From ``_PRODUCT_ENTRIES`` entries on, each
coordinate's differences are one BLAS product ``[a, 1] @ [1; -b]``, exact
up to the sign of a zero for any BLAS summation order, FMA use or thread
split. ``knorm`` multiplies the sums the entries are reduced to, ``K c``
and the gradients ``sum_j c_j grad_a K(a_i, b_j)`` (one product
``K(A, B) @ [c B, c]``); only ``kernel_matrix`` carries it entry by entry.
A set against itself is the upper triangle of row blocks, mirrored, with
the bits of the full build. The synthetic observation is the point set
``[atoms; anchors]`` weighted by ``[w; eta_b]``, read by one product, and a
certificate the weighted kernel of ``P = [S; atoms; anchors]`` with
``q = [c; -w; -eta_b]``, ``ev = (P, q)``; a batch's noise mean ``eta_b`` is
``bincount(idx) @ eta / |idx|``, with no |idx| x r gather. The mixture
keeps its own data side: densities of a second variance, averaged over row
blocks of ``_ROW_BLOCK_ENTRIES`` entries with the bits of one n-wide array.

``audit_assumptions`` runs no Python loop over samples or pairs. It reads
the diagonal ``K(t, t)`` from the kernel matrix of its points, takes every
pair gradient and finite-difference Hessian column from one batched
``_pair_grad1`` call and the Hessians' eigenvalues from one stacked
``eigvalsh``, and takes per-sample values (``_sample_y``, and ReLU's
``_sample_kernel``) over chunks of samples whose arrays hold at most
``_ROW_BLOCK_ENTRIES`` entries. The Gaussian pair gradients are ``_grads``
of the diagonal of ``_kernel(A, B)``, one pair per stacked slice, so these
models' bounds have the bits of one call per pair and per sample; ReLU's
batched products sum in another order, so its bounds may move by rounding,
within a relative 1e-9 (see the function).
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .domain import Box, Domain, grid_points

__all__ = [
    "KernelModel",
    "GaussianKernel",
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


#: pairwise entries from which ``_sqdist`` forms coordinate differences as a
#: product. Below it the product's set-up costs more than it saves: in d = 2
#: on a Xeon core with OpenBLAS 0.3.31 on one thread, 15 us against 10 us at
#: 8 x 8, about even at 48 x 48, 22 us against 27 us at 64 x 64 and 34 us
#: against 62 us at 128 x 128
_PRODUCT_ENTRIES = 4096


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (|a|, |b|), as sums of
    squared coordinate differences in one buffer: each entry depends on its
    two points alone, whatever else shares the call, and loses no digits far
    from the origin. Only the squares are returned, never the differences.

    From ``_PRODUCT_ENTRIES`` entries on, each coordinate's differences
    ``a_i - b_j`` are one small product, ``[a_:,j, 1] @ [1; -b_:,j]``. Its
    terms are products by 1, so exact, and the sum of two terms is rounded
    once: every difference is the correctly rounded ``a_i - b_j`` of
    ``np.subtract.outer`` whatever the BLAS summation order, FMA use or
    thread split. Only the sign of a zero difference may differ, and the
    square removes it.
    """
    if len(a) * len(b) < _PRODUCT_ENTRIES:
        def diff(j):
            return np.subtract.outer(a[:, j], b[:, j])
    else:
        left, right = np.empty((len(a), 2)), np.empty((2, len(b)))
        left[:, 1] = right[0] = 1.0

        def diff(j):
            left[:, 0] = a[:, j]
            np.negative(b[:, j], out=right[1])
            return left @ right
    d2 = diff(0)
    d2 *= d2
    for j in range(1, a.shape[1]):
        dj = diff(j)
        dj *= dj
        d2 += dj
    return d2


def _gauss_finish(d2: np.ndarray, var: float) -> np.ndarray:
    """``exp(-d2 / (2 var))`` from ``d2 = |a - b|^2``, in place, by one
    multiply and one exp: the Gaussian density ``N(a; b, var*I)`` without
    its constant ``_gauss_norm(var, d)``, which callers apply to the sums
    they reduce the entries to."""
    d2 *= -0.5 / var
    return np.exp(d2, out=d2)


def _gauss_norm(var: float, dim: int) -> float:
    """The constant ``(2 pi var)^(-d/2)`` of the density ``N(.; b, var*I)``."""
    return (2.0 * np.pi * var) ** (-dim / 2.0)


def gauss_density(a: np.ndarray, b: np.ndarray, var: float) -> np.ndarray:
    """Isotropic Gaussian density N(a; b, var*I) evaluated pairwise, without
    its constant ``_gauss_norm(var, d)``: ``exp(-|a_i - b_j|^2 / (2 var))``,
    finished in the distance buffer."""
    return _gauss_finish(_sqdist(a, b), var)


#: entries per row block of an n-long evaluation: ``relu_outputs``'s
#: activations, ``GmmKernel``'s data-side means and the audit's
#: per-sample chunks and ReLU pair gradients (1 MiB)
_ROW_BLOCK_ENTRIES = 2**17
#: entries per row block of ``_gauss_self`` and ``_exp_sum`` (256 KiB, so a
#: block and its temporaries stay in a core's cache)
_SELF_BLOCK_ENTRIES = 2**15
#: leading coordinates that index the cell list of ``_close_pair_sum``
_CELL_DIMS = 3


def _upper_blocks(x: np.ndarray, m: int, step: int, pairwise):
    """``(lo, hi, pairwise(x[lo:hi], x[lo:]))`` over row blocks of ``step``
    rows of the first ``m`` rows of ``x``: each block meets itself and the
    rows after it, so every unordered pair with a row among the first ``m``
    is evaluated once."""
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        yield lo, hi, pairwise(x[lo:hi], x[lo:])


def _exp_sum(x: np.ndarray, m: int, scale: float) -> float:
    """``sum_ij w_ij exp(-|x_i - x_j|^2 / scale)`` over ``i < m``, with
    ``w_ij = 1`` for ``j < m`` and 2 otherwise: the first ``m`` rows
    against themselves once and against the rest twice, in cache-sized
    ``_upper_blocks`` of at most ``_SELF_BLOCK_ENTRIES`` terms.
    """
    total = 0.0
    for lo, hi, d2 in _upper_blocks(x, m, max(1, _SELF_BLOCK_ENTRIES // len(x)), _sqdist):
        terms = _gauss_finish(d2, 0.5 * scale)  # -0.5 / (0.5 scale) is -1 / scale exactly
        total += float(terms[:, : hi - lo].sum()) + 2.0 * float(terms[:, hi - lo :].sum())
    return total


def _gauss_self(x: np.ndarray, var: float) -> np.ndarray:
    """``gauss_density(x, x, var)`` from the upper triangle: by
    ``_upper_blocks`` of at most ``_SELF_BLOCK_ENTRIES`` entries, each
    mirrored below the diagonal. Entries are pair-local and
    ``K(a, b) = K(b, a)`` bit for bit, so the result has the bits of the
    full build."""
    p = len(x)
    if p * p <= _SELF_BLOCK_ENTRIES:
        return gauss_density(x, x, var)
    k = np.empty((p, p))
    for lo, hi, block in _upper_blocks(x, p, max(1, _SELF_BLOCK_ENTRIES // p),
                                       lambda s, t: gauss_density(s, t, var)):
        k[lo:hi, lo:] = block
        k[hi:, lo:hi] = block[:, hi - lo :].T
    return k


def _close_pair_sum(x: np.ndarray, scale: float, cutoff: float) -> float:
    """``sum_ij exp(-|x_i - x_j|^2 / scale)`` over every ordered pair closer
    than ``cutoff`` (and some farther ones), by a cell list.

    Cells have side ``cutoff / 2`` in the first ``g = min(d, 3)``
    coordinates, so two samples closer than ``cutoff`` sit in cells whose
    indices differ by at most 2 per axis. Only occupied cells are stored,
    keyed by the bytes of their indices. ``_exp_sum`` sums each cell once
    against itself and twice against the occupied cells of the forward half
    of its ``5^g`` stencil, in tiles of at most ``_SELF_BLOCK_ENTRIES`` terms.
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
    of variance ``var``, ``grad_a K = K (b - a) / var``: one product ``s = k @
    [coef b, coef]`` against a |b| x (d + 1) right-hand side, with no |a| x |b|
    temporary, gives ``(s[:, :d] - s[:, d:] a) / var``. A ``coef`` of shape
    (m, |b|) stacks m vectors: one matmul, one BLAS call and its bits per slice."""
    s = k @ np.concatenate([coef[..., None] * b, coef[..., None]], axis=-1)
    return (s[..., :-1] - s[..., -1:] * a) / var


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``x``, each from the dot product that
    ``np.linalg.norm`` of that row alone takes: one BLAS dot per row."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


class KernelModel(ABC):
    """Abstract evaluator of the kernel and observation inner products."""

    dim: int
    #: whether per-sample kernel values differ from the exact kernel; such a
    #: model also gives the audit its per-sample kernel, ``_sample_kernel``
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

    @abstractmethod
    def weighted_grad1_kernel(self, a, b, coef, idx=None) -> np.ndarray: ...

    @abstractmethod
    def y_inner_many(self, t, idx=None) -> np.ndarray: ...

    @abstractmethod
    def grad_y_inner_many(self, t, idx=None) -> np.ndarray: ...

    @abstractmethod
    def certificate_field(self, t, support, coef, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """Values ``K(t, S) c - <y, phi_t>`` and their gradients in t."""

    def _operands(self, a, b, coef):
        """Two point sets as rows of positions and ``coef`` as a flat array."""
        return _rows(a, self.dim), _rows(b, self.dim), np.asarray(coef, dtype=float).reshape(-1)

    @abstractmethod
    def _evaluation(self, support, coef, idx):
        """``ev``: what ``candidate_values`` reads of the measure ``(S, c)``
        on the batch ``idx``."""

    @abstractmethod
    def candidate_values(self, ev, t) -> np.ndarray:
        """Values ``K(t, S) c - <y, phi_t>`` of the measure and batch of ``ev``."""

    def certificate_values(self, t, support, coef, idx=None) -> np.ndarray:
        """Values ``K(t, S) c - <y, phi_t>`` alone."""
        return self.candidate_values(self._evaluation(support, coef, idx), t)

    def pushed_values(self, support, coef, idx=None):
        """``(certificate_values(S, S, c, idx), ev)`` at the pushed support
        S, where ``ev`` is what ``candidate_values`` and ``support_field``
        share of the evaluation; by default ``_evaluation``'s."""
        ev = self._evaluation(support, coef, idx)
        return self.candidate_values(ev, support), ev

    def support_field(self, t, coef, idx, ev, keep) -> tuple[np.ndarray, np.ndarray]:
        """``certificate_field(t, t, coef, idx)`` at ``t``, ``ev``'s support
        where the mask ``keep`` holds, then the born candidates; ``ev`` and
        ``keep`` are None if no pushed evaluation came."""
        return self.certificate_field(t, t, coef, idx)

    @abstractmethod
    def objective_value(self, t, weights, signs, kappa: float) -> float:
        """The exact objective of a non-empty swarm at positions t, weights w
        and signs s."""

    @abstractmethod
    def _pair_grad1(self, a, b) -> np.ndarray:
        """``grad_a K(a_i, b_i)`` of matched rows, exact, shape (len(a), dim)."""

    @abstractmethod
    def _sample_y(self, t, rows) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``<y_i, phi_t>``, shape (m, |t|), and its gradients in t,
        shape (m, |t|, dim), for the m samples of the slice ``rows``."""

    def _sample_kernel(self, a, b, g, rows) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``K_i(a_j, b_l)``, shape (m, |a|, |b|), and
        ``grad_a K_i(a_j, b_j)`` of the first ``g`` pairs, shape (m, g, dim),
        for the m samples of the slice ``rows``. Required of models that set
        ``kernel_depends_on_samples``."""
        raise NotImplementedError(
            f"{type(self).__name__} sets kernel_depends_on_samples but has no _sample_kernel")

    def _sample_width(self) -> int:
        """Entries per sample and point of ``_sample_y``'s largest array."""
        return self.dim


class GaussianKernel(KernelModel):
    """The kernel side of a Gaussian model, ``K(a, b) = _knorm exp(-|a - b|^2
    / (2 _kvar))``, which carries no data dependence.

    Entries are built without ``_knorm`` (``_kernel``), one multiply and one
    exp each, and ``_knorm`` multiplies what they are reduced to: the
    products ``K c`` (``_values``) and ``_gauss_grad``'s (``_grads``). Only
    ``kernel_matrix`` multiplies every entry, so it returns the kernel.
    """

    _kvar: float
    _knorm: float

    def _kernel(self, a, b):
        """``K(a, b)`` without its constant ``_knorm``; a set against itself
        by the symmetric build."""
        if a is b or (a.shape == b.shape and np.array_equal(a, b)):
            return _gauss_self(a, self._kvar)
        return gauss_density(a, b, self._kvar)

    def kernel_matrix(self, a, b, idx=None):
        k = self._kernel(_rows(a, self.dim), _rows(b, self.dim))
        k *= self._knorm
        return k

    def _values(self, k, coef):
        """``K c`` from the unnormalized kernel ``k``."""
        return (k @ coef) * self._knorm

    def _grads(self, k, a, b, coef):
        """``sum_j c_j grad_a K(a_i, b_j)`` from the unnormalized kernel ``k``."""
        return _gauss_grad(k, a, b, coef, self._kvar) * self._knorm

    def weighted_kernel(self, a, b, coef, idx=None):
        """``sum_j coef_j K(a_i, b_j)``, shape (|a|,)."""
        a, b, coef = self._operands(a, b, coef)
        return self._values(self._kernel(a, b), coef)

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        a, b, coef = self._operands(a, b, coef)
        return self._grads(self._kernel(a, b), a, b, coef)

    def _pair_grad1(self, a, b):
        """Pair-local entries, and one pair per slice of a stacked ``_grads``."""
        k = np.diagonal(self._kernel(a, b))[:, None, None]
        return self._grads(k, a[:, None], b[:, None], np.ones((len(a), 1)))[:, 0]

    def objective_value(self, t, weights, signs, kappa):
        """``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K(T, T) c`` with
        ``c = s w``."""
        c = weights * signs
        k_t = signs * self.y_inner_many(t)
        quad = c @ self.weighted_kernel(t, t, c)
        return float(0.5 * self.y_norm_sq + (kappa - k_t) @ weights + 0.5 * quad)


class SyntheticKernel(GaussianKernel):
    """Gaussian kernel on a box with a planted sparse observation.

    ``K(s, t) = exp(-|s - t|^2 / (2 sigma^2))`` so ``K(t, t) = 1`` and the
    positivity constant is exactly ``exp(-diam(X)^2 / (2 sigma^2))``. The
    observation is the image of a planted atomic measure plus a bounded
    perturbation spread over ``n_samples`` pseudo-samples, giving the
    stochastic oracle a real (but exactly controlled) noise source.

    The observation is the point set ``_fixed = [atoms; anchors]`` with the
    coefficients ``_y_coef(idx) = [w; eta_b]``, where the batch's noise mean
    ``eta_b`` comes from its sample counts: ``y_inner_many`` and
    ``grad_y_inner_many`` read one kernel matrix ``K(t, _fixed)`` by one
    product each. A certificate evaluation builds one kernel matrix
    ``K(t, P)`` of the signed point set ``P = [S; atoms; anchors]``; with the
    coefficients ``q = [c; -w; -eta_b]`` it gives the values ``K(t, P) q``
    and, by one ``_gauss_grad`` product, their gradients, and
    ``ev = (P, q)`` hands ``eta_b`` to the candidates. ``|y|^2`` is computed
    once.
    """

    def __init__(self, domain: Box, sigma: float, atom_weights, atom_positions,
                 n_samples: int = 64, noise_scale: float = 0.0, n_anchors: int = 3,
                 seed: int = 0, center_noise: bool = False):
        if not isinstance(domain, Box):
            raise TypeError("SyntheticKernel expects a Box domain")
        if not (sigma > 0 and np.finfo(float).tiny <= sigma * sigma < math.inf):
            raise ValueError("sigma must be positive with a finite square that is a normal float")
        self.domain = domain
        self.sigma = float(sigma)
        self._kvar, self._knorm = self.sigma**2, 1.0
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
        # the fixed points of <y, phi_t>, stacked once: atoms, then anchors
        self._fixed = np.vstack([self.atom_positions, self.anchors])
        self._y_norm_sq = None

    @property
    def n_samples(self):
        return self._n

    @property
    def y_norm_sq(self):
        if self._y_norm_sq is None:
            coefs = self._y_coef(None)
            self._y_norm_sq = float(coefs @ self.kernel_matrix(self._fixed, self._fixed) @ coefs)
        return self._y_norm_sq

    def noise_sup(self) -> tuple[float, float]:
        """Exact a.s. bounds on the per-sample noise of values and gradients."""
        dev = np.abs(self.eta - self._eta_mean).sum(axis=1).max() if self.eta.size else 0.0
        grad_max = np.exp(-0.5) / self.sigma  # max |grad K| for the Gaussian kernel
        return float(dev), float(dev * grad_max)

    def _y_coef(self, idx):
        """``[w; eta_b]``: the observation's coefficients on ``_fixed``, with
        the batch ``idx``'s mean noise from its sample counts."""
        eta = self._eta_mean if idx is None else \
            np.bincount(idx, minlength=self._n) @ self.eta / len(idx)
        return np.concatenate([self.atom_weights, eta])

    def y_inner_many(self, t, idx=None):
        return self._values(self._kernel(_rows(t, self.dim), self._fixed), self._y_coef(idx))

    def grad_y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        return self._grads(self._kernel(t, self._fixed), t, self._fixed, self._y_coef(idx))

    def _evaluation(self, support, coef, idx):
        """The certificate's signed point set ``P = [S; atoms; anchors]`` and
        its coefficients ``q = [c; -w; -eta_b]``."""
        support, _, coef = self._operands(support, support, coef)
        return np.vstack([support, self._fixed]), np.concatenate([coef, -self._y_coef(idx)])

    def candidate_values(self, ev, t):
        return self._values(self._kernel(_rows(t, self.dim), ev[0]), ev[1])

    def certificate_field(self, t, support, coef, idx=None):
        t = _rows(t, self.dim)
        points, q = self._evaluation(support, coef, idx)
        k = self._kernel(t, points)
        return self._values(k, q), self._grads(k, t, points, q)

    def _sample_y(self, t, rows):
        """``y_inner_many`` and ``grad_y_inner_many`` of each sample, whose
        coefficients are ``[w; eta[i]]``, stacked. Both products are stacked
        ``matmul`` calls, which make one BLAS call per sample with the
        operands and strides of the sample's own evaluation, so the bits are
        the same; the rest is elementwise."""
        eta = self.eta[rows]
        q = np.hstack([np.broadcast_to(self.atom_weights, (len(eta), self.atom_weights.size)),
                       eta])
        k = self._kernel(t, self._fixed)
        return np.matmul(k, q[:, :, None])[..., 0] * self._knorm, self._grads(k, t, self._fixed, q)

    def _sample_width(self):
        return max(self.dim, len(self._fixed))


class GmmKernel(GaussianKernel):
    """Smoothed-density kernel for mixture deconvolution in the plane.

    The feature of a location t is the Gaussian density N(.; t, (1+tau^2) I)
    in L2, so the kernel is ``K(s, t) = N(s; t, 2 (1+tau^2) I)`` and the
    observation inner product averages ``N(X_i; t, (1+2 tau^2) I)`` over the
    data. The kernel itself carries no data dependence; only the
    observation side is estimated per sample.

    Both variances' entries are built without their constants: the kernel's
    by ``GaussianKernel``, the data side's by ``gauss_density``, one multiply
    and one exp each. ``_ynorm = (2 pi yvar)^(-d/2)`` multiplies what the
    densities are reduced to, the row means and ``k_y @ x``, as ``_knorm``
    does the kernel's. Every kernel entry is at most ``_knorm`` and every
    density at most ``_ynorm``, so a tau that leaves either below the
    smallest normal float is refused: every value would vanish.

    ``|y|^2 = n^-2 sum_ij N(X_i; X_j, 2 tau^2 I)`` skips the pairs farther
    apart than r, ``r^2 = 4 tau^2 (ln n + 60 ln 2)``. Each skipped term is at
    most ``c exp(-r^2 / (4 tau^2)) = c 2^-60 / n`` with
    ``c = (4 pi tau^2)^(-d/2)``, and the diagonal alone contributes ``n c``,
    so the at most n^2 skipped terms change the sum by a relative 2^-60 or
    less.

    Data-side means that feed no gradient (``y_inner_many``, and so the
    loss; ``candidate_values``, and so ``certificate_values`` and
    ``kkt_residual``), exact or batched, are built and averaged in row
    blocks of at most ``_ROW_BLOCK_ENTRIES`` densities, so no |T| x n array
    is held.

    In the loop ``ev`` holds the batch rows, fetched once, the unnormalized
    ``K(T', T')`` and its product ``K(T', T') c`` with the pushed
    coefficients and, in an exact run, the pushed support's data-side rows
    (unnormalized) and means. ``support_field`` takes the survivors' block
    of ``K(T', T')`` by row-order gathers of rows, then columns, which leave
    it C-ordered like a fresh build, and, in an exact run, their rows from
    ``ev`` (gathering only when something died), and builds the born rows
    ``K(T[p:], T)``, ``p = keep.sum()``, and in an exact run their
    data-side rows; all of it is pair-local, so it has fresh bits. When
    every particle survived, none was born and the coefficients have the
    bytes of ``ev``'s, it takes ``ev``'s product, the one it would form
    from the same operands. Both ``pushed_values`` and ``support_field``
    finish the data side, and a batch's rows go, before the kernel is built
    and multiplied, so fewer arrays share the cache.
    """

    def __init__(self, data: np.ndarray, tau: float):
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 2 or self.data.size == 0:
            raise ValueError("data must be a non-empty (n, d) array")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data must be finite")
        if not (tau > 0 and np.finfo(float).tiny <= tau * tau < math.inf):
            raise ValueError("tau must be positive with a finite square that is a normal float")
        self.tau = float(tau)
        self.dim = self.data.shape[1]
        self._kvar = 2.0 * (1.0 + tau**2)
        self._yvar = 1.0 + 2.0 * tau**2
        self._knorm = _gauss_norm(self._kvar, self.dim)
        self._ynorm = _gauss_norm(self._yvar, self.dim)
        if min(self._knorm, self._ynorm) < np.finfo(float).tiny:
            raise ValueError(f"tau = {self.tau!r} is too large in d = {self.dim}: the Gaussian "
                             "constants (2 pi var)^(-d/2) are below the smallest normal float")
        self._y_norm_sq = None

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def y_norm_sq(self):
        """The mean pair term times ``(4 pi tau^2)^(-d/2)``, split in two
        square-root factors so that the product overflows only where the
        value does; a value that is not a finite float is refused."""
        if self._y_norm_sq is None:
            n, scale = self.n_samples, 4.0 * self.tau**2
            cutoff = math.sqrt(scale * (math.log(n) + 60.0 * math.log(2.0)))
            # far pairs' exponents may overflow to -inf, whose exp is exactly 0
            with np.errstate(over="ignore"):
                mean = _close_pair_sum(self.data, scale, cutoff) / n**2
            try:
                half = (math.pi * scale) ** (-self.dim / 4.0)
                value = mean * half * half
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"tau = {self.tau!r} is too small in d = {self.dim}: "
                                 "|y|^2 is not a finite float")
            self._y_norm_sq = value
        return self._y_norm_sq

    def _batch(self, idx):
        """The sample rows of the batch ``idx``, all of them for None."""
        return self.data if idx is None else self.data.take(idx, axis=0)

    def _density(self, t, x):
        """Density rows ``N(t_i; x_j, (1 + 2 tau^2) I)`` over the samples
        ``x``, without their constant, and their means, with it. The means
        are ``np.mean``'s own sum and division, without its wrapper."""
        rows = gauss_density(t, x, self._yvar)
        means = np.add.reduce(rows, axis=1)
        means /= x.shape[0]
        means *= self._ynorm
        return rows, means

    def _y_grads(self, t, x, rows, means):
        """The gradients of ``<y, phi_t>`` from ``_density(t, x)``."""
        return ((rows @ x) * (self._ynorm / x.shape[0]) - means[:, None] * t) / self._yvar

    def _means(self, t, x):
        """``<y, phi_t>`` over the samples ``x``, built and averaged in blocks
        of at most ``_ROW_BLOCK_ENTRIES`` densities (one row once ``len(x)``
        exceeds it)."""
        out = np.empty(len(t))
        step = max(1, _ROW_BLOCK_ENTRIES // len(x))
        for lo in range(0, len(t), step):
            out[lo : lo + step] = self._density(t[lo : lo + step], x)[1]
        return out

    def y_inner_many(self, t, idx=None):
        return self._means(_rows(t, self.dim), self._batch(idx))

    def grad_y_inner_many(self, t, idx=None):
        t = _rows(t, self.dim)
        x = self._batch(idx)
        return self._y_grads(t, x, *self._density(t, x))

    def _sample_y(self, t, rows):
        """One sample's density row is its mean, and its gradient's products
        have one term each, so both are elementwise over the pair-local
        densities ``N(t_j; x_i, (1 + 2 tau^2) I)``, with the constant
        applied as ``_density`` and ``_y_grads`` apply it for one sample."""
        x = self.data[rows]
        k = gauss_density(t, x, self._yvar).T
        vals = k * self._ynorm
        return vals, (k[:, :, None] * x[:, None, :] * self._ynorm
                      - vals[:, :, None] * t) / self._yvar

    def _data_side(self, t, x, side=None):
        """``<y, phi_t>`` over the samples ``x`` and its gradients, from the
        density rows and means ``side`` or fresh ones; the rows go when it
        returns, before the caller builds its kernel."""
        rows, means = self._density(t, x) if side is None else side
        return means, self._y_grads(t, x, rows, means)

    def _field(self, t, support, coef, k_s, y, y_grads, kc=None):
        """Values and gradients from the unnormalized ``K(t, support)``, its
        product ``kc = K(t, support) @ coef`` if already taken, and the data
        side ``(y, y_grads)`` of ``_data_side``."""
        kc = k_s @ coef if kc is None else kc
        return kc * self._knorm - y, self._grads(k_s, t, support, coef) - y_grads

    def certificate_field(self, t, support, coef, idx=None):
        t, support, coef = self._operands(t, support, coef)
        y, y_grads = self._data_side(t, self._batch(idx))
        return self._field(t, support, coef, self._kernel(t, support), y, y_grads)

    def _evaluation(self, support, coef, idx):
        """The support, its coefficients and the batch rows."""
        support, _, coef = self._operands(support, support, coef)
        return {"support": support, "coef": coef, "x": self._batch(idx)}

    def pushed_values(self, support, coef, idx=None):
        ev = self._evaluation(support, coef, idx)
        support, coef = ev["support"], ev["coef"]
        rows, means = self._density(support, ev["x"])
        side = (rows, means) if idx is None else None
        del rows  # a batch's rows go before K(T', T') is built
        k = self._kernel(support, support)
        ev.update(k=k, kc=k @ coef, side=side)
        return ev["kc"] * self._knorm - means, ev

    def candidate_values(self, ev, t):
        t = _rows(t, self.dim)
        return self._values(self._kernel(t, ev["support"]), ev["coef"]) \
            - self._means(t, ev["x"])

    def support_field(self, t, coef, idx, ev, keep):
        if ev is None:
            return self.certificate_field(t, t, coef, idx)
        t, _, coef = self._operands(t, t, coef)
        x = self._batch(idx)
        p = int(keep.sum())
        y, y_grads = self._data_side(t, x, None if idx is not None else
                                     self._kept_side(ev["side"], keep, p, t[p:], x))
        k, kc = ev["k"], None
        if p < len(keep):
            # row-order gathers keep the block C-ordered, as a fresh build is
            k = k.compress(keep, axis=0).compress(keep, axis=1)
        elif p == len(t) and coef.tobytes() == ev["coef"].tobytes():
            kc = ev["kc"]
        if p < len(t):
            full = np.empty((len(t), len(t)))
            full[:p, :p] = k
            full[p:] = self._kernel(t[p:], t)
            full[:p, p:] = full[p:, :p].T
            k = full
        return self._field(t, t, coef, k, y, y_grads, kc)

    def _kept_side(self, side, keep, p, born, x):
        """The exact density rows and means of ``[T'[keep]; born]``: ``ev``'s
        rows of the survivors, gathered only if something died, then fresh
        rows of the born; None from a batched ``ev``, which holds no rows."""
        if side is None:
            return None
        if p < len(keep):
            side = side[0].compress(keep, axis=0), side[1][keep]
        if len(born):
            rows, means = self._density(born, x)
            side = np.vstack([side[0], rows]), np.concatenate([side[1], means])
        return side


def relu_outputs(aug: np.ndarray, t: np.ndarray, c: np.ndarray):
    """``(rows, relu(aug[rows] T') c)`` over row blocks of at most
    ``_ROW_BLOCK_ENTRIES`` activations, ``max(1, p)`` to a row, in one reused
    buffer, so no n x p array is held. A block's sums may be grouped otherwise
    than one n-wide product's: the one-shot outputs up to summation rounding."""
    n = aug.shape[0]
    step = max(1, _ROW_BLOCK_ENTRIES // max(1, len(c)))
    buf = np.empty((min(step, n), len(c)))
    for lo in range(0, n, step):
        act = buf[: min(step, n - lo)]
        np.matmul(aug[lo : lo + step], t.T, out=act)
        np.maximum(act, 0.0, out=act)
        yield slice(lo, lo + step), act @ c


class ReluKernel(KernelModel):
    """Empirical two-layer ReLU kernel over a regression sample.

    Positions are neuron parameters ``t = (v, b)`` in R^{d+1}; the feature
    evaluates ``relu(<v, x_k> + b)`` across the data, with the empirical
    L2(P_n) inner product. The subgradient of relu at 0 is taken as 0.

    The certificate and the loss read ``K(T, S) c`` in feature space,
    through the network output ``relu(X S) c``, so neither builds a
    particle-by-particle matrix. The certificate correlates the features of
    t with the residual ``r = relu(X_b S) c - y``: one product for the
    values, and one of the residual-scaled batch rows with the activation
    mask for the gradients, with one m x |t| float array for both.

    ``ev`` holds the batch rows ``X_b`` and the pushed support's residual
    ``r`` on them, so the birth candidates build only their own activation.
    """

    kernel_depends_on_samples = True

    def __init__(self, features: np.ndarray, targets: np.ndarray):
        features = np.asarray(features, dtype=float)
        self.targets = np.asarray(targets, dtype=float).reshape(-1)
        if features.ndim != 2 or features.shape[0] != self.targets.size:
            raise ValueError("features must be (n, d) matching targets")
        if features.shape[0] == 0:
            raise ValueError("features must hold at least one sample")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("features and targets must be finite")
        self.dim = features.shape[1] + 1
        self._aug = np.hstack([features, np.ones((features.shape[0], 1))])
        self.features = self._aug[:, :-1]  # a view: the samples are held once

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def y_norm_sq(self):
        return float(np.mean(self.targets**2))

    def _batch(self, idx):
        return self._aug if idx is None else self._aug.take(idx, axis=0)

    def _acts(self, pos, idx):
        aug = self._batch(idx)
        return aug, aug @ pos.T

    def _targets(self, idx):
        return self.targets if idx is None else self.targets.take(idx)

    def kernel_matrix(self, a, b, idx=None):
        a = _rows(a, self.dim)
        b = _rows(b, self.dim)
        aug, pre_a = self._acts(a, idx)
        act_a = np.maximum(pre_a, 0.0)
        act_b = np.maximum(aug @ b.T, 0.0)
        return act_a.T @ act_b / aug.shape[0]

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        a, b, coef = self._operands(a, b, coef)
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

    def _field(self, t, support, coef, idx):
        """Batch rows, activations ``act = relu(X_b t')`` of ``t``, the residual
        ``r = u - y`` of the support's network output ``u`` on the batch, and
        the certificate values ``act' r / m``. The pre-activations are
        rectified in place, so the call holds one m x |t| float array, which
        ``u`` reuses when the support equals ``t``."""
        t, support, coef = self._operands(t, support, coef)
        aug = self._batch(idx)
        act = aug @ t.T
        np.maximum(act, 0.0, out=act)
        u = (act if np.array_equal(support, t) else np.maximum(aug @ support.T, 0.0)) @ coef
        r = u - self._targets(idx)
        return aug, act, r, act.T @ r / aug.shape[0]

    def _pair_grad1(self, a, b):
        """``((X a' > 0) relu(X b')) ' X / n`` summed over row blocks of at most
        ``_ROW_BLOCK_ENTRIES`` activations."""
        n = self.n_samples
        step = max(1, _ROW_BLOCK_ENTRIES // len(a))
        out = np.zeros((len(a), self.dim))
        for lo in range(0, n, step):
            aug = self._aug[lo : lo + step]
            out += ((aug @ a.T > 0.0) * np.maximum(aug @ b.T, 0.0)).T @ aug
        return out / n

    def _sample_y(self, t, rows):
        aug = self._aug[rows]
        pre = aug @ t.T
        y = self.targets[rows][:, None]
        return np.maximum(pre, 0.0) * y, ((pre > 0.0) * y)[:, :, None] * aug[:, None, :]

    def _sample_kernel(self, a, b, g, rows):
        aug = self._aug[rows]
        pre_a = aug @ a.T
        act_b = np.maximum(aug @ b.T, 0.0)
        k = np.maximum(pre_a, 0.0)[:, :, None] * act_b[:, None, :]
        return k, ((pre_a[:, :g] > 0.0) * act_b[:, :g])[:, :, None] * aug[:, None, :]

    def _evaluation(self, support, coef, idx):
        """The batch rows and the residual ``r``, its network output from the
        blocks of ``relu_outputs``, so no m x |S| array is held."""
        support, _, coef = self._operands(support, support, coef)
        aug = self._batch(idx)
        return aug, np.concatenate([u for _, u in relu_outputs(aug, support, coef)]) \
            - self._targets(idx)

    def pushed_values(self, support, coef, idx=None):
        aug, _, r, vals = self._field(support, support, coef, idx)
        return vals, (aug, r)

    def candidate_values(self, ev, t):
        """``act' r / m`` over chunks of a multiple of 8 points with at most
        ``_ROW_BLOCK_ENTRIES`` activations (8 points once m exceeds it), so
        no m x |t| array is held. One chunk, up to ``8 max(1, 2^14 // m)``
        points, takes ``_field``'s products; more may sum in another order."""
        aug, r = ev
        t = _rows(t, self.dim)
        vals = np.empty(len(t))
        step = 8 * max(1, _ROW_BLOCK_ENTRIES // (8 * len(aug)))
        for lo in range(0, len(t), step):
            vals[lo : lo + step] = np.maximum(aug @ t[lo : lo + step].T, 0.0).T @ r
        return vals / len(aug)

    def certificate_field(self, t, support, coef, idx=None):
        """Gradients ``((X_b * r)' [act > 0])' / m``: the residual scales the
        m x (d + 1) batch rows, and the mask overwrites the activations."""
        aug, act, r, vals = self._field(t, support, coef, idx)
        mask = np.greater(act, 0.0, out=act)
        return vals, ((aug * r[:, None]).T @ mask).T / aug.shape[0]

    def objective_value(self, t, weights, signs, kappa):
        """The residual ``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)``,
        ``c = s w``, from the blocks of ``relu_outputs``, so no n x p array
        is built; at kappa = 0 twice this is the mean squared error."""
        total = 0.0
        for rows, u in relu_outputs(self._aug, _rows(t, self.dim), weights * signs):
            resid = u - self.targets[rows]
            total += float(resid @ resid)
        return 0.5 * total / self.n_samples + kappa * float(weights.sum())


@dataclass
class AssumptionBounds:
    """Empirical estimates of the regularity constants of a model.

    kernel_min    -- smallest sampled kernel value (0 flags failed positivity)
    smooth_max    -- bound on |K|, |grad K| and a finite-difference Hessian norm
    noise_sup     -- a.s. bound estimate on per-sample estimator deviations
    cert_offset   -- offset of the certificate lower bound kernel_min * tv - cert_offset
                     (max |<y, phi_t>| on the grid)
    diag_gap      -- max |K(t, t) - 1|, reported for normalization warnings
    """

    kernel_min: float
    smooth_max: float
    noise_sup: float
    cert_offset: float
    diag_gap: float = 0.0

    def __post_init__(self):
        if self.kernel_min < 0 or self.noise_sup < 0:
            raise ValueError("bounds must be nonnegative")
        if self.smooth_max < self.kernel_min:
            raise ValueError("smooth_max must dominate kernel_min")


#: factor on the worst observed per-sample deviation in the audit's noise bound
_NOISE_SAFETY = 1.5


def audit_assumptions(model: KernelModel, domain: Domain, grid_points_n: int,
                      rng: np.random.Generator, tv_cap: float = 1.0) -> AssumptionBounds:
    """Estimate the assumption constants by sampling the domain.

    Boxes contribute their corners to the sample (the kernel minimum of a
    radial kernel sits at maximal separation), the rest is uniform. The
    noise bound multiplies the worst observed per-sample deviation by
    ``_NOISE_SAFETY`` and scales kernel deviations by ``tv_cap``.

    Every step is an array evaluation. The diagonal ``K(t, t)`` of the first
    64 points is read from the kernel matrix of all points. The gradients
    ``grad_s K(s, t)`` of up to 48 neighbouring pairs and the central
    differences (step 1e-4) of the Hessians at up to 12 of them, those
    at least 1e-3 inside the domain, are one ``_pair_grad1`` call, and the
    Hessians' eigenvalues one stacked ``eigvalsh``. The per-sample
    deviations at up to 24 points are taken over chunks of samples whose
    arrays hold at most ``_ROW_BLOCK_ENTRIES`` entries.

    The Gaussian models' per-pair and per-sample values are pair-local or
    made by the BLAS calls of the one-sample evaluations, so their bounds
    have the bits of a loop over pairs and samples. ReLU's pre-activations
    of many samples and its exact pair gradients are matrix products, whose
    summation order differs from one sample's or one pair's, so its bounds
    may move by rounding. The finite-difference Hessian amplifies that most,
    to about ``n^1.5`` units in the last place; the tests hold every field
    within a relative 1e-9 of the loop's, on data in general position (a
    pre-activation within rounding of 0 can flip its mask in one form only).
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
    diag_gap = float(np.abs(np.diagonal(kmat)[:64] - 1.0).max())

    # One gradient per pair, then the finite-difference Hessians: row j of a
    # stencil block is s + h e_j (or s - h e_j), against the pair's t.
    n_pairs = min(48, len(pts) - 1)
    pair_a = pts[:n_pairs]
    pair_b = pts[1 : n_pairs + 1]
    inner = np.flatnonzero(domain.contains(pair_a, tol=-1e-3))[:12]
    d, h = model.dim, 1e-4
    step = np.eye(d) * h
    s, t = pair_a[inner][:, None, :], np.repeat(pair_b[inner], d, axis=0)
    grads = model._pair_grad1(np.vstack([pair_a, (s + step).reshape(-1, d),
                                         (s - step).reshape(-1, d)]),
                              np.vstack([pair_b, t, t]))
    g_plus, g_minus = grads[n_pairs:].reshape(2, len(inner), d, d)
    hess = ((g_plus - g_minus) / (2.0 * h)).swapaxes(1, 2)
    hess = 0.5 * (hess + hess.swapaxes(1, 2))
    smooth_max = max(kernel_abs_max, float(_row_norms(grads[:n_pairs]).max()),
                     float(np.abs(np.linalg.eigvalsh(hess)).max(initial=0.0)))

    # Per-sample deviations on a subsample of points and pairs; kernel-side
    # deviations enter scaled by the caller's TV cap since the certificate
    # weighs them by particle mass.
    eval_pts = pts[: min(24, len(pts))]
    y_full = model.y_inner_many(eval_pts)
    gy_full = model.grad_y_inner_many(eval_pts)
    n_gpairs = min(8, n_pairs)
    depends = model.kernel_depends_on_samples
    if depends:
        k_full = model.kernel_matrix(pair_a, pair_b)
        gk_full = grads[:n_gpairs]
    width = max(len(eval_pts) * model._sample_width(), n_pairs**2 if depends else 0)
    chunk = max(1, _ROW_BLOCK_ENTRIES // width)
    dev_y = dev_gy = dev_k = dev_gk = 0.0
    for lo in range(0, model.n_samples, chunk):
        rows = slice(lo, lo + chunk)
        y_one, gy_one = model._sample_y(eval_pts, rows)
        dev_y = max(dev_y, float(np.abs(y_one - y_full).max()))
        dev_gy = max(dev_gy, float(np.linalg.norm(gy_one - gy_full, axis=-1).max()))
        if depends:
            k_one, gk_one = model._sample_kernel(pair_a, pair_b, n_gpairs, rows)
            dev_k = max(dev_k, float(np.abs(k_one - k_full).max()))
            dev_gk = max(dev_gk, float(np.linalg.norm(gk_one - gk_full, axis=-1).max()))
    noise_val = dev_y + tv_cap * dev_k
    noise_grad = dev_gy + tv_cap * dev_gk
    noise_sup = _NOISE_SAFETY * max(noise_val, noise_grad)

    cert_offset = float(np.abs(model.y_inner_many(pts)).max())
    return AssumptionBounds(
        kernel_min=kernel_min,
        smooth_max=smooth_max,
        noise_sup=noise_sup,
        cert_offset=cert_offset,
        diag_gap=diag_gap,
    )
