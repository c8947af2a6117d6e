"""Kernel models: the kernel K, the observation inner products and the
solver loop's evaluations of each problem.

A model implements these members. Each evaluation takes an optional
mini-batch restriction ``idx``: ``None`` means the exact, full-data
quantity, and a batch averages per-sample quantities, so ``idx =
arange(n)`` reproduces the exact one.

* ``n_samples`` and ``y_norm_sq``;
* ``kernel_matrix(A, B, idx)`` -- K(a_i, b_j), shape (|A|, |B|);
* ``weighted_grad1_kernel(A, B, c, idx)`` -- sum_j c_j grad_a K(a_i, b_j);
* ``certificate_field(T, S, c, idx)`` -- ``(K(T, S) c - <y, phi_T>,
  sum_j c_j grad K(T, s_j) - grad <y, phi_T>)``, values and gradients
  from one kernel matrix and one data-side evaluation;
* the value form: ``_evaluation(S, c, idx)``, what the values of the
  measure ``(S, c)`` on the batch ``idx`` read, and ``candidate_values(ev,
  T)``, the values at T from it;
* ``objective_value(T, w, s, kappa)`` -- the exact objective of a
  non-empty swarm;
* the audit's hooks (``audit.audit_assumptions``): ``_pair_grad1``,
  ``_sample_y`` and ``_sample_width``, and ``_sample_kernel`` where
  ``kernel_depends_on_samples``.

``KernelModel`` derives the rest from them:

* ``certificate_values(T, S, c, idx)`` -- the values of
  ``certificate_field`` alone, with its bits: ``candidate_values(
  _evaluation(S, c, idx), T)``;
* ``y_inner_many(T, idx)`` and ``grad_y_inner_many(T, idx)`` -- ``<y,
  phi_t>`` per row of T and its gradients, ``0.0 - v`` of the values and
  gradients v of the zero measure's certificate (an empty support), which
  is ``-<y, phi_t>``. Negation is exact, and ``0.0 - v`` returns a zero
  as +0.0.

Point sets are (k, d) float arrays and coefficients 1-D float arrays, as
the program's entry points make them; the models convert no operand.

A solver iteration scores one pushed measure ``(T', c)`` on one batch at
its support and at the birth candidates C in one pass, and hands what the
next support field reuses on as an explicit value ``ev`` (each class says
what its ``ev`` holds), which no call writes after ``pushed_values``
returns it. The two loop evaluations have the bits of the stateless calls:

* ``pushed_values(T', c, idx, C)`` -- ``certificate_values(T', T', c,
  idx)`` for the death step, ``certificate_values(C, T', c, idx)`` for the
  births, and ``ev``;
* ``support_field(T, c, idx, ev, keep)`` -- the next iteration's
  ``certificate_field(T, T, c, idx)`` at ``T = [T'[keep]; born]``, the
  survivors under the boolean mask ``keep``, then the born candidates.

Where the two scorings share a block, ``pushed_values`` builds the rows of
``[T'; C]`` in one call and reduces each side by its own call on its row
slice. Entries are pair-local, and a matvec over a row slice of a
C-contiguous block, or ``np.add.reduce`` along its rows, gives each row the
bits of the same call on a separate array (``test_row_slices.py``), so both
sides have the bits of two separate scorings.

Every loop evaluation, and the objective at the loop's cadence, also takes
an optional ``workspace.Workspace`` ``ws``, which ``runner.run`` creates
once per run and hands on next to ``ev``; the models keep it nowhere. The
large temporaries are written into its slots through ``out=`` by the same
ufuncs and BLAS calls, so no result changes by a bit. ``ev``'s own arrays
live until the next ``pushed_values`` rewrites them, after the next
``support_field`` has read them; every other slot holds what one call uses
up. Every caller outside the loop (the objective and certificates, the
audit, ``verify``) passes no workspace.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

# ``perfbench/micro.py`` imports the audit from here
from .audit import AssumptionBounds, audit_assumptions
from .domain import Box, DomainError
from .gaussian import close_pair_sum, gauss_density, gauss_grad, gauss_norm, gauss_self
from .workspace import ROW_BLOCK_ENTRIES, SELF_BLOCK_ENTRIES, buffer, out_buffer

__all__ = ["KernelModel", "GaussianKernel", "SyntheticKernel", "GmmKernel", "ReluKernel",
           "AssumptionBounds", "audit_assumptions"]


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
    def certificate_field(self, t, support, coef, idx=None,
                          ws=None) -> tuple[np.ndarray, np.ndarray]:
        """Values ``K(t, S) c - <y, phi_t>`` and their gradients in t."""

    @abstractmethod
    def _evaluation(self, support, coef, idx):
        """``ev``: what ``candidate_values`` reads of the measure ``(S, c)``
        on the batch ``idx``."""

    @abstractmethod
    def candidate_values(self, ev, t, ws=None) -> np.ndarray:
        """Values ``K(t, S) c - <y, phi_t>`` of the measure and batch of ``ev``."""

    def certificate_values(self, t, support, coef, idx=None, ws=None) -> np.ndarray:
        """Values ``K(t, S) c - <y, phi_t>`` alone."""
        return self.candidate_values(self._evaluation(support, coef, idx), t, ws)

    def y_inner_many(self, t, idx=None, ws=None) -> np.ndarray:
        """``<y, phi_t>`` per row of t: minus the zero measure's certificate."""
        return 0.0 - self.certificate_values(t, np.empty((0, self.dim)), np.empty(0), idx, ws)

    def grad_y_inner_many(self, t, idx=None) -> np.ndarray:
        """The gradients of ``<y, phi_t>`` in t: minus the zero measure's."""
        return 0.0 - self.certificate_field(t, np.empty((0, self.dim)), np.empty(0), idx)[1]

    @abstractmethod
    def pushed_values(self, support, coef, idx, cand, ws=None):
        """``(certificate_values(S, S, c, idx), certificate_values(C, S, c,
        idx), ev)`` at the pushed support S and the birth candidates C, where
        ``ev`` is what ``support_field`` reads of the evaluation."""

    @abstractmethod
    def support_field(self, t, coef, idx, ev, keep, ws=None) -> tuple[np.ndarray, np.ndarray]:
        """``certificate_field(t, t, coef, idx)`` at ``t``, ``ev``'s support
        where the mask ``keep`` holds, then the born candidates; ``ev`` and
        ``keep`` are None if no pushed evaluation came."""

    @abstractmethod
    def objective_value(self, t, weights, signs, kappa: float, ws=None) -> float:
        """The exact objective of a non-empty swarm at positions t, weights w
        and signs s."""

    @abstractmethod
    def _pair_grad1(self, a, b) -> np.ndarray:
        """``grad_a K(a_i, b_i)`` of matched rows, exact, shape (len(a), dim)."""

    @abstractmethod
    def _sample_y(self, t, rows) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample ``<y_i, phi_t>``, shape (m, |t|), and its gradients in t,
        shape (m, |t|, dim), for the m samples of the slice ``rows``."""

    def _sample_width(self) -> int:
        """Entries per sample and point of ``_sample_y``'s largest array."""
        return self.dim


class GaussianKernel(KernelModel):
    """The kernel side of a Gaussian model, ``K(a, b) = exp(-|a - b|^2 /
    (2 _kvar))``, which carries no data dependence.

    Entries are built by ``_kernel``, one multiply and one exp each, and
    reduced to the products ``K c`` (``_values``) and ``gauss_grad``'s
    (``_grads``). ``GmmKernel`` scales these three by its kernel's constant.
    """

    _kvar: float

    def _kernel(self, a, b, ws=None, out=None):
        """``K(a, b)`` without a constant, in ``out`` or else in ``ws``'s
        ``"work"``; one array against itself (``a is b``) by the symmetric
        build."""
        if out is None:
            out = out_buffer(ws, "work", len(a), len(b))
        if a is b:
            return gauss_self(a, self._kvar, ws, out)
        return gauss_density(a, b, self._kvar, ws, out)

    def kernel_matrix(self, a, b, idx=None):
        return self._kernel(a, b)

    def _values(self, k, coef):
        """``K c`` from the kernel ``k`` of ``_kernel``."""
        return k @ coef

    def _grads(self, k, a, b, coef):
        """``sum_j c_j grad_a K(a_i, b_j)`` from the kernel ``k`` of ``_kernel``."""
        return gauss_grad(k, a, b, coef, self._kvar)

    def weighted_kernel(self, a, b, coef, idx=None, ws=None):
        """``sum_j coef_j K(a_i, b_j)``, shape (|a|,)."""
        return self._values(self._kernel(a, b, ws), coef)

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        return self._grads(self._kernel(a, b), a, b, coef)

    def _pair_grad1(self, a, b):
        """Pair-local entries, and one pair per slice of a stacked ``_grads``."""
        k = np.diagonal(self._kernel(a, b))[:, None, None]
        return self._grads(k, a[:, None], b[:, None], np.ones((len(a), 1)))[:, 0]

    def objective_value(self, t, weights, signs, kappa, ws=None):
        """``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K(T, T) c`` with
        ``c = s w``."""
        c = weights * signs
        k_t = signs * self.y_inner_many(t, None, ws)
        quad = c @ self.weighted_kernel(t, t, c, None, ws)
        return float(0.5 * self.y_norm_sq + (kappa - k_t) @ weights + 0.5 * quad)


class SyntheticKernel(GaussianKernel):
    """Gaussian kernel on a box with a planted sparse observation.

    ``K(s, t) = exp(-|s - t|^2 / (2 sigma^2))`` so ``K(t, t) = 1`` and the
    positivity constant is exactly ``exp(-diam(X)^2 / (2 sigma^2))``. The
    observation is the image of a planted atomic measure plus a bounded
    perturbation spread over ``n_samples`` pseudo-samples, giving the
    stochastic oracle a real (but exactly controlled) noise source.

    The observation is the point set ``_fixed = [atoms; anchors]`` with the
    coefficients ``[w; eta_b]``, where the batch's noise mean ``eta_b`` comes
    from its sample counts. A certificate evaluation builds one kernel
    matrix ``K(t, P)`` of the signed point set ``P = [S; atoms; anchors]``;
    with the coefficients ``q = [c; -w; -eta_b]`` (``_q``) it gives the
    values ``K(t, P) q`` and, by one ``gauss_grad`` product, their
    gradients. ``|y|^2`` is computed once.

    In the loop ``pushed_values`` builds one block ``K([T'; C], P')`` in
    ``ws``'s ``"ev.kernel"`` and takes the values at T' and at the candidates
    C from its rows ``[:p]`` and ``[p:]``, one matvec each. ``ev = (P', k)``
    holds the pushed point set and the C-contiguous view ``k = K(T', P')`` of
    the block's first p rows. When nothing died and nothing was born,
    ``T = T'`` and ``support_field`` takes the values and gradients from
    ``k`` with the new batch's ``q``; entries are pair-local, so they have
    fresh bits. Otherwise it builds the field fresh: at p of about 8,
    gathering the survivors and building the born rows costs about as much
    as a fresh build.
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
        self._kvar = self.sigma**2
        # ``_gauss_finish`` scales a squared distance of two points of the box,
        # at most ``sq_diam``, by ``-0.5 / sigma^2``; rounding is monotone
        top = domain.sq_diam * (0.5 / self._kvar)
        if not math.isfinite(top):
            raise DomainError(f"the kernel's largest exponent sum((upper - lower)^2) / "
                              f"(2 sigma^2) is {top}, not a finite float")
        self.dim = domain.dim
        self.atom_weights = np.asarray(atom_weights, dtype=float).reshape(-1)
        self.atom_positions = np.asarray(atom_positions, dtype=float)
        if self.atom_positions.ndim == 1:
            self.atom_positions = self.atom_positions.reshape(-1, self.dim)
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
        # the fixed points of <y, phi_t>, stacked once: atoms, then anchors,
        # and the exact parts of their coefficients in q, negated once
        self._fixed = np.vstack([self.atom_positions, self.anchors])
        self._neg_w, self._neg_eta_mean = -self.atom_weights, -self._eta_mean
        self._y_norm_sq = None

    @property
    def n_samples(self):
        return self._n

    @property
    def y_norm_sq(self):
        if self._y_norm_sq is None:
            coefs = np.concatenate([self.atom_weights, self._eta_mean])
            self._y_norm_sq = float(coefs @ self.kernel_matrix(self._fixed, self._fixed) @ coefs)
        return self._y_norm_sq

    def noise_sup(self) -> tuple[float, float]:
        """Exact a.s. bounds on the per-sample noise of values and gradients."""
        dev = np.abs(self.eta - self._eta_mean).sum(axis=1).max() if self.eta.size else 0.0
        grad_max = np.exp(-0.5) / self.sigma  # max |grad K| for the Gaussian kernel
        return float(dev), float(dev * grad_max)

    def _q(self, coef, idx):
        """``q = [c; -w; -eta_b]``, the coefficients of ``[S; atoms; anchors]``,
        with the batch ``idx``'s mean noise from its sample counts, in one
        concatenation. ``x / -m`` is ``-(x / m)`` bit for bit, as IEEE
        division takes its sign from its operands' and rounds symmetrically."""
        neg_eta = self._neg_eta_mean if idx is None else \
            np.bincount(idx, minlength=self._n) @ self.eta / -len(idx)
        return np.concatenate([coef, self._neg_w, neg_eta])

    def _evaluation(self, support, coef, idx):
        """The certificate's signed point set ``P = [S; atoms; anchors]`` and
        its coefficients ``q``."""
        return np.concatenate([support, self._fixed]), self._q(coef, idx)

    def pushed_values(self, support, coef, idx, cand, ws=None):
        points, q = self._evaluation(support, coef, idx)
        p = len(support)
        k = self._kernel(np.concatenate([support, cand]), points, ws,
                         out_buffer(ws, "ev.kernel", p + len(cand), len(points)))
        return k[:p] @ q, k[p:] @ q, (points, k[:p])

    def candidate_values(self, ev, t, ws=None):
        return self._values(self._kernel(t, ev[0], ws), ev[1])

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        if ev is None or len(t) != len(keep) or not keep.all():
            return self.certificate_field(t, t, coef, idx, ws)
        points, k = ev
        q = self._q(coef, idx)
        return self._values(k, q), self._grads(k, t, points, q)

    def certificate_field(self, t, support, coef, idx=None, ws=None):
        points, q = self._evaluation(support, coef, idx)
        k = self._kernel(t, points, ws)
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
        return np.matmul(k, q[:, :, None])[..., 0], self._grads(k, t, self._fixed, q)

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
    and one exp each. ``_knorm = (2 pi kvar)^(-d/2)`` multiplies what the
    kernel entries are reduced to, ``K c`` and the gradients' product (only
    ``kernel_matrix`` multiplies every entry, so it returns the kernel), and
    ``_ynorm = (2 pi yvar)^(-d/2)`` what the densities are reduced to, the
    row means and ``k_y @ x``. Every kernel entry is at most ``_knorm`` and
    every density at most ``_ynorm``, so a tau that leaves either below the
    smallest normal float is refused: every value would vanish.

    ``|y|^2 = n^-2 sum_ij N(X_i; X_j, 2 tau^2 I)`` skips the pairs farther
    apart than r, ``r^2 = 4 tau^2 (ln n + 60 ln 2)``. Each skipped term is at
    most ``c exp(-r^2 / (4 tau^2)) = c 2^-60 / n`` with
    ``c = (4 pi tau^2)^(-d/2)``, and the diagonal alone contributes ``n c``,
    so the at most n^2 skipped terms change the sum by a relative 2^-60 or
    less. ``close_pair_sum`` forms each kept term's exponent as an expanded
    product, within ``8 g (g + 3) u (ln n + 60 ln 2)`` of the exact one,
    ``g = min(d, 3)``, ``u = 2^-53``: about 4.6e-13 at gmm_full.cfg's
    n = 24,000 in the plane, a bound on each term's relative error apart
    from exp's own, to which the positive sum adds only its sums' rounding.
    The value lies within 1e-15 of the exact double sum on
    ``gmm_full.cfg``'s samples, ``gmm_desk.cfg``'s and 300 generated sets.

    Data-side means that feed no gradient (``candidate_values``, and so
    ``certificate_values``, ``y_inner_many``, the loss and
    ``kkt_residual``), exact or batched, are built and averaged in row
    blocks of at most ``ROW_BLOCK_ENTRIES`` densities, so no |T| x n array
    is held.

    In the loop ``pushed_values`` builds the data-side rows of ``[T'; C]``,
    the pushed support and the birth candidates, in one call, in an exact
    run into ``ws``'s ``"ev.rows"``; ``K(T', T')`` by the symmetric build and
    ``K(C, T')`` on its own. ``ev`` holds the unnormalized ``K(T', T')`` and,
    in an exact run, the pushed support's data-side rows (the first p rows,
    unnormalized) and means.
    ``support_field`` takes the survivors' block of ``K(T', T')`` by
    row-order gathers of rows, then columns, which leave it C-ordered like a
    fresh build, and, in an exact run, their rows from
    ``ev`` (gathering only when something died), and builds the born rows
    ``K(T[p:], T)``, ``p = keep.sum()``, and in an exact run their
    data-side rows; all of it is pair-local, so it has fresh bits. Both
    ``pushed_values`` and ``support_field`` finish the data side, and a
    batch's rows go, before the kernels are built and multiplied, so fewer
    arrays share the cache.
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
        self._knorm = gauss_norm(self._kvar, self.dim)
        self._ynorm = gauss_norm(self._yvar, self.dim)
        if min(self._knorm, self._ynorm) < np.finfo(float).tiny:
            raise ValueError(f"tau = {self.tau!r} is too large in d = {self.dim}: the Gaussian "
                             "constants (2 pi var)^(-d/2) are below the smallest normal float")
        self._y_norm_sq = None

    @property
    def n_samples(self):
        return self.data.shape[0]

    def kernel_matrix(self, a, b, idx=None):
        k = self._kernel(a, b)
        k *= self._knorm
        return k

    def _values(self, k, coef):
        return (k @ coef) * self._knorm

    def _grads(self, k, a, b, coef):
        return gauss_grad(k, a, b, coef, self._kvar) * self._knorm

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
                mean = close_pair_sum(self.data, scale, cutoff) / n**2
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

    def _density(self, t, x, ws=None, out=None):
        """Density rows ``N(t_i; x_j, (1 + 2 tau^2) I)`` over the samples
        ``x``, without their constant, in ``out`` or else in ``ws``'s
        ``"work"``, and their means, with it. The means are ``np.mean``'s own
        sum and division, without its wrapper."""
        if out is None:
            out = out_buffer(ws, "work", len(t), len(x))
        rows = gauss_density(t, x, self._yvar, ws, out)
        means = np.add.reduce(rows, axis=1)
        means /= x.shape[0]
        means *= self._ynorm
        return rows, means

    def _y_grads(self, t, x, rows, means):
        """The gradients of ``<y, phi_t>`` from ``_density(t, x)``."""
        return ((rows @ x) * (self._ynorm / x.shape[0]) - means[:, None] * t) / self._yvar

    def _means(self, t, x, ws=None):
        """``<y, phi_t>`` over the samples ``x``, built and averaged in blocks
        of at most ``ROW_BLOCK_ENTRIES`` densities (one row once ``len(x)``
        exceeds it)."""
        out = np.empty(len(t))
        step = max(1, ROW_BLOCK_ENTRIES // len(x))
        for lo in range(0, len(t), step):
            out[lo : lo + step] = self._density(t[lo : lo + step], x, ws)[1]
        return out

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

    def _data_side(self, t, x, side=None, ws=None):
        """``<y, phi_t>`` over the samples ``x`` and its gradients, from the
        density rows and means ``side`` or fresh ones; the rows go when it
        returns, before the caller builds its kernel."""
        rows, means = self._density(t, x, ws) if side is None else side
        return means, self._y_grads(t, x, rows, means)

    def _field(self, t, support, coef, k_s, y, y_grads):
        """Values and gradients from the unnormalized ``K(t, support)`` and the
        data side ``(y, y_grads)`` of ``_data_side``."""
        return self._values(k_s, coef) - y, self._grads(k_s, t, support, coef) - y_grads

    def certificate_field(self, t, support, coef, idx=None, ws=None):
        y, y_grads = self._data_side(t, self._batch(idx), ws=ws)
        return self._field(t, support, coef, self._kernel(t, support, ws), y, y_grads)

    def _evaluation(self, support, coef, idx):
        """The support, its coefficients and the batch rows."""
        return support, coef, self._batch(idx)

    def pushed_values(self, support, coef, idx, cand, ws=None):
        x, p = self._batch(idx), len(support)
        out = None if idx is not None else out_buffer(ws, "ev.rows", p + len(cand), len(x))
        rows, means = self._density(np.concatenate([support, cand]), x, ws, out)
        side = (rows[:p], means[:p]) if idx is None else None
        del rows  # a batch's rows go before the kernels are built
        k = self._kernel(support, support, ws, out_buffer(ws, "ev.kernel", p, p))
        return (self._values(k, coef) - means[:p],
                self._values(self._kernel(cand, support, ws), coef) - means[p:], (k, side))

    def candidate_values(self, ev, t, ws=None):
        support, coef, x = ev
        return self._values(self._kernel(t, support, ws), coef) - self._means(t, x, ws)

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        if ev is None:
            return self.certificate_field(t, t, coef, idx, ws)
        x = self._batch(idx)
        p = int(keep.sum())
        k, side = ev
        side = None if idx is not None else self._kept_side(side, keep, p, t[p:], x, ws)
        y, y_grads = self._data_side(t, x, side, ws)
        if p < len(t) or p < len(keep):
            k = self._support_kernel(t, k, keep, p, ws)
        return self._field(t, t, coef, k, y, y_grads)

    def _support_kernel(self, t, k, keep, p, ws):
        """The unnormalized ``K(T, T)`` of ``T = [T'[keep]; born]`` in
        ``ws``'s ``"work"``, from ``k = K(T', T')``: the survivors' block by
        row-order gathers of rows, then columns, in row blocks of at most
        ``SELF_BLOCK_ENTRIES`` (so each block's rows stay in cache), which
        leave it C-ordered like a fresh build; then the born rows
        ``K(T[p:], T)``, mirrored into the born columns."""
        full = buffer(ws, "work", len(t), len(t))
        if p < len(keep):
            # "clip" (the indices are in range) writes a C-ordered ``out`` in
            # place, where "raise" copies through a temporary of its size
            live = np.flatnonzero(keep)
            step = max(1, SELF_BLOCK_ENTRIES // len(keep))
            for lo in range(0, p, step):
                sub = live[lo : lo + step]
                rows = np.take(k, sub, axis=0, out=out_buffer(ws, "diff", len(sub), len(keep)),
                               mode="clip")
                np.take(rows, live, axis=1, out=full[lo : lo + len(sub), :p], mode="clip")
        else:
            full[:p, :p] = k
        if p < len(t):
            self._kernel(t[p:], t, ws, full[p:])
            full[:p, p:] = full[p:, :p].T
        return full

    def _kept_side(self, side, keep, p, born, x, ws):
        """The exact density rows and means of ``[T'[keep]; born]``: ``ev``'s
        rows of the survivors, then fresh rows of the born, in ``ws``'s
        ``"work"``; ``ev``'s own if nothing died or was born, and None from a
        batched ``ev``, which holds no rows."""
        if side is None or (p == len(keep) and not len(born)):
            return side
        rows = buffer(ws, "work", p + len(born), len(x))
        np.take(side[0], np.flatnonzero(keep), axis=0, out=rows[:p], mode="clip")
        return rows, np.concatenate([side[1][keep], self._density(born, x, ws, rows[p:])[1]])


def relu_blocks(aug: np.ndarray, t: np.ndarray, ws=None):
    """``(rows, relu(aug[rows] T'))`` over row blocks of at most
    ``ROW_BLOCK_ENTRIES`` activations, ``max(1, |T|)`` to a row, each
    overwriting the one before in one buffer, ``ws``'s ``"work"`` if given:
    the one loop over a batch's rows of every ReLU evaluation."""
    n = aug.shape[0]
    step = max(1, ROW_BLOCK_ENTRIES // max(1, len(t)))
    buf = buffer(ws, "work", min(step, n), len(t))
    for lo in range(0, n, step):
        act = buf[: min(step, n - lo)]
        np.matmul(aug[lo : lo + step], t.T, out=act)
        np.maximum(act, 0.0, out=act)
        yield slice(lo, lo + step), act


def _relu_sum(aug: np.ndarray, t: np.ndarray, part, ws=None):
    """``sum part(rows, act) / m`` over the blocks of ``relu_blocks(aug, t,
    ws)``, ``m = len(aug)``: the one sum over samples of every ReLU
    evaluation, the parts added in order to the first block's, which one
    block returns."""
    total = None
    for rows, act in relu_blocks(aug, t, ws):
        total = part(rows, act) if total is None else total + part(rows, act)
    return total / len(aug)


class ReluKernel(KernelModel):
    """Empirical two-layer ReLU kernel over a regression sample.

    Positions are neuron parameters ``t = (v, b)`` in R^{d+1}; the feature
    evaluates ``relu(<v, x_k> + b)`` across the data, with the empirical
    L2(P_n) inner product. The subgradient of relu at 0 is taken as 0.

    Every sum over the batch rows ``X_b`` of the activations
    ``act = relu(X_b t')`` is taken by the one pass ``_relu_sum`` over the
    row blocks of ``relu_blocks``, so none holds more than one block. ``_sums``
    correlates them with a per-sample weight w, values ``act' w / m`` and
    gradients ``((X_b * w)' [act > 0])' / m``, with the certificate's
    residual ``r = relu(X_b S) c - y`` (``-y`` on an empty support), so no
    particle-by-particle matrix is built. At the support (``support_field``
    and ``pushed_values``) each block forms its rows of r from its own
    activation, so each builds one activation; ``certificate_field`` builds
    r first, then the activations of t. ``pushed_values`` then scores the
    birth candidates by their own activation pass against that r: a GEMM's
    row results depend on the call's shape, so the candidates are not
    stacked with the support. Its ``ev`` is None: ``support_field`` builds
    everything it reads.
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

    def _targets(self, idx):
        return self.targets if idx is None else self.targets.take(idx)

    @staticmethod
    def _sums(aug, t, weight, grads=False, ws=None):
        """``(act' w / m, ((X_b * w)' [act > 0])' / m)`` of the points t over
        the batch rows ``aug``, the gradients None unless ``grads``. ``weight``
        is w, or gives a block's rows of w from its rows and activation."""
        def part(rows, act):
            w = weight(rows, act) if callable(weight) else weight[rows]
            vals = act.T @ w
            if not grads:
                return vals
            return np.vstack([vals, (aug[rows] * w[:, None]).T @ np.greater(act, 0.0, out=act)])
        total = _relu_sum(aug, t, part, ws)
        return (total[0], total[1:].T) if grads else (total, None)

    @staticmethod
    def _residual(r, y, coef):
        """The weight of ``_sums`` at the support: a block's rows of the
        residual ``act @ c - y`` of its own activation, written into r."""
        def weight(rows, act):
            r[rows] = act @ coef - y[rows]
            return r[rows]
        return weight

    def kernel_matrix(self, a, b, idx=None):
        return _relu_sum(self._batch(idx), np.vstack([a, b]),
                         lambda rows, act: act[:, : len(a)].T @ act[:, len(a) :])

    def weighted_grad1_kernel(self, a, b, coef, idx=None):
        aug = self._batch(idx)
        u = np.concatenate([act @ coef for _, act in relu_blocks(aug, b)])
        return self._sums(aug, a, u, grads=True)[1]

    def _pair_grad1(self, a, b):
        """``((X a' > 0) relu(X b'))' X / n`` over the blocks of ``[a; b]``."""
        return _relu_sum(self._aug, np.vstack([a, b]), lambda rows, act: (
            (act[:, : len(a)] > 0.0) * act[:, len(a) :]).T @ self._aug[rows])

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
        """The batch rows and the residual ``r`` on them."""
        aug = self._batch(idx)
        u = np.concatenate([act @ coef for _, act in relu_blocks(aug, support)])
        return aug, u - self._targets(idx)

    def pushed_values(self, support, coef, idx, cand, ws=None):
        aug = self._batch(idx)
        r = np.empty(len(aug))
        vals = self._sums(aug, support, self._residual(r, self._targets(idx), coef), ws=ws)[0]
        return vals, self._sums(aug, cand, r, ws=ws)[0], None

    def candidate_values(self, ev, t, ws=None):
        aug, r = ev
        return self._sums(aug, t, r, ws=ws)[0]

    def certificate_field(self, t, support, coef, idx=None, ws=None):
        aug, r = self._evaluation(support, coef, idx)
        return self._sums(aug, t, r, grads=True, ws=ws)

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        """``certificate_field(t, t, coef, idx)`` from one activation per
        block: each block's rows of the residual come from its own
        activation."""
        aug = self._batch(idx)
        weight = self._residual(np.empty(len(aug)), self._targets(idx), coef)
        return self._sums(aug, t, weight, grads=True, ws=ws)

    def objective_value(self, t, weights, signs, kappa, ws=None):
        """The residual ``0.5 mean((relu(X T) c - y)^2) + kappa sum(w)``,
        ``c = s w``, summed block by block, so no n x p array is built; at
        kappa = 0 twice this is the mean squared error."""
        c = weights * signs

        def part(rows, act):
            resid = act @ c - self.targets[rows]
            return resid @ resid
        return float(0.5 * _relu_sum(self._aug, t, part, ws)) + kappa * float(weights.sum())
