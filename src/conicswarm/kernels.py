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
* ``certificate_values(T, S, c, idx)`` -- the values of
  ``certificate_field`` alone, with its bits;
* ``objective_value(T, w, s, kappa)`` -- the exact objective of a
  non-empty swarm;
* the audit's hooks (``audit.audit_assumptions``): ``_pair_grad1``,
  ``_sample_y`` and ``_sample_width``, and ``_sample_kernel`` where
  ``kernel_depends_on_samples``.

``KernelModel`` derives the rest from them:

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
  ``certificate_field(T, T, c, idx)`` at ``T = [T'; C][keep]``, one
  selection by the boolean mask ``keep`` over the pushed evaluation's
  points: the survivors, then the born candidates in draw order.

Where the two scorings share a block, ``pushed_values`` builds the rows of
``[T'; C]`` in one call and reduces each side by its own call on its row
slice. The synthetic model's kernel entries are pair-local; the
mixture's kernel entries and densities are entries of expanded products
(``GmmKernel``), which ``_expanded_product`` builds so that each has the
bits of its row and column in every product that holds both. A matvec over
a row slice of a C-contiguous block, or ``np.add.reduce`` along its rows,
gives each row the bits of the same call on a separate array
(``test_row_slices.py``), so both sides have the bits of two separate
scorings.

Every loop evaluation, and the objective at the loop's cadence, also takes
an optional ``workspace.Workspace`` ``ws``, which ``runner.run`` creates
once per run and hands on next to ``ev``; the models keep it nowhere. The
temporaries are written into its slots through ``out=`` by the same ufuncs
and BLAS calls, so no result changes by a bit. ``ev``'s own arrays
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
from .gaussian import gauss_density, gauss_grad, gauss_norm, lattice_pair_sum
from .workspace import ROW_BLOCK_ENTRIES, SELF_BLOCK_ENTRIES, buffer

__all__ = ["KernelModel", "GaussianKernel", "SyntheticKernel", "GmmKernel", "ReluKernel",
           "AssumptionBounds", "audit_assumptions"]

#: the bound on a mixture data-side exponent's error, ``2 (d + 3) u R^2 / s``,
#: above which a call takes exact differences (``GmmKernel``)
_EXPANDED_ERROR = 1e-12


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
    def certificate_values(self, t, support, coef, idx=None, ws=None) -> np.ndarray:
        """Values ``K(t, S) c - <y, phi_t>`` alone."""

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
        """``certificate_field(t, t, coef, idx)`` at ``t``, the points of
        ``ev``'s evaluation ``[T'; C]`` where the mask ``keep`` holds;
        ``ev`` and ``keep`` are None if no pushed evaluation came."""

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
    (``_grads``). ``GmmKernel`` builds its entries from expanded products
    instead and scales the two reductions by its kernel's constant.
    """

    _kvar: float
    _y_norm_sq: float

    @property
    def y_norm_sq(self):
        """``|y|^2``, computed once, when the model is built."""
        return self._y_norm_sq

    def _kernel(self, a, b, ws=None, out=None):
        """``K(a, b)`` without a constant, in ``out`` or else in ``ws``'s
        ``"work"``."""
        out = buffer(ws, "work", len(a), len(b)) if out is None else out
        return gauss_density(a, b, self._kvar, out)

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
    gradients. ``|y|^2`` is computed once, at construction.

    In the loop ``pushed_values`` builds one block ``K([T'; C], P')`` in
    ``ws``'s ``"ev.kernel"`` and takes the values at T' and at the candidates
    C from its rows ``[:p]`` and ``[p:]``, one matvec each. ``ev = (P', k)``
    holds the pushed point set and the C-contiguous view ``k = K(T', P')`` of
    the block's first p rows. When nothing died and nothing was born
    (``|T| = p`` and ``keep`` holds on T'), ``T = T'`` and ``support_field``
    takes the values and gradients from ``k`` with the new batch's ``q``;
    entries are pair-local, so they have fresh bits. Otherwise it builds
    the field fresh: at p of about 8, gathering the survivors and building
    the born rows costs about as much as a fresh build.
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
        coefs = np.concatenate([self.atom_weights, self._eta_mean])
        self._y_norm_sq = float(coefs @ self.kernel_matrix(self._fixed, self._fixed) @ coefs)

    @property
    def n_samples(self):
        return self._n

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
                         buffer(ws, "ev.kernel", p + len(cand), len(points)))
        return k[:p] @ q, k[p:] @ q, (points, k[:p])

    def certificate_values(self, t, support, coef, idx=None, ws=None):
        points, q = self._evaluation(support, coef, idx)
        return self._values(self._kernel(t, points, ws), q)

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        if ev is None or len(t) != len(ev[1]) or not keep[: len(t)].all():
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

    Both variances' entries are built without their constants, each by one
    entry of an expanded product and one exp (below). ``_knorm = (2 pi
    kvar)^(-d/2)`` multiplies what the
    kernel entries are reduced to, ``K c`` and the gradients' product (only
    ``kernel_matrix`` multiplies every entry, so it returns the kernel), and
    ``_ynorm = (2 pi yvar)^(-d/2)`` what the densities are reduced to, the
    row means and ``k_y @ x``. Every kernel entry is at most ``_knorm`` and
    every density at most ``_ynorm``, so a tau that leaves either below the
    smallest normal float is refused: every value would vanish.

    The data must be planar (d = 2), as both mixture readers build them;
    other data are refused.

    ``|y|^2 = n^-2 sum_ij N(X_i; X_j, 2 tau^2 I)`` is computed once, at
    construction, from the identity ``sum_ij exp(-|x_i - x_j|^2 / s) =
    (pi c / 2)^(-d/2) int f^2``, ``f(z) = sum_i exp(-|z - x_i|^2 / c)``,
    ``s = 4 tau^2 = 2c``: the product of two of f's terms is the pair's term
    times ``exp(-2 |z - m|^2 / c)``, m their midpoint. In units of tau c is 2
    and the pair sum is ``int f^2 / pi``, which
    ``gaussian.lattice_pair_sum`` takes by the trapezoid rule,
    ``h^2 sum_k f(z_k)^2 / pi`` over a lattice of spacing h. The units of
    tau put every exponent in [-181, 0], so no tau forms a subnormal one.

    * Aliasing. A pair's product ``w exp(-|z - m|^2)`` has the Fourier
      transform ``pi w exp(-|xi|^2 / 4)``, so by Poisson summation its
      lattice sum lies within ``pi w sum_{k != 0} exp(-pi^2 |k|^2 / h^2)``
      of its integral ``pi w``, wherever m lies: a relative ``4 exp(-pi^2 /
      h^2)`` to first order, and so for the positive sum of all pairs.
      ``h = 1/2`` makes it ``4 exp(-4 pi^2) = 2.9e-17``, below one
      rounding, and keeps the lattice lines ``j / 2`` exact.
    * Reach. A sample adds to f only at the lattice lines within its cell's
      reach, every line within ``R = sqrt(45 c)`` of it per coordinate
      (``sqrt(90)`` in units of tau). On the lattice the dropped part e of
      f has norm at most n times one sample's tail, ``|e| <= 2 n
      exp(-45)``, against ``|f| >= sqrt(n pi)``, so ``h^2 sum f^2`` moves
      by a relative ``2 |e| / |f| <= 6.4e-20 sqrt(n)``: 6.4e-17 at
      n = 10^6.
    * Groups. Where the samples leave a gap wider than 2R along a
      coordinate, the two sides are summed on lattices of their own, each
      anchored at one of its samples, so the indices stay small for any
      spread or tau. Their cross pairs, each below ``exp(-(2R)^2 / s) =
      exp(-90)``, are left out: a relative ``n exp(-90)`` at most, against
      the diagonal's n. A group of one point repeated m times, as every
      sample is at a tau far below the samples' spacing, adds its exact
      ``m^2`` without a lattice.
    * Rounding. A sample's offset ``u = (x - a) / tau`` from its anchor a
      is rounded by ``2 u_r |u|`` at most, ``u_r = 2^-53``, and a row entry
      ``exp(-t^2 / 2)``, ``t = z - u`` with ``|t| <= R``, by ``1.5 u_r t^2
      + 2 u_r W |t|`` in its exponent, W the largest ``|u|`` of the group,
      and two roundings of exp. A term of ``sum_k f(z_k)^2`` is then within
      a relative ``(551 + 76 W) u_r`` of the exact one, apart from its sums'
      rounding, which the positive sums add alone: 9.1e-13 on
      ``gmm_full.cfg``'s samples (W = 101), 5.2e-13 on ``gmm_desk.cfg``'s
      (W = 54). Terms beyond R are within the reach bound above.

    Measured against the exact double sum, the pair sum lies within 1.5e-16
    on both profiles' samples. The lattice takes 26 ms on ``gmm_full.cfg``
    (n = 24,000), against 90 ms for the cell list of sample pairs it
    replaces (2-core Xeon VM, one OpenBLAS thread).

    Every exponent ``-|a - b|^2 / s``, ``s = 2 var``, of a kernel entry
    (``var = kvar``) or a density (``var = yvar``), is one entry of the
    product ``[a, |a|^2, 1] @ [2b/s; -1/s; -|b|^2/s]``, ``d + 2`` inner
    terms, of the points a and b centred on the centre c of the samples'
    box (``_left`` and ``_right``; ``_expanded_product`` takes it). A point
    set's side ``[a, |a|^2, 1]`` serves both variances, so
    ``pushed_values`` builds that of ``[T'; C]`` once for its data-side
    rows and its kernel. The samples' side is built once, at construction
    (``_side``, a C-contiguous (d + 2, n) array), and every batch's side is
    its columns of that array, gathered into a C-contiguous one: no sample
    passes through ``_left`` or ``_right`` again, and every product has a
    contiguous right operand. The bound:

    * The centring rounds each coordinate by a relative ``u = 2^-53`` at
      most, which moves the exponent by ``2u (|a| + |b|)^2 / s`` at most.
    * A cross term ``a_k (2 b_k / s)``, with ``2 b_k / s`` formed as ``b_k
      / var``, meets at most ``d + 3`` roundings: the quotient, the product
      and the d + 1 additions of the sum. A norm term ``|a|^2 (-1 / s)``
      meets at most ``2d + 3``: d - 1 in the sum of squares, one in each
      square, ``-1 / s`` and the product, and the d + 1 additions;
      ``|b|^2 / s`` one fewer.
    * The cross terms add up to ``2 |a| |b| / s`` at most and the norm terms
      to ``(|a|^2 + |b|^2) / s``, so an exponent is within ``(2d + 5) u
      (|a| + |b|)^2 / s``, less than ``2 (d + 3) u (|a| + |b|)^2 / s``, of
      the exact one, and an entry within that relative error, apart from
      exp's own.

    A point set takes the expanded products only where it lies within the
    model's limit about c (``_point_limit``), the radius within which this
    bound stays at most ``_EXPANDED_ERROR = 1e-12`` for the kernel between
    two such sets and for the densities against every sample; a call with
    a set past it takes ``gauss_density``'s exact differences. On samples
    spread far wider than ``sqrt(s)``, such as a ring of radius 3e153, the
    product's exponents would be off by more than their size. A model built
    with the run's domain takes the domain's radius as its limit, or -1
    where that passes the bound, so every product of a run on the domain
    takes one form, whatever the points. On gmm_full.cfg (domain corners
    19.4 and samples up to 11.9 from c, ``s = 2.16`` for the densities and
    4.16 for the kernel) the bound is about 5.0e-13 for a density and
    4.0e-13 for a kernel entry, on gmm_desk.cfg 2.3e-13 and 1.7e-13. The
    entries are neither symmetric nor do they move with the points, but
    ``_expanded_product`` gives each the bits of its row and column in
    every product that holds both, so a loop evaluation's rows, gathered
    survivors and born columns have the bits of a fresh build, and the
    audit's per-sample densities (``_sample_y``) those of the one-sample
    evaluations.

    Data-side means that feed no gradient (``certificate_values``, and so
    ``y_inner_many``, the loss and ``kkt_residual``), exact or batched, are
    built and averaged in row blocks of at most ``ROW_BLOCK_ENTRIES``
    densities, so no |T| x n array is held.

    In the loop ``pushed_values`` builds the data-side rows of ``[T'; C]``,
    the pushed support and the birth candidates, in one call, in an exact
    run into ``ws``'s ``"ev.rows"``, and the kernel ``K([T'; C], T')`` in
    one product into ``"ev.kernel"``: its rows ``[:p]`` are ``K(T', T')``
    and its rows ``[p:]`` the candidates'. ``ev`` holds that unnormalized
    block and, in an exact run, the data-side rows (unnormalized) and means
    of ``[T'; C]``. ``support_field`` reads ``K(T', T')`` whole where
    nothing died or was born; otherwise it takes the kept rows' survivor
    columns, ``K(T, T[:p])`` of ``T = [T'; C][keep]`` with p survivors, and
    builds only the born columns ``K(T, T[p:])``. In an exact run it reads
    the data-side rows of ``[T'; C][keep]`` from ``ev`` (gathering only
    when something died or was born), so the support's rows are one call's
    rows. Both ``pushed_values`` and ``support_field`` finish the data side,
    and a batch's rows go, before the kernels are built and multiplied, so
    fewer arrays share the cache.
    """

    def __init__(self, data: np.ndarray, tau: float, domain: Box | None = None):
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
        if self.dim != 2:
            raise ValueError(f"mixture data must be planar (d = 2), got d = {self.dim}")
        self._y_norm_sq = self._pair_constant()
        self._center = 0.5 * self.data.min(axis=0) + 0.5 * self.data.max(axis=0)
        left = self._left(self.data)
        self._reach = self._radius(left)
        self._side = self._right(left, self._yvar)
        self._limit = self._point_limit(domain)

    @property
    def n_samples(self):
        return self.data.shape[0]

    def kernel_matrix(self, a, b, idx=None):
        k = self._kernel(a, b)
        k *= self._knorm
        return k

    def _kernel(self, a, b, ws=None, out=None, sides=None):
        """``K(a, b)`` without its constant, in ``out`` or else in ``ws``'s
        ``"work"``: each exponent one entry of the expanded product of a's
        and b's sides (``sides``, ``(_left(a), _left(b))``, where the caller
        has them), or, where a set lies past ``_limit``, of
        ``gauss_density``'s exact differences."""
        out = buffer(ws, "work", len(a), len(b)) if out is None else out
        if not out.size:
            return out
        left, top = (self._left(a), self._left(b)) if sides is None else sides
        if not self._expands(left, top):
            return gauss_density(a, b, self._kvar, out)
        return np.exp(_expanded_product(left, self._right(top, self._kvar), out), out=out)

    def _values(self, k, coef):
        return (k @ coef) * self._knorm

    def _grads(self, k, a, b, coef):
        return gauss_grad(k, a, b, coef, self._kvar) * self._knorm

    def _pair_constant(self):
        """``|y|^2``: the mean pair term times ``(4 pi tau^2)^(-1)``, as two
        square-root factors ``half``. It is a finite float for every
        accepted tau: in the plane the lattice's mean pair term is at most
        about 1 (each exact term is at most 1, and the lattice sum lies
        within the bound derived above of the exact one), and ``half * half
        = 1 / (4 pi tau^2)`` is at most 3.6e306 where tau^2 is a normal
        float."""
        half = (4.0 * math.pi * self.tau**2) ** -0.5
        return lattice_pair_sum(self.data, self.tau) / self.n_samples**2 * half * half

    def _samples(self, idx):
        """The batch ``idx``, every sample for None: its sample rows and its
        columns of the samples' side ``_side``, C-contiguous."""
        if idx is None:
            return self.data, self._side
        return self.data.take(idx, axis=0), self._side.take(idx, axis=1)

    def _left(self, t):
        """The points' side ``[a, |a|^2, 1]`` of every expanded product, one
        row per point, ``a = t - c`` centred on the samples' box. |a|^2 is
        inf on points too far out for the product."""
        d = self.dim
        left = np.empty((len(t), d + 2))
        a = np.subtract(t, self._center, out=left[:, :d])
        np.einsum("ij,ij->i", a, a, out=left[:, d])
        left[:, d + 1] = 1.0
        return left

    def _right(self, left, var):
        """The other side ``[2a/s; -1/s; -|a|^2/s]``, ``s = 2 var``, of the
        points whose side is ``left``, one column per point, C-contiguous:
        the kernel's side of its second point set, and once, at
        construction, the samples' side ``_side``."""
        d = self.dim
        right = left.T[[*range(d), d + 1, d]]
        right[:d] /= var
        right[d:] /= -2.0 * var
        return right

    def _radius(self, left):
        """The largest |a| of the points whose side is ``left``."""
        return math.sqrt(float(left[:, self.dim].max(initial=0.0)))

    def _point_limit(self, domain):
        """The largest |a| of a point set that takes the expanded products.
        Without a domain, the radius within which both bounds hold: ``2 (d
        + 3) u (|a| + |b|)^2 / s`` at most ``_EXPANDED_ERROR`` for the
        kernel between two such sets and for the densities against every
        sample. With one, the domain's radius about c, a hair over so that
        no point's rounded |a| passes it, if that lies within; else -1, and
        no point set takes them. Every point set of a run on the domain
        then takes the same form."""
        def span(var):  # the largest |a| + |b| whose bound holds
            return math.sqrt(_EXPANDED_ERROR * 2.0 * var / ((self.dim + 3) * 2.0**-52))

        limit = min(0.5 * span(self._kvar), span(self._yvar) - self._reach)
        if domain is None:
            return limit
        far = np.maximum(np.abs(domain.lower - self._center), np.abs(domain.upper - self._center))
        radius = math.sqrt(float(far @ far)) * (1.0 + 2.0**-40)
        return radius if radius <= limit else -1.0

    def _expands(self, *lefts):
        """Whether the point sets whose sides are ``lefts`` take the
        expanded products: each lies within ``_limit`` of c."""
        return all(self._radius(left) <= self._limit for left in lefts)

    def _density(self, t, batch, ws=None, out=None, left=None):
        """Density rows ``N(t_i; x_j, (1 + 2 tau^2) I)`` over the samples
        ``x`` of ``batch``, without their constant, in ``out`` or else in
        ``ws``'s ``"work"``, and their means, with it. Each exponent is one
        entry of the expanded product of t's side (``left``, ``_left(t)``,
        where the caller has it) and the batch's, or, where t lies past
        ``_limit``, of ``gauss_density``'s exact differences. The means are
        ``np.mean``'s own sum and division, without its wrapper."""
        x, side = batch
        out = buffer(ws, "work", len(t), len(x)) if out is None else out
        left = self._left(t) if left is None else left
        if not self._expands(left):
            rows = gauss_density(t, x, self._yvar, out)
        else:
            rows = np.exp(_expanded_product(left, side, out), out=out)
        means = np.add.reduce(rows, axis=1)
        means /= x.shape[0]
        means *= self._ynorm
        return rows, means

    def _y_grads(self, t, x, rows, means):
        """The gradients of ``<y, phi_t>`` from ``_density(t, x)``."""
        return ((rows @ x) * (self._ynorm / x.shape[0]) - means[:, None] * t) / self._yvar

    def _means(self, t, batch, ws=None):
        """``<y, phi_t>`` over the samples of ``batch``, built and averaged in
        ``_row_blocks`` of at most ``ROW_BLOCK_ENTRIES`` densities (two rows
        once the batch exceeds half of it), none of one row: its product
        would take two."""
        out = np.empty(len(t))
        for block in _row_blocks(len(t), max(2, ROW_BLOCK_ENTRIES // len(batch[0]))):
            out[block] = self._density(t[block], batch, ws)[1]
        return out

    def _sample_y(self, t, rows):
        """One sample's density row is its mean, and its gradient's products
        have one term each, so both are elementwise over the densities
        ``N(t_j; x_i, (1 + 2 tau^2) I)``, with the constant applied as
        ``_density`` and ``_y_grads`` apply it for one sample. The densities
        are ``_density``'s rows over the slice's batch, whose every entry
        has the bits of its point and sample in any call, so they have the
        bits of each sample's own evaluation."""
        batch = self._samples(np.arange(self.n_samples)[rows])
        x, k = batch[0], self._density(t, batch)[0].T
        vals = k * self._ynorm
        return vals, (k[:, :, None] * x[:, None, :] * self._ynorm
                      - vals[:, :, None] * t) / self._yvar

    def _data_side(self, t, batch, side=None, ws=None, left=None):
        """``<y, phi_t>`` over the samples of ``batch`` and its gradients,
        from the density rows and means ``side`` or fresh ones (from t's
        side ``left`` where given); the rows go when it returns, before the
        caller builds its kernel."""
        rows, means = self._density(t, batch, ws, None, left) if side is None else side
        return means, self._y_grads(t, batch[0], rows, means)

    def _field(self, t, support, coef, k_s, y, y_grads):
        """Values and gradients from the unnormalized ``K(t, support)`` and the
        data side ``(y, y_grads)`` of ``_data_side``."""
        return self._values(k_s, coef) - y, self._grads(k_s, t, support, coef) - y_grads

    def certificate_field(self, t, support, coef, idx=None, ws=None):
        y, y_grads = self._data_side(t, self._samples(idx), ws=ws)
        return self._field(t, support, coef, self._kernel(t, support, ws), y, y_grads)

    def certificate_values(self, t, support, coef, idx=None, ws=None):
        return (self._values(self._kernel(t, support, ws), coef)
                - self._means(t, self._samples(idx), ws))

    def pushed_values(self, support, coef, idx, cand, ws=None):
        batch, p = self._samples(idx), len(support)
        points = np.concatenate([support, cand])
        left = self._left(points)
        out = None if idx is not None else buffer(ws, "ev.rows", len(points), len(batch[0]))
        rows, means = self._density(points, batch, ws, out, left)
        side = (rows, means) if idx is None else None
        del rows  # a batch's rows go before the kernel is built
        k = self._kernel(points, support, ws, buffer(ws, "ev.kernel", len(points), p),
                         (left, left[:p]))
        return (self._values(k[:p], coef) - means[:p], self._values(k[p:], coef) - means[p:],
                (k, side))

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        if ev is None:
            return self.certificate_field(t, t, coef, idx, ws)
        batch = self._samples(idx)
        k, side = ev
        pushed = k.shape[1]
        p = int(keep[:pushed].sum())
        side = None if idx is not None or side is None else self._kept_side(side, keep, pushed, ws)
        # T's side, shared by its data-side rows and born columns
        left = self._left(t) if side is None or p < len(t) else None
        y, y_grads = self._data_side(t, batch, side, ws, left)
        k = k[:pushed] if p == len(t) == pushed else self._support_kernel(t, k, keep, p, ws, left)
        return self._field(t, t, coef, k, y, y_grads)

    def _support_kernel(self, t, k, keep, p, ws, left):
        """The unnormalized ``K(T, T)`` of ``T = [T'; C][keep]``, p
        survivors, in ``ws``'s ``"work"``, from ``k = K([T'; C], T')``: its
        columns ``K(T, T[:p])`` are k's kept rows and survivors' columns,
        then the born columns ``K(T, T[p:])`` are built from T's side
        ``left``. If nobody died, the kept rows are ``k[:p]`` and the born
        rows, copied whole; otherwise they are gathered by row-order gathers
        of rows, then columns, in row blocks of at most
        ``SELF_BLOCK_ENTRIES`` in one buffer (so they stay in cache). Either
        way the result is C-ordered like a fresh build."""
        full = buffer(ws, "work", len(t), len(t))
        pick = np.flatnonzero(keep)
        if p == k.shape[1]:
            full[:p, :p] = k[:p]
            full[p:, :p] = k.take(pick[p:], axis=0)
        elif p:
            # "clip" (the indices are in range) writes a C-ordered ``out`` in
            # place, where "raise" copies through a temporary of its size
            live = pick[:p]
            step = max(1, SELF_BLOCK_ENTRIES // k.shape[1])
            block = np.empty((min(step, len(t)), k.shape[1]))
            for lo in range(0, len(t), step):
                sub = pick[lo : lo + step]
                rows = np.take(k, sub, axis=0, out=block[: len(sub)], mode="clip")
                np.take(rows, live, axis=1, out=full[lo : lo + len(sub), :p], mode="clip")
        if p < len(t):
            self._kernel(t, t[p:], ws, full[:, p:], (left, left[p:]))
        return full

    def _kept_side(self, side, keep, p, ws):
        """The exact density rows and means of ``[T'; C][keep]`` from
        ``ev``'s rows of ``[T'; C]``, ``p = |T'|``: its first p rows if every
        particle survived and none was born, else the kept rows gathered in
        ``ws``'s ``"work"``."""
        rows, means = side
        if keep[:p].all() and not keep[p:].any():
            return rows[:p], means[:p]
        pick = np.flatnonzero(keep)
        out = buffer(ws, "work", len(pick), rows.shape[1])
        return np.take(rows, pick, axis=0, out=out, mode="clip"), means[pick]


def _row_blocks(rows, step):
    """Slices of at most ``step >= 2`` rows that cover ``range(rows)``, the
    last one taking a lone final row: no block has one row unless all of
    ``rows`` is one."""
    lo = 0
    while lo < rows:
        hi = lo + step if rows - lo - step >= 2 else rows
        yield slice(lo, hi)
        lo = hi


def _expanded_product(left, right, out):
    """``left @ right`` into ``out``, each entry with the bits of its row of
    ``left`` and column of ``right`` in any product that holds both. numpy
    hands a one-row or one-column product to gemv or dot, whose bits differ
    from a matrix product's, so such a product is taken from one of its row
    or column repeated twice. Others go in blocks of at least two rows and
    two columns: ``_row_blocks`` of at most ``ROW_BLOCK_ENTRIES / 2``
    columns, each in ``_row_blocks`` of at most ``ROW_BLOCK_ENTRIES``
    entries, so no block passes 2 x 10^5 entries, or 8 x 10^5
    multiply-adds with the mixture's ``d + 2 = 4`` inner terms, at any
    size. On OpenBLAS 0.3.31 a product of up
    to 10^6 multiply-adds takes its small-matrix kernel on one thread,
    whose every entry has the same bits, where a larger one gives the
    columns past the last multiple of 8 other bits, which also depend on
    the thread count (``test_row_slices.py``)."""
    rows, cols = len(left), right.shape[1]
    if rows == 1 or cols == 1:
        wide = _expanded_product(np.repeat(left, 2, axis=0) if rows == 1 else left,
                                 np.repeat(right, 2, axis=1) if cols == 1 else right,
                                 np.empty((max(rows, 2), max(cols, 2))))
        out[...] = wide[:rows, :cols]
        return out
    for band in _row_blocks(cols, ROW_BLOCK_ENTRIES // 2):
        step = max(2, ROW_BLOCK_ENTRIES // (band.stop - band.start))
        for block in _row_blocks(rows, step):
            np.matmul(left[block], right[:, band], out=out[block, band])
    return out


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

    def certificate_values(self, t, support, coef, idx=None, ws=None):
        aug, r = self._evaluation(support, coef, idx)
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
