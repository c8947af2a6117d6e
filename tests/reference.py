"""Plain forms of every kernel quantity the tests compare a fast path
against, and the rounding bounds between them.

A plain form is written to be read: squared distances from direct
coordinate differences, ReLU activations as full arrays, the synthetic
noise mean counted per sample, the audit as a loop over pairs and samples.
Where a fast path replaced a loop, the loop is kept here too. A test holds
a fast path to a form bit for bit where both take the same operations in
the same order, and otherwise within the bound defined next to the form,
whose docstring derives it. One section per model follows the shared
rounding constants and the views that serve every model.
"""

from __future__ import annotations

import math

import numpy as np

from conicswarm import gaussian, kernels
from conicswarm.audit import AssumptionBounds
from conicswarm.domain import Ball, Box, Domain, grid_points
from conicswarm.gaussian import gauss_density
from conicswarm.kernels import GmmKernel, KernelModel, ReluKernel, SyntheticKernel

# --- rounding constants ------------------------------------------------------

EPS = np.finfo(float).eps
#: the unit roundoff, ``EPS / 2``
U = 2.0**-53


def gamma(k):
    """``gamma_k = k u / (1 - k u)``: a term that meets k roundings is off
    by at most this share of its size, whatever the order they come in."""
    return k * U / (1.0 - k * U)


# --- every model -------------------------------------------------------------

def k_at(model, s, t, i=None):
    """``K(s, t)`` for one pair; ``i`` restricts it to one sample."""
    return model.kernel_matrix(s[None, :], t[None, :], None if i is None else [i])[0, 0]


def grad_k_at(model, s, t, i=None):
    """``grad_s K(s, t)`` for one pair."""
    return model.weighted_grad1_kernel(s[None, :], t[None, :], np.ones(1),
                                       None if i is None else [i])[0]


def y_at(model, t, i=None):
    """``<y, phi_t>`` at one point."""
    return model.y_inner_many(t[None, :], None if i is None else [i])[0]


def kernel_sum(model, a, b, coef, idx=None):
    """``K(A, B) c``. ReLU sums in feature space, ``relu(X_b A')'
    (relu(X_b B') c) / m``; the Gaussian models take the product of the
    entries without a constant and then multiply the mixture's constant in,
    the bits of ``GaussianKernel.weighted_kernel``."""
    if isinstance(model, ReluKernel):
        aug, _, u = relu_output(model, b, coef, idx)
        return np.maximum(aug @ a.T, 0.0).T @ u / aug.shape[0]
    values = gauss_density(a, b, model._kvar) @ coef
    return values * model._knorm if isinstance(model, GmmKernel) else values


def observation_terms(model, t, idx=None):
    """``<y, phi_t>`` and its gradients in t, each in one plain form that
    takes no certificate: the synthetic observation's product against the
    point set of ``observation``, the mixture's ``mixture_means`` and
    ``mixture_grads`` over the batch rows, and ReLU's one-shot activations
    of ``relu_batch``'s rows correlated with its targets."""
    if isinstance(model, SyntheticKernel):
        points, q = observation(model, idx)
        return kernel_sum(model, t, points, q), model.weighted_grad1_kernel(t, points, q)
    if isinstance(model, ReluKernel):
        aug, y = relu_batch(model, idx)
        act = np.maximum(aug @ t.T, 0.0)
        return (act.T @ y / len(aug),
                ((aug * y[:, None]).T @ (act > 0.0).astype(float)).T / len(aug))
    x = model.data if idx is None else model.data[idx]
    return mixture_means(model, t, x), mixture_grads(model, t, x)


def primitive_field(model, points, support, coef, idx):
    """The unsigned field and its gradients from ``kernel_sum``,
    ``weighted_grad1_kernel`` and ``observation_terms``."""
    y, y_grads = observation_terms(model, points, idx)
    return (kernel_sum(model, points, support, coef, idx) - y,
            model.weighted_grad1_kernel(points, support, coef, idx) - y_grads)


def expanded_objective(model, t, weights, signs, kappa):
    """``0.5 |y|^2 + <kappa - s <y, phi_T>, w> + 0.5 c' K(T, T) c`` with
    ``c = s w``, the quadratic term from ``kernel_sum`` and ``<y, phi_T>``
    from ``observation_terms``."""
    c = weights * signs
    k_t = signs * observation_terms(model, t)[0]
    quad = c @ kernel_sum(model, t, t, c)
    return float(0.5 * model.y_norm_sq + (kappa - k_t) @ weights + 0.5 * quad)


# --- Gaussian entries ----------------------------------------------------------

def reference_sqdist(a, b):
    """Sums of squared coordinate differences, each by ``np.subtract.outer``."""
    d2 = np.zeros((len(a), len(b)))
    for j in range(a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        d2 += diff * diff
    return d2


def subtraction_exp_sum(x, m, scale, g=None):
    """``gaussian._exp_sum``'s tile loop with each tile's squared distances
    from ``reference_sqdist``, in every coordinate (``g`` is not read): no
    BLAS call."""
    total = 0.0
    step = max(1, gaussian.SELF_BLOCK_ENTRIES // len(x))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        d2 = reference_sqdist(x[lo:hi], x[lo:])
        d2 *= -1.0 / scale
        terms = np.exp(d2, out=d2)
        total += float(terms[:, : hi - lo].sum()) + 2.0 * float(terms[:, hi - lo :].sum())
    return total


def scaled_kernel_grad(k, a, b, c, var):
    """``sum_j c_j grad_a K(a_i, b_j)`` with the kernel scaled first:
    ``((k * c) @ b - (k * c).sum(-1) a) / var``."""
    kc = k * c
    return (kc @ b - kc.sum(axis=-1)[..., None] * a) / var


def grad_rounding_bound(k, a, b, c, var):
    """Elementwise bound ``2 (gamma(q + 2) + 2u) A_il`` between
    ``gaussian.gauss_grad`` and ``scaled_kernel_grad``, with
    ``A_il = sum_j |k_ij c_j| (|b_jl| + |a_il|) / var``.

    ``gauss_grad`` sums the terms ``k_ij c_j (b_j - a_i) / var`` as one
    product ``k @ [c * b, c]``; the reference scales the kernel first. The
    two group the same terms differently. Each side's products and sums of
    at most q + 2 terms are within ``gamma(q + 2)`` of the exact value,
    relative to ``A_il``; the final difference and division add at most 2u
    of ``|grad| <= A``, whatever either side's summation order."""
    m = k.shape[-1] + 2
    abs_sum = (np.abs(k * c) @ np.abs(b) + np.abs(k * c).sum(axis=-1)[:, None] * np.abs(a)) / var
    return 2.0 * (gamma(m) + 2.0 * U) * abs_sum


# --- the synthetic observation -------------------------------------------------

def counted_mean(model, idx):
    """The noise mean of the batch ``idx`` from its sample counts; the exact
    mean for ``idx = None``."""
    if idx is None:
        return model._eta_mean
    return np.bincount(idx, minlength=model.n_samples) @ model.eta / len(idx)


def counted_mean_bound(model, idx):
    """Bound on ``|counted_mean - eta[idx].mean(axis=0)|``, per anchor:
    ``1.01 (n + m + 1) u A / m`` with ``m = len(idx)`` and
    ``A = sum_i |eta[idx_i]|`` over the batch.

    Both means divide a sum of the same m terms by m. The counted one sums
    the n products ``count_j eta_j`` (each count is an exact float) in one
    product, in any order: each term meets at most n + 1 roundings, with
    the division. The gathered one sums the m rows and divides: at most m
    roundings. So the two differ by at most ``(gamma_{n+1} + gamma_m) A /
    m``; 1.01 covers the denominators and the rounding of the bound's own
    sum. Over 400 draws with n up to 300 and m up to 5,000 the measured
    difference reached 0.12 of the bound."""
    n, m = model.n_samples, len(idx)
    total = np.bincount(idx, minlength=n) @ np.abs(model.eta)
    return 1.01 * (n + m + 1) * U * total / m


def observation(model, idx):
    """The observation as one weighted point set: ``[atoms; anchors]`` and
    ``[w; eta_b]``, with the counted noise mean."""
    return (np.vstack([model.atom_positions, model.anchors]),
            np.concatenate([model.atom_weights, counted_mean(model, idx)]))


def signed_measure(model, support, coef, idx):
    """The certificate's signed point set ``P = [S; atoms; anchors]`` and
    its coefficients ``q = [c; -w; -eta_b]``."""
    points, q = observation(model, idx)
    return np.vstack([np.reshape(support, (-1, model.dim)), points]), np.concatenate([coef, -q])


def signed_field(model, t, support, coef, idx):
    """The synthetic certificate's values and gradients as the weighted
    kernel of ``signed_measure``, one primitive call each."""
    measure = signed_measure(model, support, coef, idx)
    return model.weighted_kernel(t, *measure), model.weighted_grad1_kernel(t, *measure)


def signed_sum_bound(model, t, support, coef, idx):
    """Elementwise bounds between the certificate of ``signed_measure`` and
    the four primitives' with the same noise mean, for the values and for
    the gradients: ``1.01 (N + 2) eps sum_j |k_ij q_j|`` and
    ``1.01 (N + 5) eps sum_j |k_ij q_j| (|P_jl| + |t_il|) / var``, where
    ``k = K(t, P)`` and N is the number of points in P.

    Both sum the same terms over the N points with the same kernel
    entries, which are pair-local. A term that meets k roundings is off by
    at most ``gamma(k)`` of its size, whatever the summation order, FMA use
    or thread split. The values: one product ``k @ q`` rounds each term at
    most N times; the primitives take three products and add and subtract
    their results, at most N + 2. The gradients ``(s[:, :d] - s[:, d:] t) /
    var`` from ``s = k @ [q P, q]``: the right-hand side, the product, the
    scaling by t, the subtraction and the division round each term
    ``k_ij q_j P_jl / var`` or ``k_ij q_j t_il / var`` at most N + 3 times,
    and the primitives, which do this per point set and then add and
    subtract, at most N + 5. The differences are at most ``gamma_N +
    gamma_{N+2} <= (N + 2) eps`` and ``(N + 5) eps`` times those sums; 1.01
    covers the denominators and the rounding of the bounds' own sums. Over
    400 draws at the sizes of the property tests the measured difference
    reached 0.2 of either bound."""
    t = np.reshape(t, (-1, model.dim))
    points, q = signed_measure(model, support, coef, idx)
    k, size = model.kernel_matrix(t, points), np.abs(q)
    values = k @ size
    grads = (k * size) @ np.abs(points) + values[:, None] * np.abs(t)
    n = len(q)
    return (1.01 * (n + 2) * EPS * values, 1.01 * (n + 5) * EPS * grads / model.sigma**2)


class Reference(SyntheticKernel):
    """The certificate composed from the four primitives, each building one
    kernel matrix per point set, with the counted noise mean, and its
    stateless loop evaluations, whose ``ev`` is the operands. Every array is
    fresh: the loop's workspace ``ws`` is accepted and not used."""

    def certificate_values(self, t, support, coef, idx=None, ws=None):
        return self.weighted_kernel(t, support, coef) - self.y_inner_many(t, idx)

    def pushed_values(self, support, coef, idx, cand, ws=None):
        return (self.certificate_values(support, support, coef, idx),
                self.certificate_values(cand, support, coef, idx), (support, coef, idx))

    def candidate_values(self, ev, t, ws=None):
        return self.certificate_values(t, *ev)

    def support_field(self, t, coef, idx, ev, keep, ws=None):
        return self.certificate_field(t, t, coef, idx)

    @property
    def y_norm_sq(self):
        pts, coefs = observation(self, None)
        return float(coefs @ self.kernel_matrix(pts, pts) @ coefs)

    def y_inner_many(self, t, idx=None, ws=None):
        return self.weighted_kernel(t, *observation(self, idx))

    def grad_y_inner_many(self, t, idx=None):
        return self.weighted_grad1_kernel(t, *observation(self, idx))

    def certificate_field(self, t, support, coef, idx=None, ws=None):
        return (self.weighted_kernel(t, support, coef) - self.y_inner_many(t, idx),
                self.weighted_grad1_kernel(t, support, coef) - self.grad_y_inner_many(t, idx))


class Signed(Reference):
    """``Reference`` with the certificate as the weighted kernel of the
    signed measure: one kernel matrix per evaluation and primitive."""

    def certificate_values(self, t, support, coef, idx=None, ws=None):
        return signed_field(self, t, support, coef, idx)[0]

    def certificate_field(self, t, support, coef, idx=None, ws=None):
        return signed_field(self, t, support, coef, idx)


# --- the mixture ---------------------------------------------------------------

#: absolute slack of one subnormal entry: its exp and its constant's product
ETA = 8.0 * 2.0**-1074
#: absolute slack of the subnormal roundings of one reduction, ``(q + 6) q
#: 2^-1075`` for q up to 400 samples or points
FLOOR = 2.0**-1056


def plane_density(center, var):
    """``N(.; center, var I)`` in the plane, one point at a time, for
    quadrature: the mixture's feature ``phi_t`` has ``center = t`` and
    ``var = 1 + tau^2``."""
    return lambda x0, x1: math.exp(-((x0 - center[0]) ** 2 + (x1 - center[1]) ** 2)
                                   / (2 * var)) / (2 * math.pi * var)


def smoothed_sample(data, tau):
    """The mixture's observation in the plane, the sample smoothed by
    ``N(0, tau^2 I)``, one point at a time."""
    densities = [plane_density(xi, tau**2) for xi in data]
    return lambda x0, x1: sum(f(x0, x1) for f in densities) / len(data)


def mixture_means(model, t, x=None):
    """The data-side means ``<y, phi_t>`` over the samples ``x``, all of
    them by default: one density row per point, its mean times the
    density's constant."""
    x = model.data if x is None else x
    return gauss_density(t, x, model._yvar).mean(axis=1) * model._ynorm


def mixture_grads(model, t, x):
    """The gradients of ``<y, phi_t>`` over the samples ``x``, ``mean_i
    N(t; x_i) (x_i - t) / yvar``: the density rows' product with the samples
    and their means, each times the density's constant."""
    rows = gauss_density(t, x, model._yvar)
    means = rows.mean(axis=1) * model._ynorm
    return ((rows @ x) * (model._ynorm / len(x)) - means[:, None] * t) / model._yvar


def brute_y_norm_sq(data, tau):
    """``|y|^2`` as the exact double sum over all ordered pairs of samples."""
    n, d = data.shape
    total = 0.0
    for lo in range(0, n, 256):
        total += np.exp(-reference_sqdist(data[lo : lo + 256], data) / (4.0 * tau**2)).sum()
    return (4.0 * math.pi * tau**2) ** (-d / 2.0) * total / n**2


def divided(a, b, var, dim):
    """The normalized entries ``exp(d2 / (-2 var)) (2 pi var)^(-d/2)``, the
    density's constant applied to every entry, and the per-entry relative
    bound ``eps_ij`` of ``mixture_field``."""
    d2 = gaussian._sqdist(a, b)
    eps = (3.02 * d2 / (2.0 * var) + 10.0) * U
    d2 /= -2.0 * var
    np.exp(d2, out=d2)
    d2 *= (2.0 * np.pi * var) ** (-dim / 2.0)
    return d2, eps


def entry_size(p, eps, k):
    """Each entry's bound per unit term size: ``(eps_ij + 2 gamma_k) |P_ij| + ETA``."""
    return (eps + 2.0 * gamma(k)) * np.abs(p) + ETA


def mixture_field(model, t, support, coef, x):
    """The field over the samples ``x`` with every sum taken over the
    ``divided`` entries: the values, the gradients and the data-side means,
    and the bound of each against ``GmmKernel``, which finishes each entry
    as ``exp(d2 * (-0.5 / var))`` and multiplies the densities' constants
    into the sums the entries are reduced to.

    Both forms start from the same ``_sqdist`` bits, so they differ by
    rounding alone. With ``z = d2 / (2 var)`` for one entry:

    * ``divided`` rounds the exponent once (``-2 var`` is exact), the model
      twice (``-0.5 / var``, then the product), so the two exponents differ
      by at most ``3.01 z u`` and the exact exps by that relative factor;
    * each exp is within 2 units in the last place, at most ``4u`` of its
      value, on either side; ``divided`` multiplies every entry by the
      constant and the model's ``kernel_matrix`` does too, one rounding each;
    * so every normalized entry is within ``eps_ij = (3.02 z + 10) u`` of
      the ``divided`` entry ``P_ij``, relative to it, and within ``ETA``
      absolutely once it is subnormal, where rounding is absolute.

    A reduction of q entries rounds each term at most q + 6 times on either
    side, whatever the summation order (the product, the constant, the
    scaling by t, the division and the final subtraction included), so it is
    off by at most ``gamma(q + 6)`` of the sum of its terms' sizes on each
    side. The two forms' values and gradients are therefore within ``1.01
    sum_j ((eps_ij + 2 gamma(q + 6)) |P_ij| + ETA) w_j`` of each other, where
    ``w_j`` is a term's size per unit entry: ``|c_j|`` for ``K c``, ``1 / m``
    for the means, ``|c_j| (|S_jl| + |t_il|) / var`` and ``(|x_jl| +
    |t_il|) / (m var)`` for the two halves of a gradient. In the subnormal
    range every product and sum rounds by at most ``2^-1075`` absolutely, at
    most ``(q + 6) q`` times per output: below ``FLOOR``, which is added to
    every bound."""
    k, k_eps = divided(t, support, model._kvar, model.dim)
    ky, y_eps = divided(t, x, model._yvar, model.dim)
    m = len(x)
    y = ky.mean(axis=1)
    vals = k @ coef - y
    grads = gaussian.gauss_grad(k, t, support, coef, model._kvar) \
        - (ky @ x / m - y[:, None] * t) / model._yvar
    ks = entry_size(k, k_eps, len(support) + 6)
    ys = entry_size(ky, y_eps, m + 6)
    c = np.abs(coef)
    y_bound = ys.sum(axis=1) / m
    val_bound = ks @ c + y_bound
    grad_bound = ((ks * c) @ np.abs(support) + (ks @ c)[:, None] * np.abs(t)) / model._kvar \
        + (ys @ np.abs(x) / m + y_bound[:, None] * np.abs(t)) / model._yvar
    return (vals, grads, y), (1.01 * val_bound + FLOOR, 1.01 * grad_bound + FLOOR,
                              1.01 * y_bound + FLOOR)


# --- ReLU ----------------------------------------------------------------------

def relu_batch(model, idx=None):
    """The batch rows ``X_b`` with their bias column, and their targets."""
    x = model.features if idx is None else model.features[idx]
    y = model.targets if idx is None else model.targets[idx]
    return np.hstack([x, np.ones((x.shape[0], 1))]), y


def relu_output(model, t, c, idx=None):
    """The batch rows ``X_b``, their targets ``y`` and the network output
    ``relu(X_b T') c`` on them."""
    aug, y = relu_batch(model, idx)
    return aug, y, np.maximum(aug @ t.T, 0.0) @ c


def relu_sum_bound(model, a, b, coef, idx):
    """Summation error bound ``64 eps (|act_a|' (|act_b| |coef|)) / m``,
    elementwise, between ReLU's ``kernel_sum`` and ``kernel_matrix @ coef``.

    Both orders sum the same products ``act_a[k, i] act_b[k, j] coef_j``;
    each one's rounding error is at most a multiple of eps times the sum of
    the products' absolute values, which is this bound without the 64. The
    multiple grows with the summation length, in practice like its square
    root; the measured error is at most 0.6 eps times the absolute sum at
    the sizes of the tests and 2.1 at m = 20,000 and |b| = 400, so 64
    leaves a wide margin. A relative tolerance would fail where positive and
    negative coefficients cancel to a value near zero."""
    aug, _, u = relu_output(model, b, np.abs(coef), idx)
    return 64.0 * EPS * (np.maximum(aug @ a.T, 0.0).T @ u) / aug.shape[0]


def residual_field(model, points, support, coef, idx):
    """ReLU's unsigned field in residual form: ``act' r / m`` and
    ``((X_b * r)' [act > 0])' / m``, ``r = relu(X_b S) c - y``."""
    aug, y, u = relu_output(model, support, coef, idx)
    act = np.maximum(aug @ points.T, 0.0)
    r = u - y
    m = aug.shape[0]
    return act.T @ r / m, ((aug * r[:, None]).T @ (act > 0.0).astype(float)).T / m


def masked_residual_grads(model, points, support, coef, idx):
    """The gradients with the residual scaling the mask instead of the batch
    rows: ``(X_b' ([pre > 0] * r))' / m``, whose products ``X_b[i, l] r_i``
    the matrix product forms itself."""
    aug, y, u = relu_output(model, support, coef, idx)
    pre = aug @ points.T
    return (aug.T @ ((pre > 0.0) * (u - y)[:, None])).T / aug.shape[0]


def scaled_rows_bound(model, points, support, coef, idx):
    """Elementwise rounding bound ``16 eps sum_i |X_b[i, l] r_i| [pre_ij > 0] / m``
    between the gradients and ``masked_residual_grads``.

    Both sum the same terms ``X_b[i, l] r_i [pre_ij > 0]`` over the batch,
    in matrix products of the same shape and layout. The residual form
    rounds each ``X_b[i, l] r_i`` before its product adds it, the masked
    form inside the product: at most eps / 2 times each term. Each sum's own
    rounding error is at most a multiple of eps times the sum of the terms'
    absolute values, as in ``relu_sum_bound``. The measured difference is at
    most 2.6 eps times that sum over 3,000 draws at the sizes of the
    property test and 2.2 at p = 300 with m = 256 or m = 2,000, on one or
    two BLAS threads, so 16 leaves a wide margin; a relative tolerance
    would fail where positive and negative residuals cancel."""
    aug, y, u = relu_output(model, support, coef, idx)
    mask = (aug @ points.T > 0.0).astype(float)
    return 16.0 * EPS * (mask.T @ np.abs(aug * (u - y)[:, None])) / aug.shape[0]


def relu_residual_bound(model, points, support, coef, idx):
    """Elementwise summation error bounds between the residual form and
    ``primitive_field``, for the values and for the gradients.

    Both sum the same products, ``act[k, i] act_s[k, j] c_j`` and
    ``act[k, i] y_k`` for the values and those with ``act[k, i]`` replaced
    by ``[pre[k, i] > 0] X_b[k, l]`` for the gradients, in other groupings:
    the residual form subtracts ``y_k`` per sample before it sums over k,
    the primitives after. As in ``relu_sum_bound``, each one's rounding
    error is at most a multiple of eps times the sum of the products'
    absolute values, which is this bound without the 64. The measured
    difference is at most 1.1 eps times that sum at the sizes of the tests
    and 3.4 at m = 20,000 and p = 400, so 64 leaves a wide margin; a
    relative tolerance would fail where the network output and the targets
    cancel."""
    aug, y, u = relu_output(model, support, np.abs(coef), idx)
    act = np.maximum(aug @ points.T, 0.0)
    size = u + np.abs(y)
    m = aug.shape[0]
    return (64.0 * EPS * (act.T @ size) / m,
            64.0 * EPS * ((act > 0.0) * size[:, None]).T @ np.abs(aug) / m)


def relu_objective(model, t, w, s, kappa):
    """``0.5 mean((relu(X T') c - y)^2) + kappa sum(w)``, ``c = s w``, in one
    piece."""
    _, y, u = relu_output(model, t, w * s)
    return 0.5 * np.mean((u - y) ** 2) + kappa * w.sum()


def relu_objective_bound(model, t, w, s, kappa):
    """``4 (n + p + d + 4) eps`` times a scale that bounds every term of
    ``relu_objective`` and of ``expanded_objective`` in absolute value.

    Each form is a chain of at most ``N = n + p + d + 4`` rounded sums
    (pre-activations over d + 1 coordinates, network outputs over p
    particles, means over n samples, the final combination), and a computed
    sum of N terms is off by at most ``N eps`` times the sum of their
    absolute values. Those absolute sums are at most the scale
    ``0.5 mean((F + |y|)^2) + kappa sum(w)`` with
    ``F = (|X| |T|') |c|``, which also covers rounding in the
    pre-activations; the factor 4 covers the three terms of the expanded
    form and their difference from the residual. The measured differences
    stay below 5e-6 of the bound at n up to 131,073; dropping one sample
    of the last block already exceeds it."""
    aug, y = relu_batch(model)
    f = (np.abs(aug) @ np.abs(t).T) @ np.abs(w * s)
    scale = 0.5 * np.mean((f + np.abs(y)) ** 2) + kappa * w.sum()
    n, d1 = aug.shape
    return 4.0 * (n + len(w) + d1 + 4) * EPS * scale


def relu_output_bound(model, t, c):
    """``2 (p + d + 1) eps F`` with ``F = (|X| |T|') |c|``, per row, between
    two network outputs ``relu(X T') c`` summed in any order.

    Each form rounds a pre-activation, a sum of d + 1 products, and the
    output, a sum of p terms; with relu 1-Lipschitz both errors are at most
    ``(p + d + 1) eps F``, which the factor 2 counts once per form."""
    aug, _ = relu_batch(model)
    return 2.0 * (len(c) + aug.shape[1]) * EPS * ((np.abs(aug) @ np.abs(t).T) @ np.abs(c))


def relu_objective_loop(model, t, weights, signs, kappa):
    """``ReluKernel.objective_value`` as its own block loop, without
    ``kernels.relu_blocks``."""
    c = weights * signs
    n = model.n_samples
    step = max(1, kernels.ROW_BLOCK_ENTRIES // len(c))
    buf = np.empty((min(step, n), len(c)))
    total = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        act = buf[: hi - lo]
        np.matmul(model._aug[lo:hi], t.T, out=act)
        np.maximum(act, 0.0, out=act)
        resid = act @ c - model.targets[lo:hi]
        total += float(resid @ resid)
    return 0.5 * total / n + kappa * float(weights.sum())


def relu_block_field(model, points, support, coef, idx):
    """``residual_field`` as a plain loop over row blocks of at most
    ``kernels.ROW_BLOCK_ENTRIES`` activations: r from the blocks of the
    support's, then each block of the points' adds its products, in order,
    to the first block's."""
    aug, y = relu_batch(model, idx)
    m, entries = len(aug), kernels.ROW_BLOCK_ENTRIES
    step = max(1, entries // max(1, len(support)))
    r = np.concatenate([np.maximum(aug[lo : lo + step] @ support.T, 0.0) @ coef
                        for lo in range(0, m, step)]) - y
    step = max(1, entries // max(1, len(points)))
    for lo in range(0, m, step):
        act = np.maximum(aug[lo : lo + step] @ points.T, 0.0)
        w = r[lo : lo + step]
        vals_b = act.T @ w
        grads_b = (aug[lo : lo + step] * w[:, None]).T @ (act > 0.0).astype(float)
        vals, grads = (vals_b, grads_b) if lo == 0 else (vals + vals_b, grads + grads_b)
    return vals / m, grads.T / m


# --- the assumption audit --------------------------------------------------------

def fd_hessian_norm(model: KernelModel, s, t, h: float = 1e-4) -> float:
    """Spectral norm of a central finite-difference Hessian of K in s."""
    d = model.dim
    hess = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        hess[:, j] = (grad_k_at(model, s + e, t) - grad_k_at(model, s - e, t)) / (2.0 * h)
    hess = 0.5 * (hess + hess.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(hess))))


def strictly_inside(domain: Domain, p: np.ndarray, margin: float = 1e-3) -> bool:
    if isinstance(domain, Box):
        return bool(np.all(p > domain.lower + margin) and np.all(p < domain.upper - margin))
    if isinstance(domain, Ball):
        return bool(np.linalg.norm(p - domain.center) < domain.radius - margin)
    return True


def reference_audit(model: KernelModel, domain: Domain, grid_points_n: int,
                    rng: np.random.Generator, tv_cap: float = 1.0,
                    noise_safety: float = 1.5) -> AssumptionBounds:
    """``audit_assumptions`` as the loop it replaced: one primitive call per
    pair, per Hessian column and per sample."""
    if grid_points_n < 2:
        raise ValueError("need at least two audit points")
    pts = domain.sample_uniform(rng, size=grid_points_n)
    if isinstance(domain, Box) and domain.dim <= 12:
        corners = grid_points(domain, 2)
        pts = np.vstack([pts, corners])

    kmat = model.kernel_matrix(pts, pts)
    kernel_min = max(float(kmat.min()), 0.0)
    kernel_abs_max = float(np.abs(kmat).max())
    diag = np.array([k_at(model, p, p) for p in pts[: min(64, len(pts))]])
    diag_gap = float(np.abs(diag - 1.0).max())

    n_pairs = min(48, len(pts) - 1)
    pair_a = pts[:n_pairs]
    pair_b = pts[1 : n_pairs + 1]
    grad_norms = [float(np.linalg.norm(grad_k_at(model, a, b))) for a, b in zip(pair_a, pair_b)]
    inner_idx = [i for i in range(n_pairs) if strictly_inside(domain, pair_a[i])][:12]
    hess_norms = [fd_hessian_norm(model, pair_a[i], pair_b[i]) for i in inner_idx]
    smooth_max = max([kernel_abs_max] + grad_norms + hess_norms)

    n_eval = min(24, len(pts))
    eval_pts = pts[:n_eval]
    y_full = model.y_inner_many(eval_pts)
    gy_full = model.grad_y_inner_many(eval_pts)
    k_full = model.kernel_matrix(pair_a, pair_b)
    n_gpairs = min(8, n_pairs)
    gk_full = np.array([grad_k_at(model, pair_a[j], pair_b[j]) for j in range(n_gpairs)])
    dev_y = dev_gy = dev_k = dev_gk = 0.0
    for i in range(model.n_samples):
        one = np.array([i])
        dev_y = max(dev_y, float(np.abs(model.y_inner_many(eval_pts, one) - y_full).max()))
        dev_gy = max(dev_gy, float(
            np.linalg.norm(model.grad_y_inner_many(eval_pts, one) - gy_full, axis=1).max()))
        if not model.kernel_depends_on_samples:
            continue
        dev_k = max(dev_k, float(np.abs(model.kernel_matrix(pair_a, pair_b, one) - k_full).max()))
        gk_one = np.array([grad_k_at(model, pair_a[j], pair_b[j], i) for j in range(n_gpairs)])
        dev_gk = max(dev_gk, float(np.linalg.norm(gk_one - gk_full, axis=1).max()))
    noise_val = dev_y + tv_cap * dev_k
    noise_grad = dev_gy + tv_cap * dev_gk
    noise_sup = noise_safety * max(noise_val, noise_grad)

    cert_offset = float(np.abs(model.y_inner_many(pts)).max())
    return AssumptionBounds(
        kernel_min=kernel_min,
        smooth_max=smooth_max,
        noise_sup=noise_sup,
        cert_offset=cert_offset,
        diag_gap=diag_gap,
    )


#: ``conicswarm calibrate --config configs/synthetic_theory.cfg`` with the
#: numbers of the audit before it was batched
SYNTHETIC_THEORY_REPORT = """\
calibration report
  kernel_min (positivity)   0.499352
  smooth_max                1
  noise_sup                 0.0638395
  cert_offset               0.29319
  tv_radius (stochastic)  8.93819
  tv_bound                  17.8764
  alpha cap (mass)          0.100622
  alpha cap (descent)       0.000281424
  alpha cap (hoeffding)     63.8894
  alpha = min of caps       0.000281424   [binding: descent]
  chosen beta               0.00749353
  schedule preview (horizon-free): k=1: eps=0.0002814 m=1 beta=1, k=10: eps=0.0002814 m=10 beta=0.1, k=100: eps=0.0002814 m=100 beta=0.01
"""
