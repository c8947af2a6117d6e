"""Sampled estimates of a kernel model's regularity constants, which the
calibration and the guarded birth level read."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .domain import Box, Domain, grid_points
from .workspace import ROW_BLOCK_ENTRIES

if TYPE_CHECKING:
    from .kernels import KernelModel

__all__ = ["AssumptionBounds", "audit_assumptions"]


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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``x``, each from the dot product that
    ``np.linalg.norm`` of that row alone takes: one BLAS dot per row."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


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
    arrays hold at most ``ROW_BLOCK_ENTRIES`` entries.

    The Gaussian models' per-pair and per-sample values are pair-local (the
    synthetic model's) or entries with the bits of their pair or sample in
    any product (the mixture's expanded products), so their bounds have the
    bits of a loop over pairs and samples. ReLU's pre-activations
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
    chunk = max(1, ROW_BLOCK_ENTRIES // width)
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
