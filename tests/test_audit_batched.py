"""The assumption audit as array evaluations, against the per-sample loop.

``audit_assumptions`` evaluates its pair gradients, finite-difference
Hessians and per-sample deviations as arrays. ``reference_audit`` below is
the loop it replaced, kept verbatim: one primitive call per pair, per
Hessian column and per sample. Gaussian entries are pair-local, and the
Gaussian models' remaining products are stacked ``matmul`` calls that make
each one-sample BLAS call, so for the synthetic and mixture models every
``AssumptionBounds`` field must have the loop's bits, for any sample count,
chunk size and dimension. CI runs this file again with OpenBLAS on two
threads.

ReLU forms the pre-activations of many samples, and its exact pair
gradients, as matrix products, whose summation order differs from the
loop's one-sample products. Every field is a maximum of values that both
forms compute from the same operands by the same expressions up to that
order, so each moves by a few units in the last place of its sums; the
finite-difference Hessian divides a difference of two n-term sums by
2h = 2e-4 and so amplifies them most, to about ``n^1.5 u`` relative with
u = 2^-53, below 1e-11 at the sample counts drawn here. ``RELU_REL`` = 1e-9
leaves a wide margin. The one exception is a pre-activation within rounding
of 0, whose mask can flip in one form only; data in general position, as
drawn here, has none.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.kernels as kernels
from conicswarm.cli import main
from conicswarm.domain import Ball, Box, Domain, grid_points
from conicswarm.experiments import gen_teacher_regression, load_regression
from conicswarm.kernels import (AssumptionBounds, GmmKernel, KernelModel, SyntheticKernel,
                                audit_assumptions)
from helpers import rng

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: relative bound between ReLU's batched and per-sample audit (module docstring)
RELU_REL = 1e-9


# --- the per-sample loop the batched audit replaced, verbatim --------------

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


def _strictly_inside(domain: Domain, p: np.ndarray, margin: float = 1e-3) -> bool:
    if isinstance(domain, Box):
        return bool(np.all(p > domain.lower + margin) and np.all(p < domain.upper - margin))
    if isinstance(domain, Ball):
        return bool(np.linalg.norm(p - domain.center) < domain.radius - margin)
    return True


def reference_audit(model: KernelModel, domain: Domain, grid_points_n: int,
                    rng: np.random.Generator, tv_cap: float = 1.0,
                    noise_safety: float = 1.5) -> AssumptionBounds:
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


# --- problems ---------------------------------------------------------------

def synthetic(seed, n, dim):
    g = rng(seed)
    domain = Box(np.zeros(dim), np.ones(dim))
    atoms = int(g.integers(0, 4))
    return SyntheticKernel(domain, float(g.uniform(0.1, 1.5)), g.uniform(-0.3, 0.3, atoms),
                           domain.sample_uniform(g, size=atoms), n_samples=n,
                           noise_scale=float(g.uniform(0.0, 0.1)),
                           n_anchors=int(g.integers(0, 6)), seed=seed), domain


def gmm(seed, n, dim):
    g = rng(seed)
    data = 3.0 * g.standard_normal((n, dim))
    lo, hi = data.min(axis=0) - 1.0, data.max(axis=0) + 1.0
    return GmmKernel(data, float(g.uniform(0.1, 0.5))), Box(lo, hi)


def teacher(seed, n, dim):
    # dim features, so positions live in dim + 1 coordinates
    _, problem, _ = gen_teacher_regression(n, dim, 2, 0.1, rng(seed))
    return problem.model, problem.domain


def regression(seed, n, dim):
    g = rng(seed)
    x = g.uniform(-50.0, 50.0, size=(n, dim)) * g.uniform(0.1, 10.0, size=dim)
    y = np.sin(x.sum(axis=1)) + 0.1 * g.standard_normal(n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        np.savetxt(path, np.column_stack([x, y]), delimiter=",", fmt="%.17g",
                   header=",".join([f"x{i}" for i in range(dim)] + ["y"]), comments="")
        _, problem = load_regression(path, g)
    return problem.model, problem.domain


def audits(build, seed, n, dim, points, block):
    """The batched audit with ``_ROW_BLOCK_ENTRIES = block`` and the loop."""
    model, domain = build(seed, n, dim)
    with mock.patch.object(kernels, "_ROW_BLOCK_ENTRIES", block):
        new = audit_assumptions(model, domain, points, rng(seed + 1), tv_cap=0.7)
    old = reference_audit(model, domain, points, rng(seed + 1), tv_cap=0.7)
    return new, old


cases = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150), dim=st.integers(1, 3),
             points=st.integers(2, 70), block=st.integers(1, 2**13))


@pytest.mark.parametrize("build", [synthetic, gmm], ids=["synthetic", "gmm"])
@settings(max_examples=60, deadline=None)
@given(**cases)
def test_gaussian_audit_has_the_bits_of_the_loop(build, seed, n, dim, points, block):
    new, old = audits(build, seed, n, dim, points, block)
    for field in dataclasses.fields(AssumptionBounds):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert a.hex() == b.hex(), (field.name, a, b)


@pytest.mark.parametrize("build", [teacher, regression], ids=["teacher", "regression"])
@settings(max_examples=40, deadline=None)
@given(**cases)
def test_relu_audit_within_rounding_of_the_loop(build, seed, n, dim, points, block):
    new, old = audits(build, seed, max(n, 10), dim, points, block)
    for field in dataclasses.fields(AssumptionBounds):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert math.isclose(a, b, rel_tol=RELU_REL, abs_tol=0.0), (field.name, a, b)


def test_shipped_gaussian_configs_have_the_bits_of_the_loop():
    from conicswarm.cli import build_problem
    from conicswarm.config import load_config

    for name in ("synthetic_theory.cfg", "gmm_desk.cfg"):
        spec = load_config(CONFIGS / name)
        problem, _ = build_problem(spec)
        args = (problem.model, problem.domain, spec.rates["audit_points"])
        new = audit_assumptions(*args, rng(spec.problem["seed"] + 7))
        old = reference_audit(*args, rng(spec.problem["seed"] + 7))
        assert [x.hex() for x in dataclasses.astuple(new)] == \
            [x.hex() for x in dataclasses.astuple(old)], name


#: ``conicswarm calibrate --config configs/synthetic_theory.cfg`` before the
#: audit was batched
SYNTHETIC_THEORY_REPORT = """\
calibration report
  kernel_min (positivity)   0.499352
  smooth_max                1
  noise_sup                 0.0638395
  cert_slope / cert_offset  0.499352 / 0.29319
  tv_radius (stochastic)  8.93819
  tv_bound                  17.8764
  alpha cap (mass)          0.100622
  alpha cap (descent)       0.000281424
  alpha cap (hoeffding)     63.8894
  alpha = min of caps       0.000281424   [binding: descent]
  beta structural bound     0.00749353
  chosen beta               0.00749353
  schedule preview (horizon-free): k=1: eps=0.0002814 m=1 beta=1, k=10: eps=0.0002814 m=10 beta=0.1, k=100: eps=0.0002814 m=100 beta=0.01
"""


def test_synthetic_theory_calibration_report_is_unchanged(capsys):
    assert main(["calibrate", "--config", str(CONFIGS / "synthetic_theory.cfg")]) == 0
    assert capsys.readouterr().out == SYNTHETIC_THEORY_REPORT
