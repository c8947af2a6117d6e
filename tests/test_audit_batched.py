"""The assumption audit as array evaluations, against the per-sample loop.

``audit_assumptions`` evaluates its pair gradients, finite-difference
Hessians and per-sample deviations as arrays. The reference's
``reference_audit`` is the loop it replaced: one primitive call per pair,
per Hessian column and per sample. Gaussian entries are pair-local, and the
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

import conicswarm.audit as audit
from conicswarm.audit import AssumptionBounds, audit_assumptions
from conicswarm.cli import build_problem, main
from conicswarm.config import load_config
from conicswarm.domain import Box
from conicswarm.experiments import gen_teacher_regression, load_regression
from conicswarm.kernels import GmmKernel, SyntheticKernel
from helpers import rng
from reference import SYNTHETIC_THEORY_REPORT, reference_audit

pytestmark = pytest.mark.exactness

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: relative bound between ReLU's batched and per-sample audit (module docstring)
RELU_REL = 1e-9


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
    # the mixture is planar whatever ``dim`` the other builders draw
    g = rng(seed)
    data = 3.0 * g.standard_normal((n, 2))
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
    """The batched audit with ``ROW_BLOCK_ENTRIES = block`` and the loop."""
    model, domain = build(seed, n, dim)
    with mock.patch.object(audit, "ROW_BLOCK_ENTRIES", block):
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
    for name in ("synthetic_theory.cfg", "gmm_desk.cfg"):
        spec = load_config(CONFIGS / name)
        problem, _ = build_problem(spec)
        args = (problem.model, problem.domain, spec.rates["audit_points"])
        new = audit_assumptions(*args, rng(spec.problem["seed"] + 7))
        old = reference_audit(*args, rng(spec.problem["seed"] + 7))
        assert [x.hex() for x in dataclasses.astuple(new)] == \
            [x.hex() for x in dataclasses.astuple(old)], name


def test_synthetic_theory_calibration_report_is_unchanged(capsys):
    assert main(["calibrate", "--config", str(CONFIGS / "synthetic_theory.cfg")]) == 0
    assert capsys.readouterr().out == SYNTHETIC_THEORY_REPORT
