"""The mixture's data-side densities from one centred expanded product.

``GmmKernel._density`` forms each exponent ``-|t - x|^2 / s``, ``s = 2
yvar``, as one entry of the product ``[a, -|a|^2/s, 1] @ [2b/s; 1;
-|b|^2/s]`` of the points and the samples centred on the samples' box,
within the bound of the ``GmmKernel`` docstring of the exact exponent; a
domain where that bound passes the budget ``_ENTRY_ERROR`` is refused at
build. Its densities must lie within ``reference.expansion_slack`` of the
exact ``gauss_density``, and its means, and the blocked means of
``y_inner_many``, within ``reference.mixture_side_bound`` of
``mixture_means``: in the plane, up to 1e6 from the origin, exact and
batched, on both sides of ``PRODUCT_ENTRIES`` (``_sqdist``'s product path)
and ``ROW_BLOCK_ENTRIES`` (the blocked means). Every point that the model
of a run, its audit and the Frechet check see lies within the radius its
build admitted.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm import cli, verify
from conicswarm.cli import build_problem, main
from conicswarm.config import load_config
from conicswarm.domain import Box, DomainError, grid_points
from conicswarm.gaussian import gauss_density
from conicswarm.kernels import GmmKernel
from helpers import mixture, rng
from reference import ETA, U, budget_radius, expansion_slack, mixture_means, mixture_side_bound, \
    near

pytestmark = pytest.mark.exactness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cloud(g, size, d, width, offset):
    return g.uniform(-width, width, size=(size, d)) + offset


#: points and samples: 60 x 70 entries fall below ``PRODUCT_ENTRIES``, 70 x
#: 70 above it, and 60 x 3,000 above ``ROW_BLOCK_ENTRIES``
SIZES = (1, 60, 70, 300)
SAMPLES = (1, 70, 3_000)


@given(p=st.sampled_from(SIZES), n=st.sampled_from(SAMPLES),
       width=st.sampled_from([0.5, 4.0, 20.0]),
       offset=st.sampled_from([0.0, 1e6, -1e6, 3.7e5]), tau=st.floats(0.05, 1.0),
       batch=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_densities_within_the_bound_of_exact_differences(p, n, width, offset, tau, batch, seed):
    # ``width`` 20 puts most pairs' densities below the float range; the
    # mixture is planar
    g, d = rng(seed), 2
    data, t = cloud(g, n, d, width, offset), cloud(g, p, d, width, offset)
    model = mixture(data, tau, t)
    idx = g.integers(0, n, size=int(g.integers(1, 2 * n + 1))) if batch else None
    x = model.data if idx is None else model.data[idx]

    batch = model._samples(idx)
    assert batch[1].flags.c_contiguous  # every product's right operand
    rows, means = model._density(t, batch)
    exact = gauss_density(t, x, model._yvar)
    slack = expansion_slack(model, t, x) + 8.0 * U
    assert np.all(np.abs(rows - exact) <= 1.01 * slack * exact + ETA)
    want = mixture_means(model, t, x)
    bound = mixture_side_bound(model, t, idx)[0]
    assert near(means, want, bound)
    assert near(model.y_inner_many(t, idx), want, bound)


def test_shipped_profiles_take_the_product_and_a_wide_ring_does_not():
    # gmm_full.cfg's domain corners lie 19.4 and its samples up to 11.9 from
    # the samples' centre: the data-side bound is about 5e-13 there and the
    # kernel's 4.0e-13 between opposite corners, within the budget, so the
    # build admits the domain, and every point of it lies within its
    # ``_extent``; the same samples and domain spread 1e6 times wider are
    # refused at build, naming tau
    for name in ("gmm_full.cfg", "gmm_desk.cfg"):
        problem, _ = build_problem(load_config(CONFIGS / name))
        model = problem.model
        corners = grid_points(problem.domain, 2)
        assert np.sqrt(model._left(corners)[:, 2].max()) == model._extent
        assert expansion_slack(model, corners, model.data).max() < 1e-12
        assert expansion_slack(model, corners, corners, model._kvar).max() < 1e-12
    wide = Box(problem.domain.lower * 1e6, problem.domain.upper * 1e6)
    with pytest.raises(DomainError, match=r"at tau = 0\.2 a mixture entry may be off by "
                                          r"\S+, past the budget 1e-09"):
        GmmKernel(problem.model.data * 1e6, 0.2, wide)


@pytest.mark.parametrize("spread", [1.0, 300.0])
def test_the_build_admits_a_domain_up_to_the_budget(spread):
    # a domain whose corner farthest from the samples' centre lies at 0.99
    # of the budget's radius is admitted, and one at 1.01 refused, naming
    # tau: samples spread by 1 leave the kernel's bound the tighter one,
    # samples spread by 300 the densities'. The near corners lie at half
    # that distance.
    data = spread * rng(13).standard_normal((300, 2))
    center = 0.5 * data.min(axis=0) + 0.5 * data.max(axis=0)
    radius, by_density = budget_radius(data, 0.3)
    assert by_density == (spread > 1.0)
    for scale in (0.99, 1.01):
        corner = scale * radius / np.sqrt(2.0)
        domain = Box(center - 0.5 * corner, center + corner)
        if scale < 1.0:
            assert GmmKernel(data, 0.3, domain)._extent <= radius
        else:
            with pytest.raises(DomainError, match=r"at tau = 0\.3 .* past the budget 1e-09"):
                GmmKernel(data, 0.3, domain)


def test_every_point_the_model_sees_lies_within_its_admitted_radius(monkeypatch, tmp_path):
    # the contract in place of a per-call check of the products' reach:
    # every point set of a run (the support after projection, the births
    # drawn in the domain, the ``kkt:`` grid), of its audit and of the
    # Frechet check lies within the radius ``_extent`` that the build
    # admitted. The grid's and the audit's corners reach it exactly.
    seen = []

    def left(self, t, _real=GmmKernel._left):
        out = _real(self, t)
        if hasattr(self, "_extent"):  # not the build's own samples and corner
            seen.append((float(np.sqrt(out[:, 2].max(initial=0.0))), self._extent))
        return out

    monkeypatch.setattr(GmmKernel, "_left", left)
    body = (CONFIGS / "gmm_desk.cfg").read_text(encoding="utf-8")
    assert "iterations = 5000\n" in body and "tau_death = 5.0\n" in body
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(body.replace("iterations = 5000", "iterations = 150")
                   .replace("tau_death = 5.0", "tau_death = 1.0"), encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "summary.csv", encoding="utf-8") as fh:
        summary = next(csv.DictReader(fh))
    assert int(summary["Deaths"]) > 0 and int(summary["Births"]) > 0
    assert "kkt:" in (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    spec = load_config(cfg)
    problem, _ = build_problem(spec)
    parts = [list(seen)]
    seen.clear()
    cli._audit(spec, problem)
    parts.append(list(seen))
    seen.clear()
    verify.suite_frechet()
    parts.append(list(seen))
    for part in parts:
        assert part and all(radius <= extent for radius, extent in part)
    for part in parts[:2]:
        assert max(radius for radius, _ in part) == part[0][1]
