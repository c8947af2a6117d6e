"""Compact convex position domains: axis-aligned boxes and Euclidean balls.

Particle positions live in a compact convex set X. Both supported shapes
admit a closed-form Euclidean projection, which is all the generalized
(proximal) gradient step needs, and both draw exactly uniform points for
the birth process at O(d) cost per draw: a box draws each coordinate
uniformly, a ball scales a normalized standard-normal direction by the
radius ``r * U^(1/d)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Domain", "DomainError", "Box", "Ball", "grid_points"]

_MAX_GRID_POINTS = 50_000  # past this, grids are uniform draws, not lattices


class DomainError(ValueError):
    """Bounds that a domain refuses."""


class Domain(ABC):
    """Compact convex subset of R^d with projection and uniform sampling."""

    dim: int

    @abstractmethod
    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean nearest point of the domain; identity on members.

        Accepts a single point of shape (d,) or a stack of shape (n, d).
        """

    @abstractmethod
    def contains(self, x: np.ndarray, tol: float = 1e-12):
        """Membership test, broadcast over a stack of points; a negative
        ``tol`` asks for points at least ``-tol`` inside."""

    @abstractmethod
    def sample_uniform(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw points uniformly from the domain: (d,) or (size, d)."""

    @abstractmethod
    def volume(self) -> float:
        """Lebesgue volume, positive and finite."""

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != domain dimension {self.dim}")
        return x

    def prox_step(self, t: np.ndarray, v: np.ndarray, beta: float):
        """Generalized gradient step for descent vector v at base point t.

        Returns ``(t_plus, pi)`` where ``t_plus = argmin_{u in X} <u, v> +
        |u - t|^2 / (2 beta) = project(t - beta v)`` and
        ``pi = (t - t_plus) / beta``, so ``t_plus = t - beta * pi``.
        Vectorized over stacked rows of t and v.
        """
        if beta <= 0:
            raise ValueError("prox_step requires beta > 0")
        t = self._check_dim(t)
        v = self._check_dim(v)
        t_plus = self.project(t - beta * v)
        pi = (t - t_plus) / beta
        return t_plus, pi


class Box(Domain):
    """Axis-aligned box ``prod_i [lower_i, upper_i]``.

    Its squared diameter ``sum((upper - lower)^2)``, summed over the
    coordinates in order, must be a finite float. Two points of the box
    differ by at most the width ``upper_i - lower_i`` in each coordinate and
    rounding is monotone, so each rounded difference, its square and every
    running sum over the coordinates is at most the widths': every pair of
    points in the box has the finite squared distance that
    ``gaussian._sqdist`` forms that way.
    """

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1 or not self.lower.size:
            raise DomainError("box bounds must be non-empty 1-d arrays of equal length")
        with np.errstate(over="ignore", invalid="ignore"):
            width = self.upper - self.lower
            sq_diam = np.add.accumulate(width * width)[-1]
        if not np.all(np.isfinite(width) & (self.lower < self.upper)):
            raise DomainError("box requires lower < upper with a finite width in every coordinate")
        if not np.isfinite(sq_diam):
            raise DomainError(f"the box's squared diameter sum((upper - lower)^2) is {sq_diam}, "
                              "not a finite float")
        self.dim = self.lower.size

    def __repr__(self):
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"

    def project(self, x):
        x = self._check_dim(x)
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def contains(self, x, tol=1e-12):
        x = self._check_dim(x)
        ok = (x >= self.lower - tol) & (x <= self.upper + tol)
        return np.all(ok, axis=-1)

    def sample_uniform(self, rng, size=None):
        shape = (self.dim,) if size is None else (size, self.dim)
        return self.lower + (self.upper - self.lower) * rng.random(shape)

    def volume(self):
        return float(np.prod(self.upper - self.lower))


class Ball(Domain):
    """Closed Euclidean ball of given center and radius."""

    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball requires radius > 0")
        self.dim = self.center.size

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    def project(self, x):
        x = self._check_dim(x)
        offset = x - self.center
        norm = np.linalg.norm(offset, axis=-1, keepdims=True)
        scale = np.where(norm > self.radius, self.radius / np.maximum(norm, 1e-300), 1.0)
        return self.center + offset * scale

    def contains(self, x, tol=1e-12):
        x = self._check_dim(x)
        return np.linalg.norm(x - self.center, axis=-1) <= self.radius + tol

    def sample_uniform(self, rng, size=None):
        """Exact uniform draws at O(d) cost each: a standard-normal direction,
        normalized, times the radius ``r * U^(1/d)``, plus the center."""
        n = 1 if size is None else int(size)
        z = rng.standard_normal((n, self.dim))
        scale = self.radius * rng.random((n, 1)) ** (1.0 / self.dim)
        # an all-zero direction (possible in floating point, not in law) lands on the center
        norm = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        pts = self.center + z * (scale / norm)
        return pts[0] if size is None else pts

    def volume(self):
        d = self.dim
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * self.radius**d


def grid_points(domain: Domain, resolution: int) -> np.ndarray:
    """Evaluation grid inside the domain.

    Boxes get a regular lattice of ``resolution`` points per axis (corners
    included); balls get the lattice of their bounding box filtered to the
    ball plus its center. When the lattice would exceed ``_MAX_GRID_POINTS``
    the grid falls back to that many uniform draws of a fixed stream.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    d = domain.dim
    if resolution**d > _MAX_GRID_POINTS:
        return domain.sample_uniform(np.random.Generator(np.random.Philox(0)),
                                     size=_MAX_GRID_POINTS)
    if isinstance(domain, Box):
        lo, hi = domain.lower, domain.upper
    elif isinstance(domain, Ball):
        lo, hi = domain.center - domain.radius, domain.center + domain.radius
    else:
        raise TypeError(f"unsupported domain type {type(domain)!r}")
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(d)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    if isinstance(domain, Box):
        return pts
    return np.vstack([pts[domain.contains(pts)], domain.center[None, :]])
