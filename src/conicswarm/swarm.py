"""Particle measures: weighted signed Dirac masses.

A swarm stores a nonnegative weight, a sign in {-1, +1} and a position per
particle. The sign is the lifted second coordinate that lets a signed
measure be treated as a nonnegative one: the feature of a signed particle
is ``sign * phi(position)``, so all conic-descent formulas apply verbatim.

Values are checked once, by ``ParticleSwarm.check``, where a swarm enters
the program: ``from_csv``, ``lift_signed``, the CLI's initial swarm and
``RunConfig``. The loop needs no check: its weights are nonnegative weights
times ``exp`` (``weight_push_update`` rejects overflow) or birth masses
(``BirthRule`` rejects a bad ``birth_mass``, the plans a bad ``eps``), its
signs are carried over or drawn from {-1, +1}; the constructor checks lengths.

A swarm takes ownership of the arrays it is given: the constructor does not
copy them, so a caller must not write to an array after handing it over.
No code writes swarm arrays in place; every update builds new arrays, and
swarms may share the ones an update leaves unchanged (signs, and positions
when beta = 0).
"""

from __future__ import annotations

import numpy as np

from .csvio import read_numeric_csv

__all__ = ["ParticleSwarm", "lift_signed"]


class ParticleSwarm:
    """Ordered finite collection of particles, stored as flat arrays."""

    __slots__ = ("weights", "signs", "positions")

    def __init__(self, weights, signs, positions):
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.signs = np.asarray(signs, dtype=float).reshape(-1)
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim == 1:
            self.positions = self.positions.reshape(len(self.weights), -1)
        if self.positions.shape[0] != self.weights.size or self.signs.size != self.weights.size:
            raise ValueError("weights, signs and positions must agree in length")

    def check(self) -> "ParticleSwarm":
        """Raise ``ValueError`` unless every value is valid; returns ``self``."""
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.positions))):
            raise ValueError("swarm contains non-finite values")
        if np.any(self.weights < 0):
            raise ValueError("particle weights must be nonnegative")
        if self.signs.size and not np.all(np.isin(self.signs, (-1.0, 1.0))):
            raise ValueError("particle signs must be +1 or -1")
        return self

    @classmethod
    def empty(cls, dim: int) -> "ParticleSwarm":
        return cls(np.empty(0), np.empty(0), np.empty((0, dim)))

    def __len__(self):
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def tv_norm(self) -> float:
        """Total variation norm: the sum of (lifted, nonnegative) weights."""
        return float(self.weights.sum()) if len(self) else 0.0

    def appended(self, extra: "ParticleSwarm") -> "ParticleSwarm":
        """New swarm with the particles of ``extra`` appended in order."""
        return ParticleSwarm(
            np.concatenate([self.weights, extra.weights]),
            np.concatenate([self.signs, extra.signs]),
            np.vstack([self.positions, extra.positions]),
        )

    def to_csv(self, path) -> None:
        """Write ``weight,sign,x0,...,x{d-1}`` rows, one particle per line."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            cols = ",".join(f"x{i}" for i in range(self.dim))
            fh.write(f"weight,sign,{cols}\n" if self.dim else "weight,sign\n")
            for w, s, p in zip(self.weights, self.signs, self.positions):
                coords = ",".join(repr(float(c)) for c in p)
                fh.write(f"{float(w)!r},{int(s)},{coords}\n")

    @classmethod
    def from_csv(cls, path) -> "ParticleSwarm":
        """Read a swarm written by ``to_csv``; a header-only file is the empty swarm."""
        header, rows = read_numeric_csv(path)
        if header[:2] != ["weight", "sign"]:
            raise ValueError(f"unexpected swarm CSV header: {header}")
        # contiguous copies: BLAS products over strided views may round differently
        return cls(rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2:].copy()).check()

    def __repr__(self):
        return f"ParticleSwarm(p={len(self)}, dim={self.dim}, tv={self.tv_norm():.6g})"


def lift_signed(signed_weights, positions) -> ParticleSwarm:
    """Lift a signed atomic measure ``sum_j a_j delta_{x_j}`` to a swarm.

    Each atom ``a * delta_x`` becomes a particle with weight ``|a|`` and
    sign ``sign(a)``. Zero-weight atoms are dropped.
    """
    a = np.asarray(signed_weights, dtype=float).reshape(-1)
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos.reshape(a.size, -1)
    if pos.shape[0] != a.size:
        raise ValueError("signed weights and positions must agree in length")
    keep = a != 0.0
    return ParticleSwarm(np.abs(a[keep]), np.sign(a[keep]), pos[keep]).check()
