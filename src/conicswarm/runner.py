"""End-to-end optimization loop with optional birth/death, plus tracing.

Each iteration draws a mini-batch, estimates certificates and gradients at
the support in one fused evaluation, applies the conic update, and (when
enabled) evaluates the pushed certificate that drives deletion and creation
on a second independent batch. Both batches come from one draw of ``2 m``
indices, split in two: numpy's bounded integers give the values and leave
the state of two draws of m (``test_oracle.py`` pins this). Exact losses
are only evaluated at a configurable cadence since they apply the kernel
over the whole support: O(p^2) kernel entries for the Gaussian models, plus
the mixture's O(n p) data-side means, O(n p d) for ReLU over n samples in
d + 1 parameters, as one network residual; both stream over row blocks
whose temporaries do not grow with n.

A weight-update overflow raises ``RunAborted``, which names the iteration
and carries the trace rows recorded so far and the last good swarm.

Each iteration draws its birth candidates C before the death decision,
and scores the pushed measure on the second batch in one pass, for deaths
at its support T' and for births at the candidates. The next support is one
selection from that pass's points, ``[T'; C][keep]``: the survivors, then
the born candidates in draw order. The boolean mask ``keep`` over
``[T'; C]`` is decided once, from the death indices and the candidates'
acceptance mask; ``apply_mass_tweak`` takes its first ``len(T')`` entries
and the born swarm, and ``support_field`` the whole mask. The loop hands on
what the next support field reuses of the pass as ``ev`` and its workspace
as ``ws``, under the contract that ``kernels`` states. The run creates one
``workspace.Workspace`` when it starts and drops it when it returns, and
drops ``ev`` as soon as ``support_field`` has read it, so a slot that grows
frees its old buffer at once.

On an unsigned problem every sign is +1 (``run`` refuses a start swarm with
a negative sign, and births take +1), so the loop skips the sign folds
``s w``, ``s v + kappa`` and ``s grad``, which would not change a bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .birth_death import BirthRule, DeathRule, apply_mass_tweak, draw_candidates, \
    evaluate_birth_candidates, select_deaths
from .dynamics import weight_push_update
from .objective import Problem, loss
from .oracle import draw_batch
from .schedules import AnytimePlan, FixedPlan
from .swarm import ParticleSwarm
from .workspace import Workspace

__all__ = ["RunConfig", "IterationRecord", "RunResult", "RunAborted", "run",
           "trace_to_csv", "trace_from_csv", "TRACE_COLUMNS"]


@dataclass
class IterationRecord:
    """Per-step diagnostics; loss fields are None off cadence, and the wall
    time is None when read back from a trace file."""

    k: int
    time_s: float | None
    loss: float | None
    tv: float
    particles: int
    births: int
    deaths: int
    min_cert: float | None
    delta: float | None
    cert_norm_sq: float | None


#: the trace file's columns, in field order; the count columns are ints
TRACE_COLUMNS = [f.name for f in fields(IterationRecord)]
_COUNT_COLUMNS = {f.name for f in fields(IterationRecord) if f.type == "int"}


@dataclass
class RunConfig:
    """Everything a run needs besides the problem itself.

    The plan owns the rates: the weight rate is ``plan.alpha``, and the
    exploration mass, batch size and position rate of iteration k are
    ``plan.at(k)``. ``full_batch`` switches the oracle to exact evaluation;
    the birth threshold then uses the dataset size. ``j_ref`` is the
    reference loss that ``RunResult.rho_hat`` subtracts.
    """

    init_swarm: ParticleSwarm
    k_iters: int
    plan: FixedPlan | AnytimePlan
    full_batch: bool = False
    birth_death: bool = True
    death_rule: DeathRule = field(default_factory=DeathRule)
    birth_rule: BirthRule = field(default_factory=lambda: BirthRule(threshold_coeff=0.0))
    seed: int = 0
    trace_cadence: int = 10
    j_ref: float | None = None

    def __post_init__(self):
        if self.k_iters < 0:
            raise ValueError("iteration count must be nonnegative")
        if self.trace_cadence < 1:
            raise ValueError("trace cadence must be >= 1")
        self.init_swarm.check()


@dataclass
class RunResult:
    trace: list[IterationRecord]
    final_swarm: ParticleSwarm
    rho_hat: float
    best_index: int
    total_time_s: float

    @property
    def total_births(self) -> int:
        return sum(r.births for r in self.trace)

    @property
    def total_deaths(self) -> int:
        return sum(r.deaths for r in self.trace)

    @property
    def final_loss(self) -> float:
        for rec in reversed(self.trace):
            if rec.loss is not None:
                return rec.loss
        raise ValueError("trace holds no evaluated loss")


class RunAborted(ValueError):
    """A run stopped at an iteration it could not complete; carries the trace
    rows recorded so far and the last good swarm."""

    def __init__(self, message: str, trace: list[IterationRecord], swarm: ParticleSwarm):
        super().__init__(message)
        self.trace = trace
        self.swarm = swarm


def run(config: RunConfig, problem: Problem) -> RunResult:
    """Execute the loop and record one trace row per iteration; a start
    swarm with a negative sign on an unsigned problem is refused."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    swarm = config.init_swarm
    model, kappa, signed = problem.model, problem.kappa, problem.signed
    if not signed and np.any(swarm.signs < 0):
        raise ValueError(f"the problem is unsigned, but {np.count_nonzero(swarm.signs < 0)} "
                         "start particle(s) have sign -1")
    n = model.n_samples
    ws = Workspace()
    t0 = time.perf_counter()

    trace: list[IterationRecord] = []
    last_loss = loss(problem, swarm, ws)
    trace.append(IterationRecord(0, 0.0, last_loss, swarm.tv_norm(), len(swarm),
                                 0, 0, None, None, None))

    ev = keep = None  # the last pushed evaluation and its kept points
    for k in range(1, config.k_iters + 1):
        eps_k, m_k, beta_k = config.plan.at(k)
        batches = None if config.full_batch else \
            draw_batch(rng, (2 if config.birth_death else 1) * m_k, n)
        idx = None if batches is None else batches[:m_k]
        threshold_m = n if config.full_batch else m_k

        coef = swarm.weights * swarm.signs if signed else swarm.weights
        vals, grads = model.support_field(swarm.positions, coef, idx, ev, keep, ws=ws)
        ev = keep = None  # read for the last time: a growing slot frees its buffer
        if signed:
            certs, grads = swarm.signs * vals + kappa, swarm.signs[:, None] * grads
        else:
            certs = vals + kappa
        cert_norm_sq = float(swarm.weights @ certs**2) if len(swarm) else 0.0
        # the recorded minimum tracks the pushed certificate and the
        # candidates'; without the birth/death step the pre-update support
        # values stand in for them
        seen = certs
        try:
            swarm = weight_push_update(problem, swarm, certs, grads, config.plan.alpha, beta_k)
        except ValueError as exc:
            raise RunAborted(f"iteration {k}: {exc}", trace, swarm) from exc

        births = deaths = 0
        if config.birth_death:
            idx_plus = None if batches is None else batches[m_k:]
            cand, cand_signs = draw_candidates(problem, config.birth_rule, rng)
            coef = swarm.weights * swarm.signs if signed else swarm.weights
            vals, cand_vals, ev = model.pushed_values(swarm.positions, coef, idx_plus, cand,
                                                      ws=ws)
            pushed = swarm.signs * vals + kappa if signed else vals + kappa
            death_idx = select_deaths(swarm, pushed, config.death_rule, eps_k, rng)
            born, cand_certs, accept = evaluate_birth_candidates(
                problem, cand, cand_signs, cand_vals, config.birth_rule, eps_k, threshold_m)
            p = len(swarm)
            keep = np.ones(p + len(cand), dtype=bool)
            keep[death_idx] = False
            keep[p:] = accept
            seen = np.concatenate([pushed, cand_certs])
            swarm = apply_mass_tweak(swarm, keep[:p], born)
            births, deaths = len(born), len(death_idx)

        at_cadence = (k % config.trace_cadence == 0) or (k == config.k_iters)
        cur_loss = loss(problem, swarm, ws) if at_cadence else None
        delta = None if cur_loss is None else last_loss - cur_loss
        if cur_loss is not None:
            last_loss = cur_loss
        min_cert = min(float(np.minimum.reduce(seen)), 0.0) if seen.size else None
        trace.append(IterationRecord(k, time.perf_counter() - t0, cur_loss, swarm.tv_norm(),
                                     len(swarm), births, deaths, min_cert, delta,
                                     cert_norm_sq))

    losses = [(i, rec.loss) for i, rec in enumerate(trace) if rec.loss is not None]
    best_index, best_loss = min(losses, key=lambda item: item[1])
    rho_hat = best_loss - config.j_ref if config.j_ref is not None else best_loss
    return RunResult(trace=trace, final_swarm=swarm, rho_hat=rho_hat,
                     best_index=trace[best_index].k, total_time_s=time.perf_counter() - t0)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def trace_to_csv(trace: list[IterationRecord], path) -> None:
    """Write the trace. Wall-time cells are left empty so that identical
    configurations produce byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for rec in trace:
            fh.write(",".join("" if name == "time_s" else _cell(getattr(rec, name))
                              for name in TRACE_COLUMNS) + "\n")


def trace_from_csv(path) -> list[IterationRecord]:
    """Read a trace file: counts as ints, every other cell as a float, or
    None where it is empty."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != TRACE_COLUMNS:
            raise ValueError(f"malformed trace header in {path}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace row in {path}")
            records.append(IterationRecord(*(
                int(txt) if name in _COUNT_COLUMNS else (float(txt) if txt else None)
                for name, txt in zip(TRACE_COLUMNS, parts))))
    return records
