"""End-to-end optimization loop with optional birth/death, plus tracing.

Each iteration draws a mini-batch, estimates certificates and gradients at
the support in one fused evaluation, applies the conic update, and (when
enabled) draws a second independent batch to evaluate the pushed
certificate that drives deletion and creation. Exact losses are only
evaluated at a configurable cadence since they apply the kernel over the
whole support: O(p^2) kernel entries for the Gaussian models, plus the
mixture's O(n p) data-side means, O(n p d) for ReLU over n samples in
d + 1 parameters, as one network residual; both stream over row blocks
whose temporaries do not grow with n.

A weight-update overflow raises ``RunAborted``, which names the iteration
and carries the trace rows recorded so far and the last good swarm.

The loop runs inside ``KernelModel.run_scope``, where a model may keep
evaluations between calls. The birth candidates are scored against the
pushed support on the pushed certificate's batch, so a ReLU run takes that
batch and the support's network output on it from the pushed evaluation,
and a mixture run the fetched batch rows. Unless a particle died, each
support is the previous pushed support followed by the accepted
candidates, so a mixture run takes its kernel matrix (and at beta = 0 the
pushed one's), and a full-batch run also their data-side rows, from those
two evaluations. Everything kept is dropped when ``run`` returns or raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .birth_death import BirthRule, DeathRule, apply_mass_tweak, evaluate_birth_candidates, \
    select_deaths
from .dynamics import StepRates, weight_push_update
from .objective import Problem, certificate, certificate_and_grad, loss
from .oracle import draw_batch
from .schedules import AnytimePlan, FixedPlan
from .swarm import ParticleSwarm

__all__ = ["RunConfig", "IterationRecord", "RunResult", "RunAborted", "run",
           "trace_to_csv", "trace_from_csv", "TRACE_COLUMNS"]

TRACE_COLUMNS = ["k", "time_s", "loss", "tv", "particles", "births", "deaths",
                 "min_cert", "delta", "cert_norm_sq"]


@dataclass
class IterationRecord:
    """Per-step diagnostics; loss fields are None off cadence."""

    k: int
    time_s: float
    loss: float | None
    tv: float
    particles: int
    births: int
    deaths: int
    min_cert: float | None
    delta: float | None
    cert_norm_sq: float | None


@dataclass
class RunConfig:
    """Everything a run needs besides the problem itself.

    ``alpha`` is the weight rate; the exploration mass, batch size and
    position rate of iteration k are ``plan.at(k)`` (an ``AnytimePlan``
    should carry the same alpha). ``full_batch`` switches the oracle to
    exact evaluation; the birth threshold then uses the dataset size.
    """

    init_swarm: ParticleSwarm
    k_iters: int
    alpha: float
    full_batch: bool = False
    birth_death: bool = True
    plan: FixedPlan | AnytimePlan = field(default_factory=lambda: FixedPlan(0.05, 256, 0.0))
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
        if not self.alpha >= 0:
            raise ValueError("rates must be nonnegative")
        self.init_swarm.check()


@dataclass
class RunResult:
    trace: list[IterationRecord]
    final_swarm: ParticleSwarm
    rho_hat: float
    best_index: int
    j_ref: float | None
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
    """Execute the loop and record one trace row per iteration, inside
    ``problem.model.run_scope()``."""
    with problem.model.run_scope():
        return _iterate(config, problem)


def _iterate(config: RunConfig, problem: Problem) -> RunResult:
    rng = np.random.Generator(np.random.Philox(config.seed))
    swarm = config.init_swarm
    n = problem.model.n_samples
    t0 = time.perf_counter()

    trace: list[IterationRecord] = []
    last_loss = loss(problem, swarm)
    trace.append(IterationRecord(0, 0.0, last_loss, swarm.tv_norm(), len(swarm),
                                 0, 0, None, None, None))

    for k in range(1, config.k_iters + 1):
        eps_k, m_k, beta_k = config.plan.at(k)
        idx = None if config.full_batch else draw_batch(rng, m_k, n)
        threshold_m = n if config.full_batch else m_k

        certs, grads = certificate_and_grad(problem, swarm, swarm.positions, swarm.signs, idx)
        cert_norm_sq = float(swarm.weights @ certs**2) if len(swarm) else 0.0
        # the recorded minimum tracks the pushed certificate; without the
        # birth/death step the pre-update support values stand in for it
        min_cert_vals = [] if config.birth_death else \
            ([float(certs.min())] if len(swarm) else [])
        try:
            swarm = weight_push_update(problem, swarm, certs, grads,
                                       StepRates(config.alpha, beta_k))
        except ValueError as exc:
            raise RunAborted(f"iteration {k}: {exc}", trace, swarm) from exc

        births = deaths = 0
        if config.birth_death:
            idx_plus = None if config.full_batch else draw_batch(rng, m_k, n)
            pushed = certificate(problem, swarm, swarm.positions, swarm.signs, idx_plus)
            death_idx = select_deaths(swarm, pushed, config.death_rule, eps_k, rng)
            born, _, _, cand_certs, _ = evaluate_birth_candidates(
                problem, swarm, config.birth_rule, eps_k, threshold_m, idx_plus, rng)
            if len(swarm):
                min_cert_vals.append(float(pushed.min()))
            if cand_certs.size:
                min_cert_vals.append(float(cand_certs.min()))
            swarm = apply_mass_tweak(swarm, death_idx, born)
            births, deaths = len(born), len(death_idx)

        at_cadence = (k % config.trace_cadence == 0) or (k == config.k_iters)
        cur_loss = loss(problem, swarm) if at_cadence else None
        delta = None if cur_loss is None else last_loss - cur_loss
        if cur_loss is not None:
            last_loss = cur_loss
        min_cert = min(min_cert_vals) if min_cert_vals else None
        if min_cert is not None:
            min_cert = min(min_cert, 0.0)
        trace.append(IterationRecord(k, time.perf_counter() - t0, cur_loss, swarm.tv_norm(),
                                     len(swarm), births, deaths, min_cert, delta,
                                     cert_norm_sq))

    losses = [(i, rec.loss) for i, rec in enumerate(trace) if rec.loss is not None]
    best_index, best_loss = min(losses, key=lambda item: item[1])
    rho_hat = best_loss - config.j_ref if config.j_ref is not None else best_loss
    return RunResult(trace=trace, final_swarm=swarm, rho_hat=rho_hat,
                     best_index=trace[best_index].k, j_ref=config.j_ref,
                     total_time_s=time.perf_counter() - t0)


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
            row = [
                _cell(rec.k),
                "",
                _cell(rec.loss),
                _cell(rec.tv),
                _cell(rec.particles),
                _cell(rec.births),
                _cell(rec.deaths),
                _cell(rec.min_cert),
                _cell(rec.delta),
                _cell(rec.cert_norm_sq),
            ]
            fh.write(",".join(row) + "\n")


def trace_from_csv(path) -> list[IterationRecord]:
    def parse(txt: str):
        return None if txt == "" else float(txt)

    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != TRACE_COLUMNS:
            raise ValueError(f"malformed trace header in {path}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace row in {path}")
            records.append(IterationRecord(
                k=int(parts[0]),
                time_s=parse(parts[1]) or 0.0,
                loss=parse(parts[2]),
                tv=parse(parts[3]) or 0.0,
                particles=int(parts[4]),
                births=int(parts[5]),
                deaths=int(parts[6]),
                min_cert=parse(parts[7]),
                delta=parse(parts[8]),
                cert_norm_sq=parse(parts[9]),
            ))
    return records
