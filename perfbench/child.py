"""Solver runs in a fresh process, as ``conicswarm run`` performs them.

Usage: ``python3 perfbench/child.py JOB.json`` with ``src`` on PYTHONPATH.
The job names the config, the horizon, the run seeds and the output
directory; the config's own trace cadence is kept. The sequence is
``load_config`` -> ``cli.build_problem`` -> ``cli.build_run_config`` ->
``runner.run`` -> the outputs ``cmd_run`` writes. Phases are timed from
outside; the outputs are checked; the figures go to ``result.json`` in the
output directory.

With ``"trace": 0`` the process makes ``rounds`` rounds over the run seeds
(see ``untraced``). With ``"trace": 1`` it makes one run: set-up and the
loop are made with the tracer installed, and the loop is also run
untraced, before and after the traced loop, in the same process on the
same problem and configuration: the traced loop time minus the mean
untraced one is the tracing overhead, and the traced and untraced
trace.csv files must be byte-identical. The microbenchmarks follow.

Every run seed also has one untimed loop at the finer ``target_cadence``
that finds the best loss and the iteration at which the loss reaches the
target (see ``figures``): before the timed loops with ``"trace": 0``,
after them with ``"trace": 1``.

Times are CPU seconds of this process (``clock``): BLAS is pinned to one
thread, so they equal wall seconds on an idle core, and they leave out the
time the machine gives to other processes. With ``"trace": 0`` they are
also scaled by ``reference()`` (see ``untraced``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from conicswarm import cli, domain, experiments, objective, runner
from conicswarm.config import load_config
from conicswarm.kernels import SyntheticKernel
from conicswarm.swarm import ParticleSwarm

HERE = Path(__file__).resolve().parent
#: the benchmark's clock: CPU seconds of this (single-threaded) process
clock = time.process_time
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
from tracer import Tracer  # noqa: E402


class CpuClock:
    """Stands in for ``time`` inside ``runner`` so ``IterationRecord.time_s``
    reads the same CPU clock as the benchmark; time_s never reaches trace.csv."""

    perf_counter = staticmethod(clock)


#: nominal CPU seconds of one ``reference()`` call (see ``untraced``)
REF_NOMINAL_S = 0.1
#: the reference is timed in this many equal chunks
REF_CHUNKS = 12
_REF_RNG = np.random.default_rng(0)
_REF_DATA = _REF_RNG.standard_normal((2000, 2))
_REF_POINTS = _REF_RNG.standard_normal((32, 2))
_REF_WEIGHTS = _REF_RNG.standard_normal(32)
_REF_SWARM = _REF_RNG.standard_normal((300, 3))
_REF_SMALL = _REF_RNG.standard_normal((8, 2))


def _reference_chunk() -> float:
    d2 = ((_REF_DATA[:, None, :] - _REF_POINTS[None, :, :]) ** 2).sum(axis=2)
    total = float(np.exp(-d2) @ _REF_WEIGHTS @ np.ones(len(_REF_DATA)))
    gram = np.exp(-((_REF_SWARM[:, None, :] - _REF_SWARM[None, :, :]) ** 2).sum(axis=2))
    total += float(gram.sum())
    for _ in range(60):
        moved = _REF_SMALL * 1.0001 + 0.5
        total += float(np.sqrt((moved * moved).sum(axis=1)).max())
    return total


def reference() -> float:
    """CPU seconds of a fixed computation that uses no package code.

    It mixes what the workloads spend their time on: a data-side
    Gaussian kernel (32 points against 2,000 samples), a particle-side one
    (300 x 300) and many numpy calls on tiny arrays. It runs in
    REF_CHUNKS equal chunks and reports REF_CHUNKS times the median chunk,
    so a single interrupted chunk does not move it. Its time tracks how
    fast the machine runs at that moment.
    """
    times = []
    for _ in range(REF_CHUNKS):
        start = clock()
        if not math.isfinite(_reference_chunk()):
            raise ArithmeticError("reference computation went non-finite")
        times.append(clock() - start)
    return REF_CHUNKS * statistics.median(times)


def setup(job):
    """Config load to the first iteration: problem, |y|^2, audit/calibration, swarm.

    The |y|^2 constant is read here because the initial loss needs it;
    otherwise its first evaluation would fall inside the timed loop.
    """
    start = clock()
    spec = load_config(job["config"])
    spec.run["iterations"] = job["iterations"]
    problem, extras = cli.build_problem(spec)
    problem.model.y_norm_sq
    config, cal = cli.build_run_config(spec, problem, extras)
    return clock() - start, (spec, problem, extras, config, cal)


def finalise(spec, problem, extras, result, cal, out_dir: Path):
    """The outputs ``cli.cmd_run`` writes after the loop; returns held-out MSE or None."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runner.trace_to_csv(result.trace, out_dir / "trace.csv")
    result.final_swarm.to_csv(out_dir / "final_swarm.csv")
    method = f"{spec.run['variant']}{'+bd' if spec.birth_death['enabled'] else ''}"
    mses = {}
    if "dataset" in extras:
        mses[method] = experiments.heldout_mse(result.final_swarm, extras["dataset"])
    rows = experiments.summarize([(method, result)], mses)
    (out_dir / "summary.csv").write_text(experiments.summary_csv(rows), encoding="utf-8")
    lines = [experiments.summary_text(rows)]
    if spec.run["kkt_grid"] >= 2:
        grid = domain.grid_points(problem.domain, spec.run["kkt_grid"])
        if len(result.final_swarm):
            grid = np.vstack([grid, result.final_swarm.positions])
        report = objective.kkt_residual(problem, result.final_swarm, grid)
        lines.append(f"kkt: min_cert_grid={report.min_cert_grid:.6g} "
                     f"support_resid={report.max_abs_cert_support:.6g}")
    if cal is not None:
        lines.append(f"calibrated: alpha={cal.alpha:.6g} beta={cal.chosen_beta:.6g} "
                     f"tv_bound={cal.tv_bound:.6g}")
    lines.append(f"rho_hat={result.rho_hat:.6g} best_k={result.best_index}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return mses.get(method)


def match_error(swarm: ParticleSwarm, planted: np.ndarray) -> float:
    """Mean over planted atoms of the distance to the heaviest particle in its cell.

    A planted atom's cell holds the particles nearer to it than to any other
    planted atom; an empty cell falls back to the nearest particle. Taking
    the heaviest particle keeps the figure stable when the mass at one
    location has split over many light particles.
    """
    d2 = ((planted[:, None, :] - swarm.positions[None, :, :]) ** 2).sum(axis=2)
    owner = d2.argmin(axis=0)
    dists = []
    for atom in range(planted.shape[0]):
        members = np.flatnonzero(owner == atom)
        if members.size:
            pick = members[np.argmax(swarm.weights[members])]
        else:
            pick = int(d2[atom].argmin())
        dists.append(math.sqrt(d2[atom, pick]))
    return float(np.mean(dists))


def task_error(problem, extras, swarm, heldout):
    if heldout is not None:
        return heldout
    if "gmm_spec" in extras:
        return match_error(swarm, extras["gmm_spec"].means)
    if isinstance(problem.model, SyntheticKernel):
        return match_error(swarm, problem.model.atom_positions)
    raise ValueError("workload has neither held-out data nor planted atoms")


def check_outputs(out_dir: Path, k_iters: int, problem) -> list[str]:
    """Trace length, particle bookkeeping, finiteness and the recomputed final loss."""
    failures = []
    trace = runner.trace_from_csv(out_dir / "trace.csv")
    if len(trace) != k_iters + 1:
        failures.append(f"trace has {len(trace)} rows, expected {k_iters + 1}")
    for prev, cur in zip(trace, trace[1:]):
        if cur.particles != prev.particles + cur.births - cur.deaths:
            failures.append(f"particle bookkeeping broken at k={cur.k}")
            break
    values = [v for rec in trace for v in (rec.loss, rec.tv, rec.min_cert, rec.delta,
                                           rec.cert_norm_sq) if v is not None]
    if not all(math.isfinite(v) for v in values):
        failures.append("trace holds non-finite values")
    final = ParticleSwarm.from_csv(out_dir / "final_swarm.csv")
    last = trace[-1].loss if trace else None
    if last is None:
        failures.append("last trace row has no loss")
    else:
        again = objective.loss(problem, final)
        if not abs(again - last) <= 1e-9 * max(1.0, abs(last)):
            failures.append(f"loss of final_swarm.csv {again!r} != trace loss {last!r}")
    return failures


def solve(job, state, out_dir: Path):
    """Run the loop and write the outputs; returns (result, loop_s, final_s, heldout)."""
    spec, problem, extras, config, cal = state
    start = clock()
    result = runner.run(config, problem)
    loop_s = clock() - start
    start = clock()
    heldout = finalise(spec, problem, extras, result, cal, out_dir)
    return result, loop_s, clock() - start, heldout


def trace_digest(out_dir: Path) -> str:
    return hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()


def fine_loop(job, state):
    """The untimed loop at the finer ``target_cadence`` (see ``figures``)."""
    _spec, problem, _extras, config, _cal = state
    return runner.run(dataclasses.replace(config, trace_cadence=job["target_cadence"]), problem)


def figures(job, state, result, fine, steps, heldout) -> dict:
    """Quality, trajectory and target figures of one finished run.

    At the benchmark's horizons the shipped cadences leave too few losses
    to place the target or to find the best loss, and on relu_stream the
    last one can fall in a mass death. So ``fine``, an untimed loop on the
    same problem and run seed, has the loss every ``target_cadence``
    iterations. The loss draws no random numbers, so that loop keeps the
    timed loop's path; its last loss must equal the timed loop's. ``steps``
    hold the timed loop's per-iteration CPU seconds, one array per repeat;
    the target's time is the median over the repeats.
    """
    _spec, problem, extras, _config, _cal = state
    losses = [(rec.k, rec.loss) for rec in fine.trace if rec.loss is not None]
    k_hit = next((k for k, loss in losses if loss <= job["target_loss"]), None)
    trace = result.trace
    particles = [rec.particles for rec in trace]
    failures = []
    if fine.trace[-1].loss != trace[-1].loss:
        failures.append("the target-cadence loop left the timed loop's path")
    return {
        "target_iter": k_hit,
        "time_to_target_s": None if k_hit is None else
        statistics.median(float(np.sum(s[:k_hit])) for s in steps),
        "best_loss": min(loss for _k, loss in losses),
        "final_loss": trace[-1].loss,
        "final_tv": trace[-1].tv,
        "final_particles": trace[-1].particles,
        "mean_particles": float(np.mean(particles)),
        "max_particles": max(particles),
        "task_err": task_error(problem, extras, result.final_swarm, heldout),
        "failures": failures,
    }


def untraced(job) -> dict:
    """Set-ups and timed loops of one invocation, in rounds over its run seeds.

    The process first sets up ``setups`` times, timing each; the loops use
    the last set-up. The untimed target-cadence loop of every run seed
    follows (see ``figures``), which also warms up. Then each round runs
    the timed loop of every run seed once and writes its outputs, so the
    ``rounds`` loops of one seed are spread over the invocation.

    ``reference()`` runs before the first set-up, after every set-up, after
    the untimed loops and after every timed loop. Each set-up and loop
    time is divided by the mean of the two reference times around it and
    multiplied by REF_NOMINAL_S: a slow phase of the machine slows both
    alike, so the quotient keeps the code's own cost. A seed's figures are
    medians over its rounds.
    """
    seeds, out_root = job["seeds"], Path(job["out"])
    refs = [reference()]

    def scale() -> float:
        refs.append(reference())
        return REF_NOMINAL_S / statistics.mean(refs[-2:])

    setups, state = [], None
    for _ in range(job["setups"]):
        setup_s, state = setup(job)
        setups.append(setup_s * scale())
    # the untimed loops double as warm-up before the first timed one
    fine = {seed: fine_loop(job, with_seed(state, seed)) for seed in seeds}
    refs.append(reference())
    steps = {seed: [] for seed in seeds}
    raw = {seed: [] for seed in seeds}
    finals = {seed: [] for seed in seeds}
    digests = {seed: set() for seed in seeds}
    last = {}
    for _ in range(job["rounds"]):
        for seed in seeds:
            seeded = with_seed(state, seed)
            out_dir = out_root / f"seed{seed}"
            result, _loop_s, final_s, heldout = solve(job, seeded, out_dir)
            factor = scale()
            step = np.diff([rec.time_s for rec in result.trace])
            steps[seed].append(factor * step)
            raw[seed].append((step.tolist(), final_s, refs[-2], refs[-1]))
            finals[seed].append(factor * final_s)
            digests[seed].add(trace_digest(out_dir))
            last[seed] = (seeded, result, heldout)
    runs = []
    for seed in seeds:
        seeded, result, heldout = last[seed]
        out = figures(job, seeded, result, fine[seed], steps[seed], heldout)
        out["failures"] += check_outputs(out_root / f"seed{seed}", job["iterations"],
                                         seeded[1])
        if len(digests[seed]) > 1:
            out["failures"].append("repeated loops on one seed wrote different trace.csv bytes")
        rounds_loop_s = [float(np.sum(x)) for x in steps[seed]]
        out.update(sub_seed=seed, loop_s=statistics.median(rounds_loop_s),
                   final_s=statistics.median(finals[seed]), rounds_loop_s=rounds_loop_s,
                   raw=raw[seed], trace_sha256=digests[seed].pop())
        runs.append(out)
    return {"setups_s": setups, "reference_s": refs, "runs": runs}


def with_seed(state, seed: int):
    """The set-up state with the run configuration's seed set to ``seed``."""
    spec, problem, extras, config, cal = state
    return spec, problem, extras, dataclasses.replace(config, seed=seed), cal


def traced(job) -> dict:
    """Traced set-up and loop, bracketed by two untraced loops on the same problem."""
    out_dir = Path(job["out"])
    tracer = Tracer()
    tracer.install()
    try:
        setup_s, state = setup(job)
    finally:
        tracer.uninstall()
    state = with_seed(state, job["seed"])
    _spec, problem, _extras, config, _cal = state
    plain = [runner.run(config, problem)]
    tracer.install()
    try:
        result, loop_s, final_s, heldout = solve(job, state, out_dir)
    finally:
        tracer.uninstall()
    plain.append(runner.run(config, problem))
    (out_dir / "untraced").mkdir(parents=True, exist_ok=True)
    runner.trace_to_csv(plain[-1].trace, out_dir / "untraced" / "trace.csv")

    plain_steps = [np.diff([rec.time_s for rec in r.trace]) for r in plain]
    out = figures(job, state, result, fine_loop(job, state), plain_steps, heldout)
    out["failures"] += check_outputs(out_dir, job["iterations"], problem)
    if (out_dir / "trace.csv").read_bytes() != (out_dir / "untraced" / "trace.csv").read_bytes():
        out["failures"].append("traced and untraced trace.csv bytes differ")
    tracer.write_spans(out_dir / "spans.csv")
    out.update(setup_s=setup_s, loop_s=loop_s, final_s=final_s,
               tracing_overhead_s=result.trace[-1].time_s
               - statistics.mean(r.trace[-1].time_s for r in plain),
               trace_sha256=trace_digest(out_dir),
               layers=tracer.table(), counts=dict(tracer.counts),
               micro={**micro.run_all(Path(job["root"]), job["seed"]),
                      **micro.single_workload_figures(Path(job["root"]), job["seed"],
                                            Path(job["standin_csv"]))})
    return out


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    runner.time = CpuClock
    out = traced(job) if job["trace"] else untraced(job)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["out"], "result.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
