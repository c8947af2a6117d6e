"""Command-line entry point: calibrate, run, verify, report.

Every command is a thin shell over library calls plus file I/O. Exit
codes: 0 success, 1 runtime failure, 2 configuration or assumption
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import experiments
from .audit import audit_assumptions
from .birth_death import BirthRule, DeathRule, guarded_threshold_coeff, tail_exponent_for_dim
from .config import ConfigError, RunSpec, load_config, parse_value
from .domain import Box, DomainError, grid_points
from .kernels import SyntheticKernel
from .objective import Problem, kkt_residual
from .runner import RunAborted, RunConfig, run, trace_from_csv, trace_to_csv
from .schedules import AnytimePlan, CalibrationError, FixedPlan, calibrate, horizon_plan
from .swarm import ParticleSwarm

__all__ = ["main", "build_problem", "build_run_config"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


@contextmanager
def _domain_from(key: str):
    """Report a domain that the bounds given by ``[problem] key`` make, and
    that ``Box`` refuses, as a configuration error naming the key."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(f"[problem] {key}: {exc}") from None


def build_problem(spec: RunSpec):
    """Instantiate the problem described by ``[problem]``.

    Returns ``(problem, extras)``; extras may hold the dataset, or the raw
    sample cloud and the spec of the mixture that generated it, depending
    on the model. A box that the bounds or the data make and ``Box``
    refuses is a ``ConfigError`` naming the key, and so is a ``sigma`` too
    small for the box's kernel exponents.
    """
    prob = spec.problem
    rng = np.random.Generator(np.random.Philox(prob["seed"]))
    extras = {}
    model_kind = prob["model"]
    if model_kind == "synthetic":
        dim = prob["dim"]
        with _domain_from("box_low/box_high"):
            domain = Box(np.full(dim, prob["box_low"]), np.full(dim, prob["box_high"]))
        signed = prob["signed"] if prob["signed"] is not None else True
        # plant atoms in the inner 80% of the box so the kernel audit's
        # boundary points stay informative
        low, span = prob["box_low"], prob["box_high"] - prob["box_low"]
        positions = low + 0.1 * span + 0.8 * (domain.sample_uniform(rng, size=prob["atoms"]) - low)
        weights = prob["atom_mass"] * rng.uniform(0.75, 1.25, size=prob["atoms"])
        if signed:
            weights *= rng.choice([-1.0, 1.0], size=prob["atoms"])
        with _domain_from("sigma"):
            model = SyntheticKernel(domain, prob["sigma"], weights, positions,
                                    n_samples=prob["n_samples"],
                                    noise_scale=prob["noise_scale"], seed=prob["seed"] + 1)
        problem = Problem(model=model, domain=domain, kappa=prob["kappa"], signed=signed)
    elif model_kind == "gmm":
        if prob["data_path"]:
            where = spec.resolve_path(prob["data_path"])
            with _domain_from(f"data_path {where}"):
                data, problem = experiments.load_gmm_data(where, tau=prob["tau"],
                                                          kappa=prob["kappa"])
        else:
            gspec = experiments.GmmSpec.ring(
                n_components=prob["components"], radius=prob["ring_radius"],
                n_samples=prob["gmm_samples"], tau=prob["tau"])
            with _domain_from("ring_radius"):
                data, problem = experiments.gen_gmm(gspec, rng, kappa=prob["kappa"])
            extras["gmm_spec"] = gspec
        extras["data"] = data
    elif model_kind == "teacher":
        dataset, problem, _ = experiments.gen_teacher_regression(
            n_samples=prob["reg_samples"], n_features=prob["features"],
            n_teacher=prob["teacher_neurons"], noise=prob["label_noise"],
            rng=rng, kappa=prob["kappa"])
        extras["dataset"] = dataset
    elif model_kind == "regression":
        dataset, problem = experiments.load_regression(
            spec.resolve_path(prob["data_path"]), rng, kappa=prob["kappa"])
        extras["dataset"] = dataset
    else:  # pragma: no cover - schema rejects other values
        raise ConfigError(f"unknown model {model_kind!r}")
    return problem, extras


def _audit(spec: RunSpec, problem: Problem):
    rng = np.random.Generator(np.random.Philox(spec.problem["seed"] + 7))
    return audit_assumptions(problem.model, problem.domain, spec.rates["audit_points"],
                             rng, tv_cap=spec.rates["audit_tv_cap"])


def _calibrate(spec: RunSpec, problem: Problem, bounds, nu0_tv: float):
    """Calibrated rates, refused when unusable (``Calibration.check_rates``)."""
    cal = calibrate(bounds, nu0_tv=nu0_tv, kappa=problem.kappa,
                    lambda_x=problem.domain.volume(),
                    y_norm=math.sqrt(problem.model.y_norm_sq),
                    stochastic=spec.run["variant"] == "stochastic")
    cal.check_rates(bounds)
    return cal


def build_init_swarm(spec: RunSpec, problem: Problem, extras) -> ParticleSwarm:
    run_cfg = spec.run
    rng = np.random.Generator(np.random.Philox(run_cfg["seed"] + 1000))
    init = run_cfg["init"]
    p0 = run_cfg["init_particles"]
    w0 = run_cfg["init_weight"]
    if init.startswith("csv:"):
        where = spec.resolve_path(init[4:])
        swarm = ParticleSwarm.from_csv(where)
        if swarm.dim != problem.domain.dim:
            raise ConfigError(f"[run] init {where}: swarm has dimension {swarm.dim}, "
                              f"the problem {problem.domain.dim}")
    else:
        if init == "sphere":
            pos = rng.standard_normal((p0, problem.domain.dim))
            pos /= np.linalg.norm(pos, axis=1, keepdims=True)
        elif init == "clustered":
            if "data" in extras:
                anchor = np.asarray(extras["data"][0], dtype=float)
            elif isinstance(problem.model, SyntheticKernel):
                anchor = problem.model.atom_positions[0]
            else:
                anchor = problem.domain.sample_uniform(rng)
            jitter = 0.05 * rng.standard_normal((p0, problem.domain.dim))
            pos = problem.domain.project(anchor[None, :] + jitter)
        else:
            pos = problem.domain.sample_uniform(rng, size=p0)
        signs = rng.choice([-1.0, 1.0], size=p0) if problem.signed else np.ones(p0)
        where, swarm = init, ParticleSwarm(np.full(p0, w0), signs, pos).check()
    outside = np.flatnonzero(~problem.domain.contains(swarm.positions))
    if outside.size:
        raise ConfigError(f"[run] init {where}: particle {outside[0]} at "
                          f"{swarm.positions[outside[0]].tolist()} lies outside the domain")
    if not problem.signed and np.any(swarm.signs < 0):
        raise ConfigError(f"[run] init {where}: the problem is unsigned, "
                          "but the swarm has negative signs")
    return swarm


def build_run_config(spec: RunSpec, problem: Problem, extras):
    """Assemble the runner configuration; returns ``(config, calibration)``.

    The problem is audited for calibrated rates, which are then calibrated,
    and for the theory profile's noise-derived birth threshold, which is
    resolved only when births are on or the rates are calibrated. Manual
    rates are never calibrated, and the calibration is then None.
    """
    init_swarm = build_init_swarm(spec, problem, extras)
    bd = spec.birth_death
    rates_cfg = spec.rates
    theory = bd["profile"] == "theory"
    calibrated = rates_cfg["mode"] == "calibrated"
    least = tail_exponent_for_dim(problem.domain.dim)
    if bd["tail_exponent"] is not None and bd["tail_exponent"] < least:
        raise ConfigError(f"[birth_death] tail_exponent must be at least d / (2 (2 + d)) = "
                          f"{least:g} in d = {problem.domain.dim}, got {bd['tail_exponent']!r}")

    bounds = cal = None
    if calibrated or (bd["enabled"] and bd["birth_threshold"] is None and theory):
        bounds = _audit(spec, problem)

    if calibrated:
        cal = _calibrate(spec, problem, bounds, init_swarm.tv_norm())
        alpha = cal.alpha
        beta = cal.chosen_beta if rates_cfg["beta"] is None else rates_cfg["beta"]
    else:
        alpha = rates_cfg["alpha"]
        beta = rates_cfg["beta"] if rates_cfg["beta"] is not None else 0.0

    variant = spec.schedule["variant"]
    if variant == "fixed":
        plan = FixedPlan(alpha, spec.schedule["eps"], spec.schedule["batch"], beta)
    elif variant == "horizon":
        beta_cap = cal.chosen_beta if calibrated else (beta if beta > 0 else math.inf)
        plan = horizon_plan(spec.run["iterations"], alpha, beta_cap, problem.domain.dim)
    else:
        plan = AnytimePlan(alpha=alpha)

    death = DeathRule(kind=bd["death"], tau_death=bd["tau_death"], scan=bd["scan"])
    threshold = bd["birth_threshold"]
    if threshold is None:
        # the audit ran exactly where births are on or the rates calibrated
        if theory and bounds is not None:
            noise = bounds.noise_sup
            if noise <= 0:
                raise ConfigError("guarded birth threshold needs a positive audited "
                                  "noise bound; set birth_threshold explicitly")
            exponent = least if bd["tail_exponent"] is None else bd["tail_exponent"]
            threshold = guarded_threshold_coeff(noise, exponent)
        else:
            threshold = 0.0
    birth = BirthRule(threshold_coeff=threshold, candidates_per_iter=bd["candidates"],
                      birth_mass=bd["birth_mass"])

    config = RunConfig(
        init_swarm=init_swarm,
        k_iters=spec.run["iterations"],
        full_batch=spec.run["variant"] == "full",
        birth_death=bd["enabled"],
        plan=plan,
        death_rule=death,
        birth_rule=birth,
        seed=spec.run["seed"],
        trace_cadence=spec.run["trace_cadence"],
        j_ref=spec.run["jref"],
    )
    return config, cal


def _usage():
    """This process's ``getrusage``, or None where there is no ``resource``
    module (it exists on Unix only)."""
    try:
        import resource
    except ImportError:
        return None
    return resource.getrusage(resource.RUSAGE_SELF)


def cmd_calibrate(args) -> int:
    spec = load_config(args.config, profile_override=args.profile)
    problem, extras = build_problem(spec)
    init_swarm = build_init_swarm(spec, problem, extras)
    bounds = _audit(spec, problem)
    cal = _calibrate(spec, problem, bounds, init_swarm.tv_norm())
    lines = [
        "calibration report",
        f"  kernel_min (positivity)   {bounds.kernel_min:.6g}",
        f"  smooth_max                {bounds.smooth_max:.6g}",
        f"  noise_sup                 {bounds.noise_sup:.6g}",
        f"  cert_offset               {bounds.cert_offset:.6g}",
        f"  tv_radius ({'stochastic' if cal.stochastic else 'deterministic'})  "
        f"{cal.tv_radius:.6g}",
        f"  tv_bound                  {cal.tv_bound:.6g}",
        f"  alpha cap (mass)          {cal.alpha_cap_mass:.6g}",
        f"  alpha cap (descent)       {cal.alpha_cap_descent:.6g}",
        f"  alpha cap (hoeffding)     {cal.hoeffding_cap:.6g}",
        f"  alpha = min of caps       {cal.alpha:.6g}   [binding: {cal.binding_cap}]",
        f"  chosen beta               {cal.chosen_beta:.6g}",
    ]
    if bounds.diag_gap > 1e-9:
        lines.append(f"  warning: kernel is not normalized, max |K(t,t)-1| = "
                     f"{bounds.diag_gap:.6g}; calibration used audited bounds")
    plan = AnytimePlan(alpha=cal.alpha)
    preview = ", ".join(f"k={k}: eps={plan.at(k)[0]:.4g} m={plan.at(k)[1]} "
                        f"beta={plan.at(k)[2]:.4g}" for k in (1, 10, 100))
    lines.append(f"  schedule preview (horizon-free): {preview}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_run(args) -> int:
    spec = load_config(args.config, profile_override=args.profile)
    if args.seed is not None:
        spec.run["seed"] = parse_value("run", "seed", args.seed, "--seed")
    problem, extras = build_problem(spec)
    config, cal = build_run_config(spec, problem, extras)
    out_dir = Path(args.out) if args.out else spec.resolve_path(spec.output["dir"])

    def save(trace, swarm):
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_to_csv(trace, out_dir / "trace.csv")
        swarm.to_csv(out_dir / "final_swarm.csv")

    before = _usage()
    try:
        result = run(config, problem)
    except RunAborted as exc:
        save(exc.trace, exc.swarm)  # the last good swarm and the rows so far
        raise
    after = _usage()
    save(result.trace, result.final_swarm)

    method = f"{spec.run['variant']}{'+bd' if spec.birth_death['enabled'] else ''}"
    mses = {}
    if "dataset" in extras:
        mses[method] = experiments.heldout_mse(result.final_swarm, extras["dataset"])
    rows = experiments.summarize([(method, result)], mses)
    (out_dir / "summary.csv").write_text(experiments.summary_csv(rows), encoding="utf-8")
    lines = [experiments.summary_text(rows)]
    if spec.run["kkt_grid"]:
        grid = grid_points(problem.domain, spec.run["kkt_grid"])
        if len(result.final_swarm):
            grid = np.vstack([grid, result.final_swarm.positions])
        report = kkt_residual(problem, result.final_swarm, grid)
        lines.append(f"kkt: min_cert_grid={report.min_cert_grid:.6g} "
                     f"support_resid={report.max_abs_cert_support:.6g}")
    if cal is not None:
        lines.append(f"calibrated: alpha={cal.alpha:.6g} beta={cal.chosen_beta:.6g} "
                     f"tv_bound={cal.tv_bound:.6g}")
    lines.append(f"rho_hat={result.rho_hat:.6g} best_k={result.best_index}")
    faults = peak = "n/a"
    if after is not None:
        # no iteration ran at k_iters = 0: the faults are the set-up loss's
        if config.k_iters:
            faults = f"{(after.ru_minflt - before.ru_minflt) / config.k_iters:.3g}"
        # ru_maxrss is in bytes on macOS and in KiB on Linux
        peak = f"{after.ru_maxrss / (2**20 if sys.platform == 'darwin' else 2**10):.1f}"
    lines.append(f"resources: minor_faults_per_iter={faults} peak_rss_mb={peak}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    try:
        results = run_suite(args.suite, seed=args.seed if args.seed is not None else 0)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG
    for res in results:
        print(res.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


def _trace_summary_row(path: Path):
    trace = trace_from_csv(path)
    losses = [r.loss for r in trace if r.loss is not None]
    if not losses:
        raise ValueError(f"{path}: trace holds no evaluated loss")
    last = trace[-1]
    return {
        "name": path.stem if path.stem != "trace" else path.parent.name,
        "k": last.k,
        "final_loss": losses[-1],
        "min_loss": min(losses),
        "tv": last.tv,
        "p_final": last.particles,
        "deaths": sum(r.deaths for r in trace),
        "births": sum(r.births for r in trace),
    }


def cmd_report(args) -> int:
    rows = [_trace_summary_row(Path(p)) for p in args.traces]
    header = ["Trace", "K", "Loss", "MinLoss", "TV", "p_final", "Deaths", "Births"]
    table = [header] + [[r["name"], str(r["k"]), f"{r['final_loss']:.6g}",
                         f"{r['min_loss']:.6g}", f"{r['tv']:.4f}", str(r["p_final"]),
                         str(r["deaths"]), str(r["births"])] for r in rows]
    print(experiments.aligned(table))

    ks = sorted({r["k"] for r in rows})
    if len(ks) >= 2:
        j_ref = args.jref if args.jref is not None else min(r["min_loss"] for r in rows)
        pts = [(r["k"], r["min_loss"] - j_ref) for r in rows if r["min_loss"] - j_ref > 0]
        if len(pts) >= 2:
            logk = np.log([p[0] for p in pts])
            logr = np.log([p[1] for p in pts])
            slope = float(np.polyfit(logk, logr, 1)[0])
            refs = ", ".join(f"{-1.0 / (2.0 * (2.0 + d)):.4f} (d={d})" for d in (1, 2, 3))
            print(f"excess-loss slope vs K: {slope:.4f}  "
                  f"[theoretical references: {refs}; constants problem-dependent]")
        else:
            print("excess-loss slope: not enough strictly positive excess values to fit")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conicswarm",
        description="Particle-swarm solver for sparse-measure least squares with "
                    "birth/death exploration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="audit a problem and derive rates")
    p_cal.add_argument("--config", required=True)
    p_cal.add_argument("--profile", choices=["theory", "experiments"], default=None)
    p_cal.set_defaults(fn=cmd_calibrate)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", default=None)  # parsed as [run] seed
    p_run.add_argument("--profile", choices=["theory", "experiments"], default=None)
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify", help="run property suites")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_rep = sub.add_parser("report", help="summarize one or more traces")
    p_rep.add_argument("traces", nargs="+")
    p_rep.add_argument("--jref", type=float, default=None)
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
