"""Solver benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gmm_stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Solver runs are made in fresh ``python3 perfbench/child.py`` processes
with ``src`` on their path and BLAS pinned to one thread. With
``--trace 0`` one process makes rounds of timed loops, one per run seed
derived from ``--seed`` in each round; the number of rounds follows from
``--seconds`` and the workload's nominal ``round_s`` alone, never from how
fast the code runs. It reports the end-to-end metrics over the run seeds.
With ``--trace 1`` it makes ``traced_runs`` traced runs, each followed by
the microbenchmarks, on one seed, and reports the median of each
per-layer metric. Every run's outputs are checked; a run that fails a
check, misses its loss target, exits non-zero or times out counts as
failed. Metric names, units and bounds come from BENCHMARK.json;
per-workload settings from workloads.json; perfbench/METRICS.md explains
every metric. The last line of standard output is one JSON object with
the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import standin
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
PACKAGE = SRC / "conicswarm"

#: BLAS/OpenMP threads per solver process (recorded in the manifest)
THREADS = 1
#: a whole benchmark invocation must finish well inside three minutes
RUN_LIMIT_S = 170.0
#: metric suffixes that read 0 when the layer was never entered
ZERO_WHEN_ABSENT = (".calls", ".self_s", ".total_s", ".entries", ".points")


def src_digest() -> str:
    """SHA-256 over the package sources: identifies the code under test."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of a git checkout, read from ``.git`` in the root; None elsewhere."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workloads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": workloads,
        "rounds": {name: rounds(wl, args.seconds) for name, wl in workloads.items()},
    }


def rounds(wl: dict, seconds: float) -> int:
    """Rounds of untraced solver runs: fixed by ``--seconds``, not by speed."""
    return max(1, round(seconds / wl["round_s"]))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def standin_csv(seed: int) -> Path:
    """The seeded stand-in CSV, written once per seed."""
    csv = OUT / "data" / f"seed{seed}" / "standin.csv"
    if not csv.is_file():
        csv.parent.mkdir(parents=True, exist_ok=True)
        standin.write_csv(csv, seed)
    return csv


def workload_config(wl, seed: int) -> Path:
    """The shipped config, or a copy pointed at the seeded stand-in data."""
    shipped = ROOT / wl["config"]
    if not wl.get("standin"):
        return shipped
    csv = standin_csv(seed)
    config = csv.parent / shipped.name
    standin.write_config(shipped, config, csv.name)
    return config


def run_child(job: dict, timeout: float) -> dict:
    out_dir = Path(job["out"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job_path = out_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {timeout:.0f} s"],
                "elapsed_s": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"failures": [f"exit code {proc.returncode}: {tail[0]}"], "elapsed_s": elapsed}
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    result["elapsed_s"] = elapsed
    return result


def outcome_checks(name: str, wl, sub_seed: int, result: dict, bench: dict) -> None:
    """Target, quality ceiling and byte-for-byte repeatability; appends to failures."""
    failures = result.setdefault("failures", [])
    if "trace_sha256" not in result:
        return
    if result["time_to_target_s"] is None:
        failures.append(f"loss target {wl['target_loss']} not reached in {wl['iterations']} "
                        f"iterations")
    ceiling = wl["best_loss_ceiling"]
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "best_loss")
    if result["best_loss"] > ceiling * (1.0 + bound):
        failures.append(f"best_loss {result['best_loss']!r} above ceiling {ceiling} "
                        f"by more than {bound:.0%}")
    code = hashlib.sha256((src_digest() + json.dumps(wl, sort_keys=True)).encode())
    record = OUT / "sha" / code.hexdigest()[:16] / f"{name}_{sub_seed}.txt"
    record.parent.mkdir(parents=True, exist_ok=True)
    if record.is_file():
        if record.read_text(encoding="utf-8").strip() != result["trace_sha256"]:
            failures.append("trace.csv differs from an earlier run of this code and seed")
    else:
        record.write_text(result["trace_sha256"] + "\n", encoding="utf-8")


def end_to_end(setups_s: list[float], runs: list[dict], peak_rss_mb: float,
               k_iters: int) -> dict:
    """Figures of one invocation (see METRICS.md, Clocks).

    All times are scaled by the reference computation. ``setup_s`` is the
    median of the invocation's set-ups; a run seed's loop and finalisation
    times are medians over its rounds. Times are means over the run seeds,
    quality figures medians.
    """
    setup_s = statistics.median(setups_s)
    return {
        "setup_s": setup_s,
        "ms_per_iter": 1000.0 * statistics.mean(r["loop_s"] for r in runs) / k_iters,
        "wall_s": setup_s + statistics.mean(r["loop_s"] + r["final_s"] for r in runs),
        "peak_rss_mb": peak_rss_mb,
        "best_loss": statistics.median(r["best_loss"] for r in runs),
        "mean_particles": statistics.median(r["mean_particles"] for r in runs),
    }


def per_layer(result: dict) -> dict:
    """Flatten a traced run into ``<layer>.<function>.<figure>`` metrics."""
    out = {}
    for span, row in result["layers"].items():
        for key, value in row.items():
            out[f"{span}.{key}"] = value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for span, row in result["layers"].items()
                                     if span.startswith(layer + "."))
    out.update(result["counts"])
    out.update(result["micro"])
    births = result["counts"].get("birth_death.births", 0)
    candidates = result["counts"].get("birth_death.candidates", 0)
    out["birth_death.accept_ratio"] = births / candidates if candidates else 0.0
    out.update({
        "runner.particles_mean": result["mean_particles"],
        "runner.particles_max": result["max_particles"],
        "runner.tracing_overhead_s": result["tracing_overhead_s"],
        "runner.target_iter": result["target_iter"],
        "runner.time_to_target_s": result["time_to_target_s"],
        "runner.final_loss": result["final_loss"],
        "runner.final_tv": result["final_tv"],
        "runner.final_particles": result["final_particles"],
        "experiments.task_err": result["task_err"],
    })
    return out


def select(metrics: dict, wanted: list[dict]) -> dict:
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name in metrics and metrics[name] is not None:
            value = metrics[name]
        elif name.endswith(ZERO_WHEN_ABSENT):
            value = 0
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def report(name: str, run: dict) -> None:
    for failure in run["failures"]:
        print(f"FAILED {name} sub-seed {run['sub_seed']}: {failure}")


def bench_untraced(name: str, wl: dict, job: dict, args, bench: dict):
    """One solver process making ``rounds`` rounds over the ``seeds`` run seeds.

    Every timed loop is one attempted solver run; a run seed that fails a
    check fails all its rounds, and a process that fails fails them all.
    """
    n_rounds = rounds(wl, args.seconds)
    seeds = [args.seed * 1000 + i for i in range(wl["seeds"])]
    job.update(seeds=seeds, rounds=n_rounds, setups=wl["setups"],
               out=str(OUT / "runs" / name))
    result = run_child(job, RUN_LIMIT_S)
    runs = result.get("runs") or [{"sub_seed": seed, "failures": list(result["failures"])}
                                  for seed in seeds]
    for run in runs:
        outcome_checks(name, wl, run["sub_seed"], run, bench)
        report(name, run)
    good = [r for r in runs if not r["failures"]]
    attempted, failed = n_rounds * len(seeds), n_rounds * (len(seeds) - len(good))
    if not good:
        return None, attempted, failed, runs
    metrics = end_to_end(result["setups_s"], good, result["peak_rss_mb"], wl["iterations"])
    return select(metrics, bench["end_to_end"]), attempted, failed, runs


def bench_traced(name: str, wl: dict, job: dict, bench: dict, seed: int):
    """``traced_runs`` traced solver processes on one run seed; median per metric.

    A run that would overrun the three-minute limit is not started; the
    runs left out count as failed.
    """
    total = wl["traced_runs"]
    start = time.perf_counter()
    results, skipped = [], 0
    for run_index in range(total):
        elapsed = time.perf_counter() - start
        if results and elapsed + 1.5 * max(r["elapsed_s"] for r in results) > RUN_LIMIT_S:
            skipped = total - run_index
            print(f"FAILED {name}: {skipped} solver runs left out to keep within "
                  f"{RUN_LIMIT_S:.0f} s")
            break
        result = run_child(dict(job, seed=seed, out=str(OUT / "runs" / name / f"run{run_index}")),
                           RUN_LIMIT_S - elapsed)
        result["sub_seed"] = seed
        outcome_checks(name, wl, seed, result, bench)
        report(name, result)
        results.append(result)
    good = [r for r in results if not r["failures"]]
    attempted, failed = len(results) + skipped, len(results) - len(good) + skipped
    if not good:
        return None, attempted, failed, results
    layers = [per_layer(r) for r in good]
    metrics = {key: statistics.median(m.get(key, 0) for m in layers) for key in layers[0]}
    return select(metrics, bench["per_layer"]), attempted, failed, results


def bench_workload(name: str, wl: dict, args, bench: dict):
    """Run one workload; returns (metrics, attempted, failed, solver-run records)."""
    job = {"config": str(workload_config(wl, args.seed)), "iterations": wl["iterations"],
           "target_loss": wl["target_loss"], "target_cadence": wl["target_cadence"],
           "trace": args.trace, "root": str(ROOT), "standin_csv": str(standin_csv(args.seed))}
    if args.trace:
        return bench_traced(name, wl, job, bench, args.seed * 1000)
    return bench_untraced(name, wl, job, args, bench)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="conicswarm solver benchmark")
    parser.add_argument("--workload", required=True,
                        help="workload name from perfbench/workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package sources at {PACKAGE}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            print(f"perfbench: unknown workload {name!r}", file=sys.stderr)
            return 2
        if not (ROOT / workloads[name]["config"]).is_file():
            print(f"perfbench: missing config {workloads[name]['config']}", file=sys.stderr)
            return 2

    info = manifest(args, workloads)
    combined, attempted, failed = {}, 0, 0
    for name in names:
        metrics, n_runs, n_failed, results = bench_workload(name, workloads[name], args, bench)
        attempted += n_runs
        failed += n_failed
        record = {"workload": name, "manifest": info, "metrics": metrics,
                  "attempted": n_runs, "failed": n_failed,
                  "runs": [{k: v for k, v in r.items() if k not in ("layers", "counts", "raw")}
                           for r in results]}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"result_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        digests = {(r["sub_seed"], r["trace_sha256"]) for r in results if "trace_sha256" in r}
        for sub_seed, digest in sorted(digests):
            print(f"trace_sha256 {name} sub-seed {sub_seed} {digest}")
        print(f"{name}: {n_runs} runs, {n_failed} failed, failed_runs "
              f"{n_failed / n_runs:.3f}")
        if metrics is None:
            print(f"perfbench: every run of {name} failed", file=sys.stderr)
            return 1
        for metric, entry in metrics.items():
            print(f"  {name}.{metric} = {entry['value']!r} {entry['unit']}")
            combined[metric if len(names) == 1 else f"{name}.{metric}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
