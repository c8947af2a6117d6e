"""The tracer must not change what the solver writes.

Run with ``python3 -m pytest perfbench/test_trace_bytes.py`` from the
repository root. A short traced run of the theory profile must write the
same trace.csv bytes as the untraced loop of the same process, and an
untraced child on the same seed must reproduce them too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import standin  # noqa: E402


def _child(tmp_path: Path, trace: int) -> dict:
    out = tmp_path / f"trace{trace}"
    csv = tmp_path / "standin.csv"
    if not csv.is_file():
        standin.write_csv(csv, 7)
    job = {"config": str(run.ROOT / "configs" / "synthetic_theory.cfg"), "iterations": 60,
           "target_loss": 1.0, "target_cadence": 5, "seed": 7, "seeds": [7], "rounds": 2,
           "setups": 2, "trace": trace, "root": str(run.ROOT), "standin_csv": str(csv),
           "out": str(out)}
    out.mkdir()
    (out / "job.json").write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), str(out / "job.json")],
                   cwd=run.ROOT, env=run.child_env(), check=True, timeout=120)
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def test_traced_trace_bytes_equal_untraced(tmp_path):
    traced = _child(tmp_path, trace=1)
    traced_bytes = (tmp_path / "trace1" / "trace.csv").read_bytes()
    plain = _child(tmp_path, trace=0)["runs"][0]
    plain_bytes = (tmp_path / "trace0" / "seed7" / "trace.csv").read_bytes()
    assert traced["failures"] == []
    assert plain["failures"] == []
    assert traced_bytes == (tmp_path / "trace1" / "untraced" / "trace.csv").read_bytes()
    assert traced_bytes == plain_bytes
    assert traced["trace_sha256"] == plain["trace_sha256"]
    assert traced["layers"]["runner.run"]["calls"] == 1
    assert traced["layers"]["kernels.kernel_matrix"]["calls"] > 0
