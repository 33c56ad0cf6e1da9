"""The benchmark's traced run still works against the current package.

``perfbench/tracer.py`` wraps layer boundaries by their module-level names
from outside the package, so renaming one of them, or a command that
records no span, breaks the benchmark's per-layer run while every other
test passes.  This traces ``analyze``, ``compare`` and ``correlate`` on a
one-pair cohort in child processes, as the benchmark does, and checks that
``layer_metrics`` gives every per-layer metric that ``BENCHMARK.json``
declares, except the two that ``perfbench/run.py`` adds itself, and one
``feature_vector`` span per unit.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
ADDED_BY_RUNNER = {"cli.cpu_s", "trace.overhead_s"}


def test_traced_commands_give_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import tracer
    import workloads

    inputs = workloads.generate(workloads.Workload("one_pair", {"n_pairs": 1}, "jsonl", 1),
                                7, tmp_path / "data")
    features = tmp_path / "analyze"
    commands = {
        "analyze": ("analyze", inputs.sessions_dir, "--out", features, "--jobs", 1),
        "compare": ("compare", features, inputs.pairs, "--out", tmp_path / "compare"),
        "correlate": ("correlate", features, inputs.ratings, "--out", tmp_path / "correlate"),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = {}
    for name, args in commands.items():
        path = tmp_path / f"spans_{name}.json"
        proc = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(path),
                               *map(str, args)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        spans[name] = json.loads(path.read_text())

    metrics = tracer.layer_metrics(spans["analyze"], spans["compare"], spans["correlate"],
                                   frames=inputs.frames, input_bytes=inputs.input_bytes)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == declared - ADDED_BY_RUNNER
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["segmentation.units"] == inputs.n_units
    # the command line makes one feature_vector call per unit, through its globals
    vectors = [s for s in spans["analyze"]["spans"] if s["name"] == "features.feature_vector"]
    assert len(vectors) == inputs.n_units
