"""What a fresh interpreter loads.

The study commands and ``--help`` load no numpy; ``analyze`` loads no
``synth``, starts no thread and loads no ``multiprocessing`` at ``--jobs 1``,
and leaves no thread or worker process running at ``--jobs 2``; and every
name the package exports resolves, on first use, to the object its
submodule defines.  Each check runs in a new interpreter, because this test
process has loaded numpy already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opgaze.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# the names opgaze/__init__.py imported eagerly, by the submodule they came from
EXPORTS = {
    "analysis": ("ComparisonReport", "CorrelationReport", "difficulty_correlation",
                 "pairwise_comparison", "pearson", "step_feature_means", "summarize_rows"),
    "featurerow": ("CATEGORICAL_FEATURES", "SCALAR_FEATURES", "FeatureVector"),
    "features": ("FeatureParams", "attention_hand_correlation", "attention_lead_lag",
                 "build_distance_series", "classify_gaze_pattern", "classify_shift_kind",
                 "compensate_offset", "count_sign_changes", "early_shift_ratio",
                 "feature_vector", "kinematics", "sign_series", "trailing_positive_run"),
    "hotspot": ("ClusterParams", "TouchDistribution", "cluster_touches", "extract_touches",
                "touch_distribution"),
    "ingest": ("ParseError", "ValidationReport", "load_ratings", "load_step_labels",
               "parse_session", "validate_session", "write_ratings", "write_session",
               "write_step_labels"),
    "segmentation": ("SegmentationParams", "period_durations", "segment_units"),
    "session": ("DifficultyRatings", "DistanceSeries", "FrameRecord", "Hotspot", "Interval",
                "OperationUnit", "Point2", "Rating", "Session", "StepLabel", "scene_diagonal"),
    "synth": ("ArchetypeSpec", "Cohort", "CohortSpec", "GeneratedSession",
              "generate_classification_set", "generate_cohort", "generate_ou_trace",
              "generate_session", "write_cohort"),
}


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` once ``code`` has run in a
    new interpreter."""
    out = fresh(f"{code}\nimport sys\nprint({module!r} in sys.modules)")
    return out.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def cohort(tmp_path_factory) -> Path:
    """A one-pair synthetic cohort and its ``analyze`` output under ``run``."""
    root = tmp_path_factory.mktemp("cohort")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"n_pairs": 1}))
    assert main(["synth", "--config", str(spec), "--seed", "7", "--out", str(root / "data")]) == 0
    assert main(["analyze", str(root / "data" / "sessions"), "--out", str(root / "run")]) == 0
    return root


def test_compare_and_correlate_load_no_numpy(cohort):
    run, data = cohort / "run", cohort / "data"
    code = (
        "from opgaze import cli\n"
        f"assert cli.main(['compare', {str(run)!r}, {str(data / 'pairs.json')!r},"
        f" '--out', {str(cohort / 'compare')!r}]) == 0\n"
        f"assert cli.main(['correlate', {str(run)!r}, {str(data / 'ratings.csv')!r},"
        f" '--out', {str(cohort / 'correlate')!r}]) == 0\n"
    )
    assert not loaded_after(code, "numpy")
    assert (cohort / "compare" / "comparison.csv").is_file()
    assert (cohort / "correlate" / "correlation.csv").is_file()


def test_help_loads_no_numpy():
    code = (
        "from opgaze import cli\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    )
    assert not loaded_after(code, "numpy")


def test_analyze_loads_no_synth(cohort):
    code = (
        "from opgaze import cli\n"
        f"assert cli.main(['analyze', {str(cohort / 'data' / 'sessions')!r},"
        f" '--out', {str(cohort / 'again')!r}]) == 0\n"
    )
    assert not loaded_after(code, "opgaze.synth")


def test_analyze_starts_no_thread(cohort):
    # a thread pool once ran the sessions of --jobs 2, slower than one loop;
    # --jobs 1 runs them here, and --jobs 2 in forked workers joined before main returns
    code = (
        "import json, sys, threading\n"
        "from opgaze import cli\n"
        "seen = {}\n"
        "for jobs in ('1', '2'):\n"
        f"    assert cli.main(['analyze', {str(cohort / 'data' / 'sessions')!r},"
        f" '--out', {str(cohort / 'jobs')!r} + jobs, '--jobs', jobs]) == 0\n"
        "    seen[jobs] = ['multiprocessing' in sys.modules, threading.active_count(),\n"
        "                  'concurrent.futures' in sys.modules]\n"
        "import multiprocessing\n"
        "seen['children'] = len(multiprocessing.active_children())\n"
        "print(json.dumps(seen))\n"
    )
    pool = len(os.sched_getaffinity(0)) > 1  # the cohort has two sessions
    # compared as JSON text, in which false is not 0
    assert fresh(code).splitlines()[-1] == json.dumps(
        {"1": [False, 1, False], "2": [pool, 1, False], "children": 0})


def test_every_export_resolves_to_its_submodules_object():
    code = (
        "import importlib, json\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = []\n"
        "for module, names in exports.items():\n"
        "    for name in names:\n"
        "        scope = {}\n"
        "        exec(f'from opgaze import {name}', scope)\n"
        "        if scope[name] is not getattr(importlib.import_module(f'opgaze.{module}'), name):\n"
        "            wrong.append(name)\n"
        "print(json.dumps(wrong))\n"
    )
    assert json.loads(fresh(code)) == []


def test_cli_binds_each_lazy_name_to_the_package_export():
    # cli holds no map of its own from a name to its submodule
    code = (
        "import json, opgaze\n"
        "from opgaze import cli\n"
        "cli._bind()\n"
        "print(json.dumps([n for n in cli._LAZY if vars(cli)[n] is not getattr(opgaze, n)]))\n"
    )
    assert json.loads(fresh(code)) == []
