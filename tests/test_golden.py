"""Golden output digest: the bytes of a seeded end-to-end run must not change.

A refactor keeps every output byte.  This runs ``synth`` (seed 7),
``analyze`` at ``--jobs 1`` and ``--jobs 2``, then ``compare`` and
``correlate``, all in-process through ``main``.  The cases are two pairs in
each input format, one CSV pair at 120 Hz, whose units have long traces,
two JSONL pairs whose operating periods are too short for an
early-shift ratio, and one JSONL pair with position noise.  The digest
covers every file written, inputs included.  A change that alters outputs
on purpose updates the digests here and says why.  Each case runs again
with the ``csv_rows`` loop of CSV frame text and the ``repr`` loop of trace
files made to fail: its bytes come from orjson.  It runs once more with the
orjson paths of frame text and of trace files made to refuse: its bytes
come from the line-by-line readers and from ``repr``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from opgaze import cli, ingest
from opgaze.cli import main

# case -> (synth spec, session format, digest)
GOLDEN = {
    "jsonl": ({"n_pairs": 2}, "jsonl",
              "502638885348d3fb9a837135d57613a1ce4d37f39d38425c96de87b98e0829b9"),
    "csv": ({"n_pairs": 2}, "csv",
            "b223b80c8c6a84f41bbbf9c0f774bbff2dfa72191828bf3b3fd72c2f3ecb3381"),
    "csv_120hz": ({"n_pairs": 1, "sample_rate_hz": 120.0}, "csv",
                  "e4c8852d2c3de696430a6dbd309992bdd48929b61317efc1bc8e6b33a48b9ced"),
    # operating periods of 0.5 s, below the early-shift minimum of 1 s
    "jsonl_short_operating": ({"n_pairs": 2, "base_dur_operating": 0.5}, "jsonl",
                              "e15270ad489db90faa6f7091cbf8f567634e9f116100fa78e00610588c7b0d36"),
    # position noise, so the distance and touch jitter draws reach the bytes
    "jsonl_noise": ({"n_pairs": 1, "noise_sigma": 0.5}, "jsonl",
                    "1b788a282805aee0601b0fa6b10d53bc1c8857982399dc0cc1195f9a71f82dbb"),
}


def tree_digest(root: Path, inputs: Path) -> str:
    """sha256 over the sorted (relative path, bytes) pairs under ``root``.

    ``summary.json`` names each source by its absolute path, so the input
    directory there reads ``<inputs>``.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if path.name == "summary.json":
            data = data.replace(str(inputs.resolve()).encode(), b"<inputs>")
        for part in (rel.encode(), data):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()


def run_case(root: Path, case: str) -> str:
    """The digest of ``case`` run under ``root``."""
    synth_spec, fmt, _ = GOLDEN[case]
    spec = root.parent / "spec.json"
    spec.write_text(json.dumps(synth_spec))
    data = root / "data"
    assert main(["synth", "--config", str(spec), "--seed", "7", "--format", fmt,
                 "--out", str(data)]) == 0
    for jobs in ("1", "2"):
        out = root / f"analyze_j{jobs}"
        assert main(["analyze", str(data / "sessions"), "--out", str(out), "--jobs", jobs]) == 0
    out = root / "analyze_j1"
    assert main(["compare", str(out), str(data / "pairs.json"), "--out", str(root / "compare")]) == 0
    assert main(["correlate", str(out), str(data / "ratings.csv"),
                 "--out", str(root / "correlate")]) == 0
    return tree_digest(root, data / "sessions")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_run_digest(tmp_path, case):
    assert run_case(tmp_path / "run", case) == GOLDEN[case][2]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_run_takes_the_orjson_paths(tmp_path, monkeypatch, case):
    # the frame text of every CSV session file is plain, and every trace
    # value lies where orjson writes it as repr does; the forked workers of
    # --jobs 2 inherit the patches, and a session that fails exits 3
    def refused(*args, **kwargs):
        raise AssertionError("the orjson path refused its input")

    monkeypatch.setattr(ingest, "csv_rows", refused)
    monkeypatch.setattr(cli, "_repr_trace_text", refused)
    assert run_case(tmp_path / "run", case) == GOLDEN[case][2]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_run_takes_the_judge_paths(tmp_path, monkeypatch, case):
    # every session's frame text is read line by line or row by row, and
    # every trace file is written by repr; the forked workers of --jobs 2
    # inherit the patches
    monkeypatch.setattr(ingest, "_plain_columns", lambda *args: None)
    monkeypatch.setattr(cli, "_orjson_trace_text", lambda *args: None)
    assert run_case(tmp_path / "run", case) == GOLDEN[case][2]
