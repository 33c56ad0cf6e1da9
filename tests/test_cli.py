"""Command-line workflows: exit codes, file layout, and report wiring."""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from opgaze import cli, features, ingest, parse_session, write_session, write_step_labels
from opgaze.cli import main
from opgaze.ingest import COORD_MAX

from conftest import frame, make_session


def run(args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse rejections
        return int(exc.code or 0)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(args) -> subprocess.CompletedProcess:
    """``opgaze`` in a fresh interpreter with the default warning filters, so
    that stderr shows what a user sees, numpy's warnings included."""
    return subprocess.run([sys.executable, "-m", "opgaze.cli", *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)


@pytest.fixture
def corpus(tmp_path):
    """Two clean sessions of one operator plus a ratings/pairs setup."""
    root = tmp_path / "data"
    sessions = root / "sessions"
    sessions.mkdir(parents=True)
    for ordinal in ("earlier", "later"):
        frames = []
        for i in range(61):
            t = i / 10.0
            touch = 3.0 <= t <= 5.0
            hand = touch or 2.0 <= t
            frames.append(frame(t, ax=30.0 - 5.0 * min(t, 5.0), ay=0.0,
                                hx=7.0 if hand else None, hy=1.0 if hand else None,
                                touch=touch))
        s = make_session(frames, session_id=f"op1_{ordinal}", operator="op1",
                         ordinal=ordinal)
        write_session(s, sessions / f"op1_{ordinal}.jsonl")
    (root / "pairs.json").write_text(json.dumps({
        "pairs": [{"operator": "op1", "earlier": "op1_earlier", "later": "op1_later"}]
    }))
    return root


# inputs that once escaped the parser without a line number:
# kind -> (session file suffix, what the bad line becomes, message)
ESCAPES = {
    "not_utf8": (".jsonl", lambda line: line + b" \xe9", "not UTF-8"),
    "nested": (".jsonl", lambda line: b"[" * 100_000, "malformed JSON: nested too deeply"),
    "long_cell": (".csv", lambda line: line.replace(b",false", b"," + b"x" * 140_000),
                  "malformed CSV: field larger than field limit"),
}


def write_escape(sessions: Path, kind: str, lineno: int) -> Path:
    """Replace ``op1_earlier`` by a copy whose line ``lineno`` is an escape."""
    suffix, spoil, _ = ESCAPES[kind]
    good = sessions / "op1_earlier.jsonl"
    bad = sessions / f"op1_earlier{suffix}"
    if suffix == ".csv":
        write_session(parse_session(good), bad)
        good.unlink()
    lines = bad.read_bytes().splitlines()
    lines[lineno - 1] = spoil(lines[lineno - 1])
    bad.write_bytes(b"\n".join(lines) + b"\n")
    return bad


# validation_report.json of one malformed and one clean file, with the
# session directory written as DIR
VALIDATION_REPORT = """[
  {
    "errors": [
      [
        4,
        "DIR/broken.jsonl:4: malformed JSON: Expecting property name enclosed in double quotes"
      ]
    ],
    "session_id": null,
    "source": "DIR/broken.jsonl",
    "stats": {},
    "warnings": []
  },
  {
    "errors": [],
    "session_id": "op1_later",
    "source": "DIR/op1_later.jsonl",
    "stats": {
      "duration_s": 6.0,
      "frame_count": 61,
      "hand_visible_fraction": 0.6721311475409836,
      "sample_rate_hz": 10.0,
      "touch_count": 21
    },
    "warnings": []
  }
]
"""


class TestValidate:
    def test_clean_corpus_ok(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["validate", corpus / "sessions", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "op1_earlier: OK" in text and "op1_later: OK" in text
        report = json.loads((out / "validation_report.json").read_text())
        assert len(report) == 2
        assert all(not e["errors"] for e in report)

    def test_malformed_line_reports_line_number(self, corpus, tmp_path, capsys):
        bad = corpus / "sessions" / "broken.jsonl"
        lines = (corpus / "sessions" / "op1_earlier.jsonl").read_text().splitlines()
        lines[3] = "{not json"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["validate", corpus / "sessions", "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "broken.jsonl:4" in err

    def test_header_id_that_is_not_a_string_is_reported_with_line(self, corpus, tmp_path, capsys):
        # a null id once read as the session "None": "None: OK (61 frames, 0 warnings)"
        bad = corpus / "sessions" / "op1_earlier.jsonl"
        lines = bad.read_text().splitlines()
        bad.write_text("\n".join([json.dumps({**json.loads(lines[0]), "id": None}), *lines[1:]]) + "\n")
        assert run(["validate", corpus / "sessions", "--out", tmp_path / "o"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{bad}:1: id must be a string, got None"]
        assert captured.out.splitlines() == ["op1_later: OK (61 frames, 0 warnings)"]

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_number_reported_with_line(self, corpus, tmp_path, capsys, digits):
        bad = corpus / "sessions" / "huge.jsonl"
        lines = (corpus / "sessions" / "op1_earlier.jsonl").read_text().splitlines()
        lines[3] = lines[3].replace('"t": 0.2', '"t": 1' + "0" * digits)
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run(["validate", corpus / "sessions", "--out", out]) == 1
        assert "huge.jsonl:4" in capsys.readouterr().err
        report = json.loads((out / "validation_report.json").read_text())
        assert [e["errors"][0][0] for e in report if e["errors"]] == [4]

    @pytest.mark.parametrize("kind", sorted(ESCAPES))
    def test_parser_escape_reported_with_line(self, corpus, tmp_path, capsys, kind):
        bad = write_escape(corpus / "sessions", kind, 5)
        out = tmp_path / "o"
        assert run(["validate", corpus / "sessions", "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{bad.name}:5: {ESCAPES[kind][2]}" in err and "Traceback" not in err
        report = json.loads((out / "validation_report.json").read_text())
        errors = [e["errors"] for e in report if e["errors"]]
        assert len(errors) == 1 and errors[0][0][0] == 5
        assert ESCAPES[kind][2] in errors[0][0][1]

    def test_report_bytes(self, corpus, tmp_path):
        # one clean file and one with a malformed line 4
        sessions = corpus / "sessions"
        lines = (sessions / "op1_earlier.jsonl").read_text().splitlines()
        (sessions / "op1_earlier.jsonl").unlink()
        lines[3] = "{not json"
        (sessions / "broken.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run(["validate", sessions, "--out", out]) == 1
        text = (out / "validation_report.json").read_text()
        assert text.replace(str(sessions.resolve()), "DIR") == VALIDATION_REPORT

    def test_overlapping_steps_name_the_sidecar_and_line(self, corpus, tmp_path, capsys):
        sidecar = corpus / "sessions" / "op1_earlier.steps.csv"
        sidecar.write_text("start_t,end_t,step_id\n0.0,3.0,step_01\n3.0,6.0,step_02\n0.5,3.0,step_xx\n")
        message = f"{sidecar}:4: step 'step_xx' overlaps step 'step_01' of line 2"
        out = tmp_path / "o"
        assert run(["validate", corpus / "sessions", "--out", out]) == 1
        assert message in capsys.readouterr().err
        report = json.loads((out / "validation_report.json").read_text())
        assert [(e["session_id"], e["errors"]) for e in report] == [
            (None, [[4, message]]), ("op1_later", [])]
        assert run(["analyze", corpus / "sessions", "--out", tmp_path / "a"]) == 3
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["failures"][0]["error"] == message

    @pytest.mark.parametrize("error, message", [
        (PermissionError(13, "Permission denied"), "[Errno 13] Permission denied"),
        (RuntimeError("boom"), "RuntimeError: boom"),
    ])
    def test_file_that_cannot_be_read_is_recorded_and_the_rest_checked(
            self, corpus, tmp_path, monkeypatch, capsys, error, message):
        # such a file once ended validate with exit 1 and no report
        real = cli.parse_session

        def unreadable(path, **kwargs):
            if Path(path).name == "op1_earlier.jsonl":
                raise error
            return real(path, **kwargs)

        monkeypatch.setattr(cli, "parse_session", unreadable)
        out = tmp_path / "o"
        assert run(["validate", corpus / "sessions", "--out", out]) == 1
        captured = capsys.readouterr()
        assert "op1_later: OK" in captured.out
        path = (corpus / "sessions" / "op1_earlier.jsonl").resolve()
        assert f"{path}: {message}\n" in captured.err
        report = json.loads((out / "validation_report.json").read_text())
        assert [(e["source"], e["session_id"], e["errors"]) for e in report] == [
            (str(path), None, [[None, message]]),
            (str(path.with_name("op1_later.jsonl")), "op1_later", [])]

    def test_empty_directory_is_distinct_failure(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert run(["validate", empty, "--out", tmp_path / "o"]) == 2

    def test_missing_path_is_input_error(self, tmp_path):
        assert run(["validate", tmp_path / "absent", "--out", tmp_path / "o"]) == 1

    @pytest.mark.parametrize("rate, message", [
        # inf once gave a gap warning per interval (threshold 0.0000s), nan
        # one "deviate more than 20% from 1/nan s" warning; both exited 0
        ("inf", "--expected-rate is not finite: inf"),
        ("nan", "--expected-rate is not finite: nan"),
        ("-inf", "--expected-rate is not finite: -inf"),
        ("0", "--expected-rate must be positive, got 0.0"),
        ("-1", "--expected-rate must be positive, got -1.0"),
        ("1.0000000000000002e100", "--expected-rate exceeds 1e+100: 1.0000000000000002e+100"),
    ])
    def test_bad_expected_rate_is_rejected_before_any_session(self, corpus, tmp_path, capsys,
                                                              monkeypatch, rate, message):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "_load_session", unread)
        out = tmp_path / "o"
        assert run(["validate", corpus / "sessions", "--out", out, f"--expected-rate={rate}"]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["10", "1e-300", "1e100"])
    def test_expected_rate_within_the_rule_is_used(self, corpus, tmp_path, rate):
        out = tmp_path / "o"
        assert run(["validate", corpus / "sessions", "--out", out, f"--expected-rate={rate}"]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        # the corpus is sampled at 10 Hz: any other rate warns on every file
        assert all(bool(e["warnings"]) == (rate != "10") for e in report)


# a bad JSON input file -> the error after its path
BAD_JSON = {
    "malformed": (b'{\n  "a": 1\n  "b": 2\n}\n', ":3: malformed JSON: Expecting ',' delimiter"),
    "nested": (b"[" * 200_000, ": malformed JSON: nested too deeply"),
    "not_utf8": (b'{\n  "a": "\xff"\n}\n', ":2: not UTF-8: byte 0xff (invalid start byte)"),
}


@pytest.mark.parametrize("kind", sorted(BAD_JSON))
@pytest.mark.parametrize("command", ["analyze --config", "synth --config", "compare pairs.json"])
def test_bad_json_input_is_a_one_line_error_naming_the_file(corpus, tmp_path, capsys, command, kind):
    # these once ended in a RecursionError traceback, or a message without the file
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_bytes(BAD_JSON[kind][0])
    features = tmp_path / "features.csv"
    features.write_text(",".join(cli.FEATURES_HEADER) + "\n")
    args = {"analyze --config": ["analyze", corpus / "sessions", "--config", bad],
            "synth --config": ["synth", "--config", bad],
            "compare pairs.json": ["compare", features, bad]}[command]
    assert run([*args, "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{bad}{BAD_JSON[kind][1]}"]
    assert not out.exists()


def test_validate_and_analyze_print_a_parse_failure_alike(tmp_path, capsys):
    # analyze once printed the file twice: "bad.jsonl: bad.jsonl:1: ..."
    d = tmp_path / "d"
    d.mkdir()
    (d / "bad.jsonl").write_text("{not json\n")
    assert run(["validate", d, "--out", tmp_path / "val"]) == 1
    validated = capsys.readouterr().err.splitlines()
    assert run(["analyze", d, "--out", tmp_path / "run"]) == 1
    analyzed = capsys.readouterr().err.splitlines()
    line = f"{d / 'bad.jsonl'}:1: malformed JSON: Expecting property name enclosed in double quotes"
    assert validated == analyzed == [line]
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["failures"] == [{"source": str(d / "bad.jsonl"), "error": line}]


@pytest.mark.parametrize("command, text, message", [
    ("analyze", "[1]", "config must be a JSON object"),
    ("analyze", '{"cluster": {"bogus": 1}}', "unknown cluster config keys: ['bogus']"),
    ("synth", "[1]", "synth spec must be a JSON object"),
])
def test_json_input_of_the_wrong_shape_names_the_file(corpus, tmp_path, capsys, command, text, message):
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(text)
    args = ["analyze", corpus / "sessions"] if command == "analyze" else ["synth"]
    assert run([*args, "--config", config, "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{config}: {message}"]
    assert not out.exists()


class TestOutDir:
    """``--out`` naming a file, or a path under a file, is an input error of
    every command, reported on one line before anything is written."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory) -> dict[str, list[str]]:
        """The arguments before ``--out`` of each command, on a one-pair cohort."""
        root = tmp_path_factory.mktemp("inputs")
        spec = root / "spec.json"
        spec.write_text(json.dumps({"n_pairs": 1, "seed": 7}))
        data, analyzed = root / "data", root / "analyzed"
        assert run(["synth", "--config", spec, "--out", data]) == 0
        assert run(["analyze", data / "sessions", "--out", analyzed]) == 0
        return {
            "validate": ["validate", data / "sessions"],
            "analyze": ["analyze", data / "sessions"],
            "compare": ["compare", analyzed, data / "pairs.json"],
            "correlate": ["correlate", analyzed, data / "ratings.csv"],
            "synth": ["synth", "--config", spec],
        }

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["validate", "analyze", "compare", "correlate", "synth"])
    def test_out_that_is_not_a_directory_is_an_input_error(self, inputs, tmp_path, capsys,
                                                            command, under):
        blocker = tmp_path / "afile"
        blocker.write_text("keep\n")
        out = blocker / "sub" if under else blocker
        assert run([*inputs[command], "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"--out {out} is not a directory"]
        # validate once read and reported every session before it tried --out
        assert captured.out == ""
        assert blocker.read_text() == "keep\n"
        assert list(tmp_path.iterdir()) == [blocker]


# the options of each command, with a value and what it parses to
KEPT_FLAGS = {
    "validate": {"--expected-rate": ("10", 10.0), "--out": ("o", "o"), "--jobs": ("2", 2),
                 "--log-level": ("info", "INFO")},
    "analyze": {"--config": ("c.json", "c.json"), "--out": ("o", "o"), "--jobs": ("2", 2),
                "--log-level": ("debug", "DEBUG")},
    "compare": {"--out": ("o", "o"), "--jobs": ("2", 2), "--log-level": ("error", "ERROR")},
    "correlate": {"--out": ("o", "o"), "--jobs": ("2", 2), "--log-level": ("Critical", "CRITICAL")},
    "synth": {"--format": ("csv", "csv"), "--config": ("c.json", "c.json"), "--seed": ("7", 7),
              "--out": ("o", "o"), "--jobs": ("2", 2), "--log-level": ("warning", "WARNING")},
}
# the positional arguments of each command; parsing does not open them
POSITIONALS = {
    "validate": ["p"], "analyze": ["p"], "compare": ["f", "m"], "correlate": ["f", "r"], "synth": [],
}


class TestFlags:
    """Each command takes exactly the options it reads."""

    @pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
    def test_each_kept_flag_parses(self, command):
        argv = [command, *POSITIONALS[command]]
        for flag, (value, _) in KEPT_FLAGS[command].items():
            argv += [flag, value]
        args = vars(cli.build_parser().parse_args(argv))
        options = {k: v for k, v in args.items() if k not in ("command", "func", "paths",
                                                                "features", "manifest", "ratings")}
        assert options == {flag[2:].replace("-", "_"): parsed
                           for flag, (_, parsed) in KEPT_FLAGS[command].items()}

    # --config and --seed were once accepted, and ignored, by every command
    @pytest.mark.parametrize("command, flag", [
        ("validate", "--config"), ("validate", "--seed"), ("analyze", "--seed"),
        ("compare", "--config"), ("compare", "--seed"), ("correlate", "--config"),
        ("correlate", "--seed"),
    ])
    def test_removed_flag_is_a_usage_error(self, capsys, command, flag):
        assert run([command, *POSITIONALS[command], flag, "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        # argparse reports an unknown option with the top-level usage
        assert err[0].startswith("usage: opgaze ")
        assert err[-1] == f"opgaze: error: unrecognized arguments: {flag} 1"

    def test_log_level_outside_the_standard_names_is_a_usage_error(self, capsys):
        # it once reached logging.basicConfig and raised a ValueError traceback
        assert run(["analyze", "p", "--log-level", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "argument --log-level: invalid choice: 'BOGUS'" in err and "Traceback" not in err


class TestInputThatIsADirectory:
    """A directory where a command reads a file is a one-line input error,
    not an IsADirectoryError traceback."""

    @pytest.mark.parametrize("command", ["analyze --config", "synth --config", "compare", "correlate"])
    def test_directory_is_a_one_line_input_error(self, corpus, tmp_path, capsys, command):
        blocker = tmp_path / "adir"
        blocker.mkdir()
        analyzed = tmp_path / "analyzed"
        if command in ("compare", "correlate"):
            assert run(["analyze", corpus / "sessions", "--out", analyzed]) == 0
            capsys.readouterr()
        args = {
            "analyze --config": ["analyze", corpus / "sessions", "--config", blocker],
            "synth --config": ["synth", "--config", blocker],
            "compare": ["compare", analyzed, blocker],
            "correlate": ["correlate", analyzed, blocker],
        }[command]
        out = tmp_path / "out"
        assert run([*args, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Is a directory" in err[0]
        assert not out.exists()


class TestAnalyze:
    def test_happy_path_layout(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out]) == 0
        assert (out / "features.csv").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "config_used.json").is_file()
        for sid in ("op1_earlier", "op1_later"):
            sdir = out / "sessions" / sid
            assert (sdir / "units.csv").is_file()
            assert (sdir / "hotspots.csv").is_file()
            assert (sdir / "features.csv").is_file()
            traces = list((sdir / "traces").glob("*.csv"))
            assert traces
        with (out / "features.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["session_id"] for r in rows} == {"op1_earlier", "op1_later"}

    def test_partial_failure_keeps_good_session(self, corpus, tmp_path, capsys):
        (corpus / "sessions" / "bad.jsonl").write_text("{broken\n")
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "bad" in err
        assert (out / "sessions" / "op1_earlier" / "features.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] and "bad" in summary["failures"][0]["source"]

    def test_all_failed_is_input_error(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "only.jsonl").write_text("{broken\n")
        assert run(["analyze", d, "--out", tmp_path / "o"]) == 1

    def test_touchless_session_warns_and_emits_header_only(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        s = make_session([frame(i / 10.0) for i in range(20)], session_id="quiet")
        write_session(s, d / "quiet.jsonl")
        out = tmp_path / "out"
        assert run(["analyze", d, "--out", out]) == 0
        assert "no operation units" in capsys.readouterr().err
        units = (out / "sessions" / "quiet" / "units.csv").read_text().splitlines()
        assert len(units) == 1  # header only

    def test_collinear_touches_write_touchdist(self, tmp_path):
        # the only two touches give a covariance determinant of -1.49e-08
        d = tmp_path / "d"
        d.mkdir()
        hands = {10: (633.1, 1513.8), 30: (582.1, 870.7)}
        frames = []
        for i in range(40):
            hx, hy = hands.get(i, (None, None))
            frames.append(frame(i / 10.0, ax=600.0, ay=1200.0, hx=hx, hy=hy, touch=i in hands))
        s = make_session(frames, session_id="collinear")
        write_session(s, d / "collinear.jsonl")
        out = tmp_path / "out"
        assert run(["analyze", d, "--out", out]) == 0
        assert json.loads((out / "touchdist.json").read_text())["touch_count"] == 2
        assert json.loads((out / "summary.json").read_text())["n_sessions_ok"] == 1

    def test_jobs_must_be_positive(self, corpus, tmp_path):
        assert run(["analyze", corpus / "sessions", "--out", tmp_path / "o",
                    "--jobs", "0"]) == 1

    def test_unknown_config_key_rejected(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"bogus": 1}}))
        assert run(["analyze", corpus / "sessions", "--out", tmp_path / "o",
                    "--config", cfg]) == 1

    def test_config_echoed_in_output(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"spatial_eps": 4.0}}))
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out, "--config", cfg]) == 0
        used = json.loads((out / "config_used.json").read_text())
        assert used["cluster"]["spatial_eps"] == 4.0

    def test_config_used_feeds_back_as_config(self, corpus, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(["analyze", corpus / "sessions", "--out", first]) == 0
        assert run(["analyze", corpus / "sessions", "--out", second,
                    "--config", first / "config_used.json"]) == 0
        assert (second / "config_used.json").read_bytes() == (first / "config_used.json").read_bytes()

    @pytest.mark.parametrize("config, key", [
        ({"cluster": {"spatial_eps": 1e200}}, "cluster.spatial_eps"),
        ({"cluster": {"spatial_eps": math.nextafter(math.sqrt(sys.float_info.max), math.inf)}},
         "cluster.spatial_eps"),
        ({"cluster": {"spatial_eps": "5"}}, "cluster.spatial_eps"),
        ({"cluster": {"spatial_eps": True}}, "cluster.spatial_eps"),
        ({"cluster": {"min_points": True}}, "cluster.min_points"),
        ({"cluster": {"min_points": 2.0}}, "cluster.min_points"),
        ({"cluster": {"temporal_gap_max": None}}, "cluster.temporal_gap_max"),
        ({"features": {"sign_deadband": [1]}}, "features.sign_deadband"),
        ({"features": {"early_shift_min": -1}}, "features.early_shift_min"),
        ({"segmentation": {"hand_presence_debounce": "2"}}, "segmentation.hand_presence_debounce"),
        ({"segmentation": {"min_operating": -0.5}}, "segmentation.min_operating"),
    ])
    def test_bad_config_value_is_rejected_before_any_session(self, corpus, tmp_path, capsys,
                                                             config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"features": {"sign_deadband": math.nan}},
         "features.sign_deadband must be a finite number, got nan"),
        ({"cluster": {"temporal_gap_max": math.inf}},
         "cluster.temporal_gap_max must be a finite number, got inf"),
        ({"segmentation": {"touch_merge_gap": -math.inf}},
         "segmentation.touch_merge_gap must be a finite number, got -inf"),
        ({"cluster": {"spatial_eps": math.nan}},
         "cluster.spatial_eps must be a finite number or null, got nan"),
        ({"features": {"sign_deadband": math.nan}, "cluster": {"temporal_gap_max": math.inf}},
         "cluster.temporal_gap_max must be a finite number, got inf"),
    ])
    def test_non_finite_config_value_is_rejected(self, corpus, tmp_path, capsys, config, message):
        # Python's json reads NaN, Infinity and -Infinity as floats
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_valid_config_values_keep_their_bytes(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        eps = math.sqrt(sys.float_info.max)  # the largest whose square is finite
        cfg.write_text(json.dumps({"cluster": {"spatial_eps": eps, "min_points": 3},
                                   "segmentation": {"touch_merge_gap": 0},
                                   "features": {"sign_deadband": 1}}))
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out, "--config", cfg]) == 0
        used = json.loads((out / "config_used.json").read_text())
        # an integer given for a float field is echoed as given
        assert [used["cluster"]["spatial_eps"], used["segmentation"]["touch_merge_gap"],
                used["features"]["sign_deadband"]] == [eps, 0, 1]
        assert type(used["segmentation"]["touch_merge_gap"]) is int

    def test_failures_are_reported_in_path_order(self, corpus, tmp_path, capsys):
        # the first bad file fails only at its last line, 30,000 frames in,
        # the second at its first; a pool once reported them as they finished
        sessions = corpus / "sessions"
        header = (sessions / "op1_later.jsonl").read_text().splitlines()[0]
        lines = [json.dumps({"t": i / 10.0, "ax": 1.0, "ay": 2.0, "hx": None, "hy": None, "touch": False})
                 for i in range(30_000)]
        (sessions / "a_slow.jsonl").write_text("\n".join([header, *lines, "{not json"]) + "\n")
        (sessions / "z_fast.jsonl").write_text("{not json\n")
        (sessions / "op1_later.jsonl").unlink()
        err = {}
        for jobs in (1, 2):
            assert run(["analyze", sessions, "--out", tmp_path / f"o{jobs}", "--jobs", jobs]) == 3
            err[jobs] = capsys.readouterr().err.splitlines()
        assert [Path(line.split(":")[0]).name for line in err[2]] == ["a_slow.jsonl", "z_fast.jsonl"]
        assert err[2] == err[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_worker_error_is_a_session_failure(self, corpus, tmp_path, monkeypatch, capsys,
                                                          jobs):
        real = cli.analyze_session

        def flaky(s, config):
            if s.id == "op1_later":
                raise RuntimeError("boom")
            return real(s, config)

        monkeypatch.setattr(cli, "analyze_session", flaky)
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out, "--jobs", jobs]) == 3
        assert "boom" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_sessions_ok"] == 1
        assert [f["error"] for f in summary["failures"]] == ["RuntimeError: boom"]
        assert "op1_later.jsonl" in summary["failures"][0]["source"]
        assert (out / "sessions" / "op1_earlier" / "features.csv").is_file()

    def test_each_reported_line_is_one_write(self, corpus, tmp_path, monkeypatch):
        # where stderr is unbuffered, a line written in two parts, its text and
        # then its newline, let a worker's log line land between them
        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes: list[str] = []
        monkeypatch.setattr(sys, "stderr", Recording())
        sessions = corpus / "sessions"
        (sessions / "bad.jsonl").write_text("{broken\n")
        write_session(make_session([frame(i / 10.0) for i in range(20)], session_id="quiet"),
                      sessions / "quiet.jsonl")
        real = cli.analyze_session

        def flaky(s, config):
            if s.id == "op1_later":
                raise RuntimeError("boom")
            return real(s, config)

        monkeypatch.setattr(cli, "analyze_session", flaky)
        assert run(["analyze", sessions, "--out", tmp_path / "out"]) == 3
        assert all(w.endswith("\n") for w in writes), writes
        bad, later = (str((sessions / name).resolve()) for name in ("bad.jsonl", "op1_later.jsonl"))
        assert [w.splitlines()[0] for w in writes] == [
            f"{bad}:1: malformed JSON: Expecting property name enclosed in double quotes",
            f"{later}: RuntimeError: boom",
            "warning: session 'quiet': no operation units (no touches, or all bouts dropped)",
        ]
        assert "Traceback (most recent call last)" in writes[1]  # in the write of its message

    def test_one_distance_pass_per_session(self, tmp_path, monkeypatch):
        # the features and the trace files of a session read one unit_traces call
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"n_pairs": 1, "seed": 3}))
        data, out = tmp_path / "data", tmp_path / "out"
        assert run(["synth", "--config", spec, "--out", data]) == 0
        calls = tmp_path / "calls.txt"  # a file, which forked workers append to too
        real = features.unit_traces

        def counted(s, units, hotspots):
            with calls.open("a") as fh:
                fh.write(f"{s.id}\n")
            return real(s, units, hotspots)

        monkeypatch.setattr(cli, "unit_traces", counted)
        monkeypatch.setattr(features, "unit_traces", counted)
        assert run(["analyze", data / "sessions", "--out", out, "--jobs", 2]) == 0
        assert sorted(calls.read_text().splitlines()) == ["op01_earlier", "op01_later"]
        assert len(list(out.glob("sessions/*/traces/*.csv"))) == 30

    def test_session_id_cannot_escape_out(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        s = make_session([frame(i / 10.0, hx=1.0, hy=1.0, touch=True) for i in range(20)],
                         session_id="../../escaped")
        write_session(s, d / "evil.jsonl")
        out = tmp_path / "a" / "b" / "out"
        assert run(["analyze", d, "--out", out]) == 1
        assert "evil.jsonl:1" in capsys.readouterr().err
        assert not (tmp_path / "a" / "escaped").exists()
        assert not (tmp_path / "escaped").exists()

    @pytest.mark.parametrize("bad_id", ["a\ud800b", "x" * 250], ids=["surrogate", "250_bytes"])
    def test_id_that_cannot_name_a_file_fails_only_its_session(self, corpus, tmp_path, capsys, bad_id):
        # such an id once ended the run with exit 1 when its first trace file was written
        sessions = corpus / "sessions"
        bad = sessions / "op1_earlier.jsonl"
        write_session(dataclasses.replace(parse_session(bad), id=bad_id), bad)
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out]) == 3
        assert f"{bad}:1: session id " in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        (failure,) = summary["failures"]
        assert failure["error"].startswith(f"{bad}:1: session id ")
        assert [s["id"] for s in summary["sessions"]] == ["op1_later"]
        assert [p.name for p in (out / "sessions").iterdir()] == ["op1_later"]

    def test_duplicate_session_ids_fail_every_holder(self, corpus, tmp_path, capsys):
        sessions = corpus / "sessions"
        (sessions / "zz_copy.jsonl").write_bytes((sessions / "op1_earlier.jsonl").read_bytes())
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out]) == 3
        summary = json.loads((out / "summary.json").read_text())
        errors = {Path(f["source"]).name: f["error"] for f in summary["failures"]}
        assert sorted(errors) == ["op1_earlier.jsonl", "zz_copy.jsonl"]
        assert "duplicate session id 'op1_earlier'" in errors["op1_earlier.jsonl"]
        assert "zz_copy.jsonl" in errors["op1_earlier.jsonl"]
        assert "op1_earlier.jsonl" in errors["zz_copy.jsonl"]
        assert [s["id"] for s in summary["sessions"]] == ["op1_later"]
        assert not (out / "sessions" / "op1_earlier").exists()
        with (out / "features.csv").open() as fh:
            assert {r["session_id"] for r in csv.DictReader(fh)} == {"op1_later"}
        assert "zz_copy.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_id_fails_a_holder_whose_twin_fails_analysis(self, corpus, tmp_path,
                                                                   monkeypatch, jobs):
        # the rule was once applied only among the sessions whose analysis succeeded
        sessions = corpus / "sessions"
        twin = dataclasses.replace(parse_session(sessions / "op1_earlier.jsonl"), operator="op9")
        write_session(twin, sessions / "zz_copy.jsonl")
        real = cli.analyze_session

        def flaky(s, config):
            if s.operator == "op9":
                raise RuntimeError("boom")
            return real(s, config)

        monkeypatch.setattr(cli, "analyze_session", flaky)
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out, "--jobs", jobs]) == 3
        summary = json.loads((out / "summary.json").read_text())
        errors = {Path(f["source"]).name: f["error"] for f in summary["failures"]}
        assert sorted(errors) == ["op1_earlier.jsonl", "zz_copy.jsonl"]
        assert all(e.startswith("duplicate session id 'op1_earlier'") for e in errors.values())
        assert [s["id"] for s in summary["sessions"]] == ["op1_later"]
        assert not (out / "sessions" / "op1_earlier").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_id_fails_a_holder_whose_twin_does_not_parse(self, corpus, tmp_path, capsys, jobs):
        # the rule is one of header ids: a twin whose frame line 5 is
        # malformed once let the other holder be written
        sessions = corpus / "sessions"
        lines = (sessions / "op1_earlier.jsonl").read_text().splitlines()
        lines[4] = "{not json"
        (sessions / "zz_copy.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out, "--jobs", jobs]) == 3
        summary = json.loads((out / "summary.json").read_text())
        errors = {Path(f["source"]).name: f["error"] for f in summary["failures"]}
        assert sorted(errors) == ["op1_earlier.jsonl", "zz_copy.jsonl"]
        assert all(e.startswith("duplicate session id 'op1_earlier'") for e in errors.values())
        assert [s["id"] for s in summary["sessions"]] == ["op1_later"]
        assert not (out / "sessions" / "op1_earlier").exists()
        with (out / "features.csv").open() as fh:
            assert {r["session_id"] for r in csv.DictReader(fh)} == {"op1_later"}
        assert capsys.readouterr().err.count("duplicate session id") == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("spoil, good_id, message", [
        # str() once read these ids as "None" and "7", the ids of the good file
        ({"id": None}, "None", "id must be a string, got None"),
        ({"id": 7}, "7", "id must be a string, got 7"),
        ({"id": "x", "ordinal": "middle"}, "x", "ordinal must be one of ('earlier', 'later'), got 'middle'"),
    ])
    def test_a_file_whose_header_fails_holds_no_id(self, corpus, tmp_path, capsys, jobs,
                                                   spoil, good_id, message):
        sessions = corpus / "sessions"
        good = sessions / "op1_earlier.jsonl"
        write_session(dataclasses.replace(parse_session(good), id=good_id), good)
        lines = (sessions / "op1_later.jsonl").read_text().splitlines()
        bad = sessions / "bad.jsonl"
        bad.write_text("\n".join([json.dumps({**json.loads(lines[0]), **spoil}), *lines[1:]]) + "\n")
        (sessions / "op1_later.jsonl").unlink()
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out, "--jobs", jobs]) == 3
        assert capsys.readouterr().err.splitlines() == [f"{bad}:1: {message}"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{"source": str(bad), "error": f"{bad}:1: {message}"}]
        assert [s["id"] for s in summary["sessions"]] == [good_id]
        assert [p.name for p in (out / "sessions").iterdir()] == [good_id]

    def test_only_duplicate_ids_is_input_error(self, corpus, tmp_path):
        sessions = corpus / "sessions"
        (sessions / "op1_later.jsonl").unlink()
        (sessions / "again.jsonl").write_bytes((sessions / "op1_earlier.jsonl").read_bytes())
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_sessions_ok"] == 0 and summary["n_sessions_failed"] == 2
        assert not (out / "sessions").exists()

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_number_is_a_line_numbered_failure(self, corpus, tmp_path, capsys, digits):
        sessions = corpus / "sessions"
        lines = (sessions / "op1_earlier.jsonl").read_text().splitlines()
        lines[2] = lines[2].replace('"t": 0.1', '"t": 1' + "0" * digits)
        (sessions / "op1_earlier.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["analyze", sessions, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "op1_earlier.jsonl:3" in err and "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert "op1_earlier.jsonl:3: " in summary["failures"][0]["error"]

    @pytest.mark.parametrize("kind", sorted(ESCAPES))
    def test_parser_escape_is_a_line_numbered_failure(self, corpus, tmp_path, capsys, kind):
        bad = write_escape(corpus / "sessions", kind, 6)
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out]) == 3
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert f"{bad.name}:6: {ESCAPES[kind][2]}" in summary["failures"][0]["error"]
        assert summary["n_sessions_ok"] == 1

    @staticmethod
    def write_hostile(d: Path, magnitude: float) -> None:
        """40 frames at 10 Hz; the hand touches over frames 10-29 (lines
        12-31), its x alternating between +magnitude and -magnitude."""
        d.mkdir()
        frames = [frame(i / 10.0, ax=1.0, ay=2.0, hx=magnitude * (-1) ** i, hy=3.0, touch=True)
                  if 10 <= i < 30 else frame(i / 10.0, ax=1.0, ay=2.0) for i in range(40)]
        write_session(make_session(frames, session_id="hostile"), d / "hostile.jsonl")

    @pytest.mark.parametrize("magnitude", [1e155, 1e156, math.nextafter(COORD_MAX, math.inf)])
    def test_coordinate_beyond_the_domain_is_a_line_numbered_failure(self, tmp_path, magnitude):
        # at 1e155 the run once exited 0 with an Infinity covariance in
        # touchdist.json; at 1e156 clustering raised OverflowError
        self.write_hostile(tmp_path / "d", magnitude)
        out = tmp_path / "out"
        proc = run_child(["analyze", tmp_path / "d", "--out", out])
        assert proc.returncode == 1, proc.stderr
        assert f"hostile.jsonl:12: |hx| exceeds 1e+50: {magnitude!r}" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert "hostile.jsonl:12: " in summary["failures"][0]["error"]

    def test_coordinates_at_the_domain_bound_are_analyzed(self, tmp_path):
        self.write_hostile(tmp_path / "d", COORD_MAX)
        out = tmp_path / "out"
        proc = run_child(["analyze", tmp_path / "d", "--out", out])
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        touchdist = json.loads((out / "touchdist.json").read_text(), parse_constant=not_json)
        assert touchdist["touch_count"] == 20

    @staticmethod
    def write_fast(d: Path, rate: float) -> None:
        """40 frames; attention jumps between opposite corners of the domain
        each frame while the hand touches one of them over frames 10-29, so
        the attention-hotspot distance changes by 2 * sqrt(2) * COORD_MAX."""
        d.mkdir()
        m = COORD_MAX
        frames = [frame(i / 10.0, ax=m * (-1) ** i, ay=m * (-1) ** i, hx=-m, hy=-m, touch=True)
                  if 10 <= i < 30 else frame(i / 10.0, ax=m * (-1) ** i, ay=m * (-1) ** i)
                  for i in range(40)]
        write_session(make_session(frames, session_id="fast", rate=rate), d / "fast.jsonl")

    @pytest.mark.parametrize("rate", [1e300, math.nextafter(1e100, math.inf)])
    def test_rate_beyond_rate_max_is_a_line_numbered_failure(self, tmp_path, rate):
        # at 1e300 the run once exited 0 with inf mean speeds in features.csv
        self.write_fast(tmp_path / "d", rate)
        out = tmp_path / "out"
        proc = run_child(["analyze", tmp_path / "d", "--out", out])
        assert proc.returncode == 1, proc.stderr
        assert f"fast.jsonl:1: rate_hz exceeds 1e+100: {rate!r}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_features_at_the_rate_bound_are_finite(self, tmp_path):
        self.write_fast(tmp_path / "d", ingest.RATE_MAX)
        out = tmp_path / "out"
        proc = run_child(["analyze", tmp_path / "d", "--out", out])
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        with (out / "features.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        speeds = [float(r["operating_mean_speed"]) for r in rows]
        assert speeds and all(math.isfinite(v * v) for v in speeds), speeds
        assert max(speeds) > 2.8e150  # the bound is reached

    @staticmethod
    def write_late(d: Path, start: float, step: float) -> None:
        """40 frames from ``start`` in steps of ``step``; the hand touches
        over frames 10-29 (lines 12-31)."""
        d.mkdir()
        frames = [frame(start + i * step, ax=1.0, ay=2.0, hx=3.0, hy=4.0, touch=10 <= i < 30)
                  for i in range(40)]
        write_session(make_session(frames, session_id="late"), d / "late.jsonl")

    def test_time_beyond_time_max_is_a_line_numbered_failure(self, tmp_path):
        # at t = 1e300 in steps of 1e290 the run once exited 0, and correlate
        # read its durations as uncorrelated because their squares overflowed
        self.write_late(tmp_path / "d", 1e300, 1e290)
        out = tmp_path / "out"
        proc = run_child(["analyze", tmp_path / "d", "--out", out])
        assert proc.returncode == 1, proc.stderr
        assert "late.jsonl:2: t exceeds 1e+150: 1e+300" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_durations_at_the_time_bound_are_finite(self, tmp_path):
        self.write_late(tmp_path / "d", 0.0, ingest.TIME_MAX / 39)
        out = tmp_path / "out"
        proc = run_child(["analyze", tmp_path / "d", "--out", out])
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        with (out / "features.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        durations = [float(r[f"dur_{p}"]) for r in rows for p in ("gazing", "approaching", "operating")]
        assert rows and max(durations) <= ingest.TIME_MAX
        assert all(math.isfinite(v * v) for v in durations)

    def test_steps_sidecar_not_utf8_names_the_sidecar(self, corpus, tmp_path):
        sidecar = corpus / "sessions" / "op1_earlier.steps.csv"
        sidecar.write_bytes(b"start_t,end_t,step_id\n0.0,3.0,a\n3.0,6.0,b\xe9\n")
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert (f"{sidecar}:3: not UTF-8: byte 0xe9 (invalid continuation byte)"
                in summary["failures"][0]["error"])

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["analyze", corpus / "sessions", "--out", out1]) == 0
        assert run(["analyze", corpus / "sessions", "--out", out2]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


    def test_rerun_into_the_input_directory_reads_no_output_as_a_session(self, corpus, tmp_path):
        # --out under the input: the rerun finds the first run's outputs,
        # trace files included, and must read none of them as a session
        d = tmp_path / "d"
        d.mkdir()
        for path in (corpus / "sessions").iterdir():
            (d / path.name).write_bytes(path.read_bytes())
        assert run(["analyze", d, "--out", d / "run"]) == 0
        assert list((d / "run" / "sessions" / "op1_earlier" / "traces").glob("*.csv"))
        first = (d / "run" / "summary.json").read_bytes()
        assert run(["analyze", d, "--out", d / "run"]) == 0
        assert (d / "run" / "summary.json").read_bytes() == first
        assert run(["validate", d, "--out", d / "val"]) == 0
        report = json.loads((d / "val" / "validation_report.json").read_text())
        assert [entry["session_id"] for entry in report] == ["op1_earlier", "op1_later"]

    def test_a_trace_like_name_elsewhere_is_a_session(self, corpus, tmp_path):
        d = tmp_path / "traces"
        d.mkdir()
        src = corpus / "sessions" / "op1_earlier.jsonl"
        write_session(parse_session(src), d / "op1_earlier_0.csv")
        assert cli.find_session_files([str(d)]) == [(d / "op1_earlier_0.csv").resolve()]

    def test_rerun_removes_the_traces_of_units_it_no_longer_finds(self, tmp_path):
        # min_operating 2.9 s drops every unit of op01_later, whose 15 traces
        # the first run wrote; a file not named as a trace is kept
        data, out, fresh, config = (tmp_path / name for name in ("data", "out", "fresh", "c.json"))
        config.write_text(json.dumps({"segmentation": {"min_operating": 2.9}}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_pairs": 1}))
        assert run(["synth", "--config", spec, "--seed", 7, "--out", data]) == 0
        assert run(["analyze", data / "sessions", "--out", out]) == 0
        traces = out / "sessions" / "op01_later" / "traces"
        assert len(list(traces.glob("*.csv"))) == 15
        (traces / "notes.txt").write_text("kept\n")
        assert run(["analyze", data / "sessions", "--out", out, "--config", config]) == 0
        assert run(["analyze", data / "sessions", "--out", fresh, "--config", config]) == 0
        assert (traces / "notes.txt").read_text() == "kept\n"
        (traces / "notes.txt").unlink()
        assert tree(out) == tree(fresh)
        assert not list(traces.iterdir())


def one_unit_session(path, config, out):
    """What ``cli._run_session`` returns for a session of one unit and no
    touch, after 2 ms and without reading ``path``: each process's share of
    a run is near its share of the cores, as on real sessions."""
    time.sleep(0.002)
    return [], {"id": path.stem, "n_units": 1}, np.empty((0, 4))


def running(pid: int) -> bool:
    """Whether the process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestAnalyzePool:
    """``analyze --jobs N``: N processes, this one and N - 1 forked workers,
    each parse, analyze and write whole sessions, this one from the front of
    the path list and the workers from its back; a dead worker surfaces from
    the result of a session, or from a submit while the pool is filled."""

    def test_unexpected_error_in_a_worker(self, corpus, tmp_path, monkeypatch, capsys):
        sessions = corpus / "sessions"
        (sessions / "a_bad.jsonl").write_text("{not json\n")
        (sessions / "zz_bad.jsonl").write_text("{not json\n")
        real = cli.analyze_session

        def flaky(s, config):
            if s.id == "op1_later":
                raise RuntimeError("boom")
            return real(s, config)

        monkeypatch.setattr(cli, "analyze_session", flaky)  # forked workers inherit the patch
        err = {}
        for jobs in (1, 2):
            assert run(["analyze", sessions, "--out", tmp_path / f"o{jobs}", "--jobs", jobs]) == 3
            err[jobs] = capsys.readouterr().err
        failed = [Path(line.split(":")[0]).name for line in err[2].splitlines()
                  if line.startswith(str(sessions))]
        assert failed == ["a_bad.jsonl", "op1_later.jsonl", "zz_bad.jsonl"]
        assert "Traceback (most recent call last)" in err[2] and "in flaky" in err[2]
        assert err[2] == err[1]
        summary = json.loads((tmp_path / "o2" / "summary.json").read_text())
        assert {Path(f["source"]).name: f["error"] for f in summary["failures"]}[
            "op1_later.jsonl"] == "RuntimeError: boom"
        assert tree(tmp_path / "o2") == tree(tmp_path / "o1")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_write_error_is_an_input_error(self, corpus, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        (out / "sessions").mkdir(parents=True)
        (out / "sessions" / "op1_later").write_text("a file where a session directory goes\n")
        assert run(["analyze", corpus / "sessions", "--out", out, "--jobs", jobs]) == 1
        assert "op1_later" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_ends_the_run(self, corpus, tmp_path):
        # in a child interpreter, because the worker's death must not take
        # this one down; a pool of two on any machine
        out = tmp_path / "out"
        code = (
            "import json, multiprocessing, os\n"
            "from opgaze import cli\n"
            "parent = os.getpid()\n"
            "real = cli.analyze_session\n"
            "def dying(s, config):\n"
            "    if s.id == 'op1_later' and os.getpid() != parent:\n"
            "        os._exit(9)\n"
            "    return real(s, config)\n"
            "cli.analyze_session = dying\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"code = cli.main(['analyze', {str(corpus / 'sessions')!r}, '--out', {str(out)!r},"
            " '--jobs', '2'])\n"
            "print(json.dumps([code, len(multiprocessing.active_children())]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [1, 0]
        [line] = proc.stderr.splitlines()
        assert "worker process died" in line
        assert not (out / "summary.json").exists()

    def test_a_worker_that_dies_while_files_parse_ends_the_run(self, corpus, tmp_path):
        # the worker dies on its session while this process parses its own,
        # after every submit, so the dead worker surfaces from that session's
        # result
        out, died = tmp_path / "out", tmp_path / "died"
        code = (
            "import json, multiprocessing, os, time\n"
            "from opgaze import cli\n"
            "parent = os.getpid()\n"
            "real_load, real_analyze = cli._load_session, cli.analyze_session\n"
            "def dying(s, config):\n"
            "    if os.getpid() != parent:\n"
            f"        open({str(died)!r}, 'w').close()\n"
            "        os._exit(9)\n"
            "    return real_analyze(s, config)\n"
            "def waiting(path):\n"
            "    if os.getpid() == parent:\n"
            "        deadline = time.monotonic() + 30\n"
            f"        while not os.path.exists({str(died)!r}) and time.monotonic() < deadline:\n"
            "            time.sleep(0.01)\n"
            "        time.sleep(0.5)\n"
            "    return real_load(path)\n"
            "cli.analyze_session, cli._load_session = dying, waiting\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"code = cli.main(['analyze', {str(corpus / 'sessions')!r}, '--out', {str(out)!r},"
            " '--jobs', '2'])\n"
            "print(json.dumps([code, len(multiprocessing.active_children())]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [1, 0]
        [line] = proc.stderr.splitlines()
        assert "worker process died" in line
        assert died.exists() and not (out / "summary.json").exists()

    def test_a_worker_ends_when_analyze_is_killed(self, corpus, tmp_path):
        # this process dies on its own session once the worker has taken the
        # other; an orphaned worker would hold the child's stdout and stderr
        # open, so the run would not return
        pid_file = tmp_path / "worker.pid"
        code = (
            "import os, time\n"
            "from opgaze import cli\n"
            "parent = os.getpid()\n"
            "real = cli.analyze_session\n"
            "def dying(s, config):\n"
            "    if os.getpid() != parent:\n"
            f"        with open({str(pid_file)!r} + '.tmp', 'w') as fh:\n"
            "            fh.write(str(os.getpid()))\n"
            f"        os.replace({str(pid_file)!r} + '.tmp', {str(pid_file)!r})\n"
            "        return real(s, config)\n"
            "    deadline = time.monotonic() + 10\n"
            f"    while not os.path.exists({str(pid_file)!r}) and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    os._exit(9)\n"
            "cli.analyze_session = dying\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"cli.main(['analyze', {str(corpus / 'sessions')!r}, '--out', {str(tmp_path / 'out')!r},"
            " '--jobs', '2'])\n"
        )
        try:
            proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=20)
            assert proc.returncode == 9, proc.stderr
            worker = int(pid_file.read_text())
            deadline = time.monotonic() + 5
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running(worker)
        finally:
            if pid_file.exists():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)

    def test_each_future_is_taken_back_or_read_once(self, tmp_path, monkeypatch):
        # the workers are fed from the executor's own queue: a session's
        # future is cancelled, and read where a worker took it, and no loop
        # over the futures held runs per session
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        n = 400
        frame_line = json.dumps({"t": 0.0, "ax": 0.0, "ay": 0.0, "hx": None, "hy": None, "touch": False})
        for i in range(n):
            header = {"id": f"s{i:03d}", "operator": "op", "ordinal": "earlier",
                      "rate_hz": 30.0, "coord_frame": "scene"}
            (sessions / f"s{i:03d}.jsonl").write_text(f"{json.dumps(header)}\n{frame_line}\n")
        calls = []
        for name in ("done", "cancel", "result"):
            def counted(self, *args, _real=getattr(concurrent.futures.Future, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(concurrent.futures.Future, name, counted)
        monkeypatch.setattr(cli, "_run_session", one_unit_session)  # forked workers inherit the stub
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run(["analyze", sessions, "--out", tmp_path / "out", "--jobs", 2]) == 0
        assert len(calls) <= 2 * n, collections.Counter(calls)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [entry["id"] for entry in summary["sessions"]] == [f"s{i:03d}" for i in range(n)]
        assert multiprocessing.active_children() == []

    def test_this_process_and_a_worker_each_parse_and_write_whole_sessions(self, tmp_path, monkeypatch):
        # every call of either, in any process, appends "<pid> <kind> <id>"
        # to one log; a line this short is one write
        spec, data, log = tmp_path / "spec.json", tmp_path / "data", tmp_path / "calls.log"
        spec.write_text(json.dumps({"n_pairs": 3}))
        assert run(["synth", "--config", spec, "--seed", 7, "--out", data]) == 0
        sessions = data / "sessions"
        real_load, real_write = cli._load_session, cli._write_session_outputs

        def record(kind, sid):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {kind} {sid}\n")

        def recording_load(path):
            record("parse", path.stem)
            return real_load(path)

        def recording_write(out_dir, result):
            record("write", result.session.id)
            return real_write(out_dir, result)

        monkeypatch.setattr(cli, "_load_session", recording_load)  # forked workers inherit the patch
        monkeypatch.setattr(cli, "_write_session_outputs", recording_write)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run(["analyze", sessions, "--out", tmp_path / "many", "--jobs", 2]) == 0
        by_kind: dict[str, dict[str, list[int]]] = {"parse": {}, "write": {}}
        for line in log.read_text().splitlines():
            pid, kind, sid = line.split()
            by_kind[kind].setdefault(sid, []).append(int(pid))
        ids = sorted(path.stem for path in cli.find_session_files([sessions]))
        assert len(ids) >= 6
        # each session is parsed once and written once, by the same process
        assert sorted(by_kind["parse"]) == sorted(by_kind["write"]) == ids
        assert all(len(pids) == 1 for kind in by_kind.values() for pids in kind.values())
        assert by_kind["parse"] == by_kind["write"]
        # this process and one worker share the sessions
        owners = {pids[0] for pids in by_kind["parse"].values()}
        assert os.getpid() in owners and len(owners) == 2
        monkeypatch.undo()
        assert run(["analyze", sessions, "--out", tmp_path / "one", "--jobs", 1]) == 0
        assert tree(tmp_path / "many") == tree(tmp_path / "one")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_sessions, jobs", [(2, 64), (1, 2)])
    def test_pool_size_is_capped_by_sessions_and_cores(self, corpus, tmp_path, monkeypatch,
                                                       n_sessions, jobs):
        sessions = corpus / "sessions"
        if n_sessions == 1:
            (sessions / "op1_later.jsonl").unlink()
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        assert run(["analyze", sessions, "--out", tmp_path / "one", "--jobs", 1]) == 0
        assert run(["analyze", sessions, "--out", tmp_path / "many", "--jobs", jobs]) == 0
        # this process is one of the size, so it forks one fewer workers
        size = min(jobs, n_sessions, len(os.sched_getaffinity(0)))
        assert sizes == ([size - 1] if size > 1 else [])
        assert tree(tmp_path / "many") == tree(tmp_path / "one")
        assert multiprocessing.active_children() == []


class TestCompareAndCorrelate:
    @pytest.fixture
    def analyzed(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert run(["analyze", corpus / "sessions", "--out", out]) == 0
        return out

    def test_compare_happy_path(self, corpus, analyzed, tmp_path):
        out = tmp_path / "cmp"
        code = run(["compare", analyzed / "features.csv", corpus / "pairs.json",
                    "--out", out])
        assert code == 0
        with (out / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["feature"] for r in rows} >= {"dur_gazing", "dur_operating"}
        plot = json.loads((out / "comparison_plot.json").read_text())
        assert "per_pair_deltas_pct" in plot

    def test_compare_accepts_features_directory(self, corpus, analyzed, tmp_path):
        code = run(["compare", analyzed, corpus / "pairs.json", "--out", tmp_path / "c"])
        assert code == 0

    def test_compare_missing_session_named(self, corpus, analyzed, tmp_path, capsys):
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"pairs": [
            {"operator": "op1", "earlier": "ghost", "later": "op1_later"}]}))
        assert run(["compare", analyzed, manifest, "--out", tmp_path / "c"]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_compare_session_without_units_is_not_called_missing(self, tmp_path, capsys):
        # a session analyze handled without error, but with no units, has no
        # features.csv rows; it was once reported as "missing"
        d, out = tmp_path / "d", tmp_path / "out"
        d.mkdir()
        for sid, touch in (("e", False), ("l", True)):
            frames = [frame(i / 10.0, hx=7.0, hy=1.0, touch=touch and 1.0 <= i / 10.0 <= 2.5)
                      for i in range(40)]
            write_session(make_session(frames, session_id=sid, ordinal="earlier" if sid == "e"
                                       else "later"), d / f"{sid}.jsonl")
        assert run(["analyze", d, "--out", out]) == 0
        assert json.loads((out / "summary.json").read_text())["n_sessions_ok"] == 2
        rows = (out / "features.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in rows} == {"session_id", "l"}
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"pairs": [{"operator": "op1", "earlier": "e", "later": "l"}]}))
        capsys.readouterr()
        assert run(["compare", out, manifest, "--out", tmp_path / "c"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "session 'e' has no rows in features.csv: it was not analyzed, "
            "or it has no operation units"]
        assert not (tmp_path / "c").exists()

    @staticmethod
    def _edited(analyzed: Path, tmp_path: Path, edit) -> Path:
        """A copy of ``features.csv`` with its rows, header first, passed through ``edit``."""
        with (analyzed / "features.csv").open(newline="") as fh:
            rows = edit(list(csv.reader(fh)))
        path = tmp_path / "edited" / "features.csv"
        path.parent.mkdir()
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return path

    @staticmethod
    def _set(column: str, value: str):
        def spoil(header, row):
            row[header.index(column)] = value
            return row
        return spoil

    def _study(self, command: str, features: Path, corpus: Path, tmp_path: Path) -> int:
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("step_id,rater_id,role,score\nstep_01,r1,expert,2\n")
        other = corpus / "pairs.json" if command == "compare" else ratings
        return run([command, features, other, "--out", tmp_path / command])

    @pytest.mark.parametrize("command", ["compare", "correlate"])
    @pytest.mark.parametrize("spoil, message", [
        (lambda header, row: row[:-3], "expected 26 cells, got 23"),
        (lambda header, row: row + ["1"], "expected 26 cells, got 27"),
        (_set("dur_gazing", "abc"), "dur_gazing is not a number: 'abc'"),
        (_set("ou_index", "1.5"), "ou_index is not an integer: '1.5'"),
        # one nan cell once made compare exit 0 and write NaN into its plot JSON
        (_set("dur_gazing", "nan"), "dur_gazing is not finite: 'nan'"),
        (_set("dur_operating", "-inf"), "dur_operating is not finite: '-inf'"),
        (_set("operating_mean_speed", "2.9e150"), "|operating_mean_speed| exceeds 2.83e+150: '2.9e150'"),
        (_set("attention_lead_lag", "-1e300"), "|attention_lead_lag| exceeds 2.83e+150: '-1e300'"),
    ])
    def test_bad_features_row_is_a_line_numbered_input_error(self, corpus, analyzed, tmp_path, capsys,
                                                             command, spoil, message):
        # the first data row, on line 2, is spoiled
        features = self._edited(analyzed, tmp_path, lambda rows: [rows[0], spoil(*rows[:2]), *rows[2:]])
        assert self._study(command, features, corpus, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{features}:2: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["compare", "correlate"])
    @pytest.mark.parametrize("repeat", [
        lambda header, row: row,
        # the key is the unit's number, however it is written, whatever the other cells hold
        lambda header, row: [f"0{cell}" if name == "ou_index" else "7.0" if name == "dur_gazing" else cell
                             for name, cell in zip(header, row)],
    ])
    def test_repeated_unit_row_is_an_input_error_on_its_line(self, corpus, analyzed, tmp_path, capsys,
                                                             command, repeat):
        # a repeated row was once counted twice, moving every mean it was in,
        # and the command still exited 0
        def edit(rows):
            header, first = rows[0], rows[1]
            return [header, first, *rows[2:], repeat(header, first)]

        features = self._edited(analyzed, tmp_path, edit)
        n_lines = len(features.read_text().splitlines())
        session_id, ou_index = (features.read_text().splitlines()[1].split(",")[i] for i in (0, 1))
        assert self._study(command, features, corpus, tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{features}:{n_lines}: session {session_id!r} unit {ou_index} repeats line 2"]
        assert not (tmp_path / command).exists()

    def test_feature_cell_at_the_bound_is_read(self, corpus, analyzed, tmp_path):
        features = self._edited(analyzed, tmp_path, lambda rows: [
            rows[0], *(self._set("operating_mean_speed", "2.83e150")(rows[0], row) for row in rows[1:])])
        assert self._study("compare", features, corpus, tmp_path) == 0

    def test_overflowing_relative_change_is_undefined(self, tmp_path, caplog):
        # an earlier mean of 5e-324 and a later one of 1e150 once gave a
        # relative change of inf, written as Infinity into the plot JSON
        def row(session_id: str, dur_gazing: str) -> list[str]:
            cells = dict.fromkeys(cli.FEATURES_HEADER, "")
            cells.update(session_id=session_id, ou_index="0", gaze_pattern="shift",
                         shift_kind="undefined", dur_gazing=dur_gazing, dur_operating="2.0")
            return [cells[name] for name in cli.FEATURES_HEADER]

        features, manifest = tmp_path / "features.csv", tmp_path / "pairs.json"
        with features.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [cli.FEATURES_HEADER, row("e", "5e-324"), row("l", "1e150")])
        manifest.write_text(json.dumps({"pairs": [{"operator": "op1", "earlier": "e", "later": "l"}]}))
        with caplog.at_level("WARNING", logger="opgaze.analysis"):
            assert run(["compare", features, manifest, "--out", tmp_path / "c"]) == 0

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        plot = json.loads((tmp_path / "c" / "comparison_plot.json").read_text(), parse_constant=not_json)
        gazing, operating = (plot["features"].index(name) for name in ("dur_gazing", "dur_operating"))
        assert (plot["mean_delta_pct"][gazing], plot["n_pairs"][gazing]) == (None, 0)
        assert (plot["mean_delta_pct"][operating], plot["n_pairs"][operating]) == (0.0, 1)
        assert plot["per_pair_deltas_pct"]["dur_gazing"] == []
        assert any("dur_gazing" in r.getMessage() and "not finite" in r.getMessage()
                   for r in caplog.records)

    @pytest.mark.parametrize("pair", [
        {"operator": "op1", "earlier": ["x"], "later": "op1_later"},
        {"operator": 1, "earlier": "op1_earlier", "later": "op1_later"},
        {"operator": "op1", "earlier": "op1_earlier", "later": None},
    ])
    def test_manifest_value_that_is_not_a_string_is_an_input_error(self, analyzed, tmp_path, capsys,
                                                                   pair):
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"pairs": [
            {"operator": "a", "earlier": "op1_earlier", "later": "op1_later"}, pair]}))
        assert run(["compare", analyzed, manifest, "--out", tmp_path / "c"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{manifest}: pair 1 ")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("pairs, message", [
        # the same pair twice would weigh op1's deltas twice
        ([("op1", "op1_earlier", "op1_later")] * 2, "operator 'op1' is named by pair 0 and by pair 1"),
        ([("op1", "op1_earlier", "op1_later"), ("op1", "x", "y")],
         "operator 'op1' is named by pair 0 and by pair 1"),
        ([("op1", "op1_earlier", "op1_later"), ("op2", "x", "op1_later")],
         "session 'op1_later' is named by pair 0 later and by pair 1 later"),
        ([("op1", "op1_earlier", "op1_earlier")],
         "session 'op1_earlier' is named by pair 0 earlier and by pair 0 later"),
    ])
    def test_manifest_naming_an_operator_or_session_twice_is_an_input_error(
            self, analyzed, tmp_path, capsys, pairs, message):
        manifest = tmp_path / "pairs.json"
        manifest.write_text(json.dumps({"pairs": [
            {"operator": op, "earlier": e, "later": l} for op, e, l in pairs]}))
        assert run(["compare", analyzed, manifest, "--out", tmp_path / "c"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"{manifest}: {message}"]
        assert not (tmp_path / "c").exists()

    def test_features_not_utf8_is_a_line_numbered_input_error(self, corpus, analyzed, tmp_path, capsys):
        features = tmp_path / "features.csv"
        lines = (analyzed / "features.csv").read_bytes().splitlines(keepends=True)
        features.write_bytes(b"".join(lines[:2]) + b"\xe9" + b"".join(lines[2:]))
        assert run(["compare", features, corpus / "pairs.json", "--out", tmp_path / "c"]) == 1
        assert f"{features}:3: not UTF-8: byte 0xe9" in capsys.readouterr().err

    def test_features_columns_are_found_by_name(self, corpus, analyzed, tmp_path):
        path = self._edited(analyzed, tmp_path, lambda rows: [row[::-1] + ["extra"] for row in rows])
        for features, out in ((analyzed, "a"), (path, "b")):
            assert run(["compare", features, corpus / "pairs.json", "--out", tmp_path / out]) == 0
        assert ((tmp_path / "a" / "comparison.csv").read_bytes()
                == (tmp_path / "b" / "comparison.csv").read_bytes())

    @pytest.mark.parametrize("data, message", [
        (b"step_id,rater_id,role,score\nstep_01,r1,expert,2\nstep_01," + b"x" * 140_000 + b",expert,1\n",
         "ratings.csv:3: malformed CSV: field larger than field limit (131072)"),
        (b"step_id,rater_id,role,score\nstep_01,r\xe9,expert,2\n",
         "ratings.csv:2: not UTF-8: byte 0xe9 (invalid continuation byte)"),
        # the quoted cell of line 2 goes on into line 3, where the bad byte is
        (b'step_id,rater_id,role,score\n"s\n\xe9",e01,expert,1\n',
         "ratings.csv:3: not UTF-8: byte 0xe9 (invalid continuation byte)"),
    ])
    def test_bad_ratings_are_a_line_numbered_input_error(self, corpus, analyzed, tmp_path, capsys,
                                                         data, message):
        ratings = tmp_path / "ratings.csv"
        ratings.write_bytes(data)
        assert run(["correlate", analyzed, ratings, "--out", tmp_path / "r"]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path}/{message}" in err and "Traceback" not in err

    def test_unrated_step_is_logged_once(self, tmp_path):
        # correlate once logged it for the pooled ratings and again for each role
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_pairs": 1, "seed": 7}))
        data, out = tmp_path / "data", tmp_path / "out"
        assert run(["synth", "--config", spec, "--out", data]) == 0
        assert run(["analyze", data / "sessions", "--out", out]) == 0
        lines = (data / "ratings.csv").read_text().splitlines(keepends=True)
        last = max(line.split(",")[0] for line in lines[1:])
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("".join(line for line in lines if not line.startswith(f"{last},")))
        proc = run_child(["correlate", out, ratings, "--out", tmp_path / "r"])
        assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines()
                  if line.endswith(f": steps without ratings ignored: {last}")]
        assert len(warned) == 1, proc.stderr

    def test_correlate_without_steps_is_empty(self, corpus, analyzed, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("step_id,rater_id,role,score\nstep_01,r1,expert,2\n")
        # the corpus has no step labels, so no labeled units exist
        assert run(["correlate", analyzed, ratings, "--out", tmp_path / "r"]) == 2


class TestSynthRoundTrip:
    def test_synth_then_full_pipeline(self, tmp_path, capsys):
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"n_pairs": 2}))
        data = tmp_path / "data"
        assert run(["synth", "--config", spec, "--seed", "123", "--out", data]) == 0
        assert "wrote 4 sessions" in capsys.readouterr().out
        assert run(["validate", data / "sessions", "--out", tmp_path / "v"]) == 0

        out = tmp_path / "out"
        assert run(["analyze", data / "sessions", "--out", out]) == 0
        assert run(["compare", out, data / "pairs.json", "--out", tmp_path / "cmp"]) == 0
        assert run(["correlate", out, data / "ratings.csv", "--out", tmp_path / "cor"]) == 0

        with (tmp_path / "cor" / "correlation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        by_feature = {r["feature"]: r for r in rows}
        assert int(by_feature["dur_gazing"]["n_steps"]) > 0
        plot = json.loads((tmp_path / "cor" / "correlation_plot.json").read_text())
        assert "by_role" in plot

    @pytest.mark.parametrize("spec, message", [
        ({"n_pairs": "3"}, "n_pairs must be an integer, got '3'"),
        ({"n_pairs": True}, "n_pairs must be an integer, got True"),
        ({"seed": 7.9}, "seed must be an integer, got 7.9"),
        ({"injected": 5}, "injected must be an object of finite numbers, got 5"),
        ({"injected": {"dur_gazing": float("nan")}},
         "injected must be an object of finite numbers, got {'dur_gazing': nan}"),
        ({"sample_rate_hz": "x"}, "sample_rate_hz must be a finite number, got 'x'"),
        ({"noise_sigma": float("nan")}, "noise_sigma must be a finite number, got nan"),
        ({"lag_later_s": float("inf")}, "lag_later_s must be a finite number or null, got inf"),
        ({"step_scores": [1.5]}, "step_scores must be a list of integers, got [1.5]"),
        ({"step_scores": 3}, "step_scores must be a list of integers, got 3"),
        ({"seed": -3}, "seed must be >= 0, got -3"),
        ({"lag_s": -1}, "lag_s must be >= 0"),
        ({"sample_rate_hz": -5}, "sample_rate_hz must be positive, got -5"),
        # its frame counts once overflowed an int, with numpy warnings
        ({"sample_rate_hz": 1e300}, "sample_rate_hz gives frame counts too large for an int: 1e+300"),
        ({"sample_rate_hz": 1.7e308}, "sample_rate_hz gives frame counts too large for an int: 1.7e+308"),
        # the later sessions' scaled counts once overflowed an int, with a numpy warning
        ({"injected": {"dur_gazing": 1e300}}, "injected.dur_gazing gives frame counts too large for an int: 1e+300"),
        ({"injected": {"dur_approaching": 1e300}},
         "injected.dur_approaching gives frame counts too large for an int: 1e+300"),
        ({"injected": {"dur_operating": 1.7e308}},
         "injected.dur_operating gives frame counts too large for an int: 1.7e+308"),
    ])
    def test_bad_spec_value_is_an_input_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"seed": 1, "n_pairs": 1, **spec}))
        assert run(["synth", "--config", path, "--out", tmp_path / "data"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"{path}: {message}"]
        assert not (tmp_path / "data").exists()

    def test_negative_seed_option_is_an_input_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"seed": 1, "n_pairs": 1}))
        assert run(["synth", "--config", path, "--seed", "-1", "--out", tmp_path / "data"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"{path}: seed must be >= 0, got -1"]
        assert not (tmp_path / "data").exists()

    def test_spec_values_of_every_declared_type_are_read(self, tmp_path):
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps({"seed": 1, "n_pairs": 1, "step_scores": [-1, 0, 1],
                                    "injected": {"dur_gazing": -20}, "noise_sigma": 0,
                                    "lag_later_s": None}))
        assert run(["synth", "--config", path, "--out", tmp_path / "data"]) == 0
        used = json.loads((tmp_path / "data" / "synth_spec_used.json").read_text())
        assert (used["step_scores"], used["injected"], used["noise_sigma"], used["lag_later_s"]) == \
            ([-1, 0, 1], {"dur_gazing": -20.0}, 0, None)

    def test_synth_deterministic_across_runs(self, tmp_path):
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"n_pairs": 1, "seed": 55}))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--config", spec, "--out", d1]) == 0
        assert run(["synth", "--config", spec, "--out", d2]) == 0
        for rel in sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file()):
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_synth_csv_format(self, tmp_path):
        spec = tmp_path / "cohort.json"
        spec.write_text(json.dumps({"n_pairs": 1, "seed": 9}))
        data = tmp_path / "data"
        assert run(["synth", "--config", spec, "--out", data, "--format", "csv"]) == 0
        files = list((data / "sessions").glob("*.csv"))
        assert any(not f.name.endswith(".steps.csv") for f in files)
        assert run(["validate", data / "sessions", "--out", tmp_path / "v"]) == 0


class TestStepLabelFlow:
    def test_labeled_units_survive_to_correlation(self, tmp_path):
        from opgaze import StepLabel
        d = tmp_path / "d"
        d.mkdir()
        frames = []
        for i in range(121):
            t = i / 10.0
            touch = (3.0 <= t <= 5.0) or (9.0 <= t <= 11.0)
            hand = touch or (2.0 <= t <= 5.0) or (8.0 <= t <= 11.0)
            frames.append(frame(t, ax=20.0, ay=0.0, hx=5.0 if hand else None,
                                hy=5.0 if hand else None, touch=touch))
        labels = [StepLabel(0.0, 6.0, "alpha"), StepLabel(6.0, 12.0, "beta")]
        s = make_session(frames, session_id="lab", step_labels=tuple(labels))
        write_session(s, d / "lab.jsonl")
        write_step_labels(labels, d / "lab.steps.csv")
        out = tmp_path / "out"
        assert run(["analyze", d, "--out", out]) == 0
        with (out / "features.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["step_id"] for r in rows] == ["alpha", "beta"]

