"""End-to-end property over ``analyze`` -> ``compare`` / ``correlate``.

Each drawn cohort holds 1-3 sessions that parse, in either format, with
the odd cases the parser admits mixed in: one frame, touching throughout,
a hand never in sight, coordinates at +-``COORD_MAX`` and subnormal ones,
``rate_hz`` at ``RATE_MAX``, times up to ``TIME_MAX`` and subnormal time
steps; some carry a step sidecar.  On every cohort:

- each session yields its outputs or a failure in ``summary.json``;
- every JSON output is strict JSON (no ``NaN`` or ``Infinity``);
- ``analyze`` writes the same bytes at ``--jobs`` 1 and 2;
- ``compare`` and ``correlate`` on the result exit 0, 1 or 2;
- nothing is written outside ``--out``;
- the sessions written as JSONL, as JSONL that is not ASCII, as CSV and as
  CSV with CRLF line ends give the same exit code and the same tree, but for
  the ``source`` of each ``summary.json`` entry.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from opgaze import Session, StepLabel, write_session, write_step_labels
from opgaze.cli import main
from opgaze.ingest import COORD_MAX, RATE_MAX, TIME_MAX

# bounded, and no deadline: the speed of a shared test host drifts
SETTINGS = settings(max_examples=60, deadline=None)

coords = st.one_of(
    st.floats(-100.0, 100.0),
    st.sampled_from([COORD_MAX, -COORD_MAX, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
)


@st.composite
def frame_times(draw, n: int) -> list[float]:
    """``n`` strictly increasing times: regular, in subnormal steps from 0,
    or ending at ``TIME_MAX``."""
    kind = draw(st.sampled_from(["regular", "subnormal", "late"]))
    if kind == "regular":
        step = draw(st.sampled_from([0.1, 1 / 30, 0.5]))
        return [i * step for i in range(n)]
    if kind == "subnormal":
        return [i * 5e-324 for i in range(n)]
    step = draw(st.sampled_from([1e140, 1e148]))
    return [TIME_MAX - (n - 1 - i) * step for i in range(n)]


@st.composite
def sessions(draw, index: int) -> Session:
    n = draw(st.integers(1, 40))
    hands = draw(st.sampled_from(["never", "always", "some"]))
    touches = draw(st.sampled_from(["none", "throughout", "runs"]))
    if touches == "throughout":
        hands = "always"
    visible = [hands == "always" or (hands == "some" and draw(st.booleans())) for _ in range(n)]
    touching = [v and (touches == "throughout" or (touches == "runs" and draw(st.booleans())))
                for v in visible]
    nan = float("nan")
    return Session(
        id=f"s{index}", operator=f"op{index // 2}", ordinal=("earlier", "later")[index % 2],
        times=draw(frame_times(n)),
        attention_xy=[(draw(coords), draw(coords)) for _ in range(n)],
        hand_xy=[(draw(coords), draw(coords)) if v else (nan, nan) for v in visible],
        touching_mask=touching,
        sample_rate_hz=draw(st.sampled_from([10.0, 30.0, 0.5, RATE_MAX])),
    )


@st.composite
def cohorts(draw) -> list[tuple[Session, str, bool]]:
    """Sessions with their file format and whether a step sidecar goes along."""
    return [(draw(sessions(i)), draw(st.sampled_from(["jsonl", "csv"])), draw(st.booleans()))
            for i in range(draw(st.integers(1, 3)))]


def write_cohort(cohort, data: Path) -> dict[str, Path]:
    """Session files, sidecars, a manifest and ratings under ``data``; the
    session file of each id."""
    (data / "sessions").mkdir(parents=True)
    paths = {}
    for s, fmt, labeled in cohort:
        path = paths[s.id] = data / "sessions" / f"{s.id}.{fmt}"
        write_session(s, path)
        if labeled:
            start = float(s.times[0])
            end = max(2 * float(s.times[-1]), float(s.times[-1]) + 1.0)
            mid = (start + end) / 2
            write_step_labels([StepLabel(start, mid, "step_a"), StepLabel(mid, end, "step_b")],
                              path.with_suffix(".steps.csv"))
    ids = sorted(paths)
    (data / "pairs.json").write_text(json.dumps({"pairs": [
        {"operator": "op0", "earlier": ids[0], "later": ids[1 if len(ids) > 1 else 0]}]}))
    (data / "ratings.csv").write_text(
        "step_id,rater_id,role,score\n"
        "step_a,r1,expert,-2\nstep_a,r2,beginner,1\n"
        "step_b,r1,expert,3\nstep_b,r2,beginner,-4\n")
    return paths


def files_under(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


def under(path: Path, dirs) -> bool:
    return any(path == d or d in path.parents for d in dirs)


def strict_json(path: Path) -> object:
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


@SETTINGS
@given(cohort=cohorts())
def test_analyze_and_the_studies_keep_their_contracts(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_cohort(cohort, root / "data")
        before = set(root.rglob("*"))
        outs = {name: root / name for name in ("jobs1", "jobs2", "compare", "correlate")}
        cwd = os.getcwd()
        os.chdir(root)  # a relative write would land in root, and be seen
        try:
            codes = {jobs: main(["analyze", str(root / "data" / "sessions"),
                                 "--out", str(outs[f"jobs{jobs}"]), "--jobs", str(jobs)])
                     for jobs in (1, 2)}
            compare = main(["compare", str(outs["jobs1"]), str(root / "data" / "pairs.json"),
                            "--out", str(outs["compare"])])
            correlate = main(["correlate", str(outs["jobs1"]), str(root / "data" / "ratings.csv"),
                              "--out", str(outs["correlate"])])
        finally:
            os.chdir(cwd)

        # nothing outside --out: no file, no directory
        written = set(root.rglob("*")) - before
        assert all(under(p, outs.values()) for p in written), written

        # the same bytes at --jobs 1 and 2
        one, two = (sorted(p.relative_to(outs[name]) for p in files_under(outs[name]))
                    for name in ("jobs1", "jobs2"))
        assert one == two and codes[1] == codes[2]
        for rel in one:
            assert (outs["jobs1"] / rel).read_bytes() == (outs["jobs2"] / rel).read_bytes(), rel

        # every session has its outputs or a failure
        summary = strict_json(outs["jobs1"] / "summary.json")
        ok = {Path(e["source"]).name: e["id"] for e in summary["sessions"]}
        failed = {Path(f["source"]).name for f in summary["failures"]}
        assert sorted([*ok, *failed]) == sorted(p.name for p in paths.values())
        for sid in ok.values():
            for name in ("units.csv", "hotspots.csv", "features.csv"):
                assert (outs["jobs1"] / "sessions" / sid / name).is_file()
        assert codes[1] == (3 if ok and failed else 1 if failed else 0)

        assert compare in (0, 1, 2) and correlate in (0, 1, 2)
        for path in written:
            if path.suffix == ".json" and path.is_file():
                strict_json(path)


# name -> (session file format, line end); the line ends of the second and
# the fourth send every session's frame text to the line-by-line readers
WRITTEN_AS = {
    "jsonl": ("jsonl", "\n"),
    "jsonl_not_ascii": ("jsonl", "\u00a0\n"),
    "csv": ("csv", "\n"),
    "csv_crlf": ("csv", "\r\n"),
}


def summary_without_sources(out: Path) -> dict:
    """``summary.json`` under ``out``, each ``source`` dropped and cut out of
    the failure messages."""
    summary = strict_json(out / "summary.json")
    for entry in summary["sessions"]:
        del entry["source"]
    summary["failures"] = [failure["error"].replace(failure["source"], "<source>")
                           for failure in summary["failures"]]
    return summary


@settings(max_examples=30, deadline=None)
@given(cohort=cohorts())
def test_analyze_gives_one_tree_for_every_session_file_format(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        codes, trees, summaries = {}, {}, {}
        for name, (fmt, line_end) in WRITTEN_AS.items():
            paths = write_cohort([(s, fmt, labeled) for s, _, labeled in cohort], root / name)
            for path in paths.values():
                path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
            out = root / name / "out"
            codes[name] = main(["analyze", str(root / name / "sessions"), "--out", str(out),
                                "--jobs", "1"])
            trees[name] = {p.relative_to(out): p.read_bytes()
                           for p in files_under(out) if p.name != "summary.json"}
            summaries[name] = summary_without_sources(out)
        assert len(set(codes.values())) == 1, codes
        for name in WRITTEN_AS:
            assert trees[name] == trees["jsonl"], name
            assert summaries[name] == summaries["jsonl"], name
