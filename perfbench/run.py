"""End-to-end benchmark of the opgaze command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cohort --seed 7 --seconds 36 --trace 0

The run generates the workload's cohort from ``--seed`` with
``opgaze.synth`` (untimed), then runs the real CLI as child processes, the
way a user runs it: ``analyze``, then ``compare`` and ``correlate`` on its
output, repeated and interleaved until ``--seconds`` are spent.  Every
repeat's outputs are checked.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced ``analyze`` runs with runs under
``tracer.py`` and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program comes from ``src/`` of the checkout; the run writes only under
``.perfbench_work/`` there and removes what it wrote.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 11
# Repeats measured even when they overrun --seconds, so a median exists.
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
# While a child runs, the benchmark times two fixed probes on each core the
# child is pinned to, once every PROBE_EVERY_S: a pure-Python loop and a
# numpy sort of a 256 KiB array.  On a shared host a core's speed drifts by
# up to 2x over minutes, and the geometric mean of the two probes' median
# times follows the child's time (see README.md).  Timed metrics are given
# at a core speed on which that mean is PROBE_REF_S.
PROBE_EVERY_S = 0.02
PROBE_LOOPS = 5_000
PROBE_ARRAY = np.random.default_rng(0).random(32_768)
PROBE_REF_S = 0.0004
SETUP_CODE = (
    "import sys\n"
    "from opgaze.cli import find_session_files, load_config\n"
    "load_config(None)\n"
    "find_session_files(sys.argv[1:])\n"
)


@dataclasses.dataclass(frozen=True)
class Child:
    """One finished child process, with its rusage from ``os.wait4`` and
    the speed of the cores it ran on."""

    argv: tuple[str, ...]
    exit: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path
    probe_s: float
    """Probe time on the child's cores while it ran: the geometric mean of
    the two probes' medians."""
    probe_busy_s: float
    """Time the probe took from each of the child's cores."""

    @property
    def scaled_s(self) -> float:
        """Wall time without the probe's share, at the reference core speed."""
        return (self.wall_s - self.probe_busy_s) * PROBE_REF_S / self.probe_s


def _python_probe() -> int:
    total = 0
    for i in range(PROBE_LOOPS):
        total += (i * 7) % 13
    return total


def _numpy_probe() -> None:
    np.sort(PROBE_ARRAY)


def _probe(cpus: list[int], samples: tuple[list[float], list[float]]) -> float:
    """Time both probes on each of ``cpus``; return the time spent."""
    start = time.perf_counter()
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        for probe, times in zip((_python_probe, _numpy_probe), samples):
            t = time.perf_counter()
            probe()
            times.append(time.perf_counter() - t)
    return time.perf_counter() - start


def spawn(argv: list[str], log: Path, cpus: list[int]) -> Child:
    """Run ``argv`` from the checkout root with ``src`` on the path, pinned
    to ``cpus``, probing their speed until it exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    home = os.sched_getaffinity(0)
    samples: tuple[list[float], list[float]] = ([], [])
    busy = 0.0
    with log.open("wb") as fh:
        os.sched_setaffinity(0, cpus)  # inherited by the child
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                pidfd = os.pidfd_open(proc.pid)
                exited = select.poll()
                exited.register(pidfd, select.POLLIN)
                while True:
                    busy += _probe(cpus, samples)
                    if exited.poll(PROBE_EVERY_S * 1000):
                        break
                    if time.perf_counter() - start > CHILD_TIMEOUT_S:
                        proc.kill()
                wall_s = time.perf_counter() - start
                _, status, usage = os.wait4(proc.pid, 0)
                os.close(pidfd)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        finally:
            os.sched_setaffinity(0, home)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(tuple(argv), proc.returncode, wall_s,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log,
                 statistics.geometric_mean(map(statistics.median, samples)), busy / len(cpus))


def cli(*args: object) -> list[str]:
    return [sys.executable, "-m", "opgaze.cli", *map(str, args)]


def traced_cli(spans: Path, *args: object) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *map(str, args)]


class Ledger:
    """Operations attempted and the ones that failed, with a reason each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def ran(self, child: Child) -> bool:
        if child.exit == 0:
            return self.check(True, "")
        tail = child.log.read_text(errors="replace").splitlines()[-5:]
        return self.check(False, f"exit {child.exit}: {' '.join(child.argv[1:])}\n  "
                          + "\n  ".join(tail))


def _tree_digest(h: "hashlib._Hash", directory: Path, root_text: bytes) -> None:
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        # summary.json names its inputs by absolute path; drop the run's root
        h.update(path.read_bytes().replace(root_text, b"<inputs>") + b"\0")


class Bench:
    """Runs one workload's commands and checks their outputs."""

    def __init__(self, workload: "workloads.Workload", inputs: "workloads.Inputs",
                 work: Path, ledger: Ledger) -> None:
        self.inputs = inputs
        self.work = work
        self.ledger = ledger
        cpus = sorted(os.sched_getaffinity(0))
        self.jobs = min(workload.jobs, len(cpus))
        # an --jobs N child gets N cores; every other child gets one
        self.cpus = {n: cpus[:n] for n in (1, self.jobs)}
        self.logs = work / "logs"
        self.logs.mkdir()
        self._root_text = str(inputs.root.resolve()).encode()
        self._spawned = 0

    def run(self, argv: list[str], tag: str, jobs: int = 1) -> Child:
        self._spawned += 1
        child = spawn(argv, self.logs / f"{self._spawned:04d}-{tag}.log", self.cpus[jobs])
        self.ledger.ran(child)
        return child

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def digest(self, *dirs: Path) -> str:
        h = hashlib.sha256()
        for d in dirs:
            _tree_digest(h, d, self._root_text)
        return h.hexdigest()

    # --- commands ---

    def analyze(self, out: Path, jobs: int, spans: Path | None = None) -> Child:
        args = ("analyze", self.inputs.sessions_dir, "--out", out, "--jobs", jobs)
        argv = traced_cli(spans, *args) if spans else cli(*args)
        return self.run(argv, "analyze", jobs)

    def studies(self, features: Path, cmp: Path, cor: Path,
                spans: tuple[Path, Path] | None = None) -> tuple[Child, Child]:
        runs = []
        for i, (cmd, extra, out) in enumerate((("compare", self.inputs.pairs, cmp),
                                               ("correlate", self.inputs.ratings, cor))):
            args = (cmd, features, extra, "--out", out)
            runs.append(self.run(traced_cli(spans[i], *args) if spans else cli(*args), cmd))
        return runs[0], runs[1]

    def setup_s(self) -> list[Child]:
        """Fresh interpreters that import the CLI and discover the
        workload's session files; the first run warms caches."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.inputs.sessions_dir)]
        runs = [self.run(argv, "setup") for _ in range(SETUP_REPEATS + 1)]
        return runs[1:]

    # --- output checks ---

    def check_analyze(self, out: Path) -> None:
        check = self.ledger.check
        try:
            summary = json.loads((out / "summary.json").read_text())
            with (out / "features.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (OSError, ValueError) as exc:
            check(False, f"{out.name}: unreadable outputs: {exc}")
            return
        units = {s["id"]: s["n_units"] for s in summary["sessions"]}
        for sid, planned in sorted(self.inputs.planned_units.items()):
            if check(sid in units, f"{out.name}: session {sid} failed"):
                check(units[sid] == planned,
                      f"{out.name}: session {sid} has {units[sid]} units, planned {planned}")
        no_hotspot = sum(1 for r in rows if not r["hotspot_id"])
        check(len(rows) == self.inputs.n_units and no_hotspot == 0,
              f"{out.name}: {len(rows)} feature rows, {no_hotspot} without a hotspot")

    def check_studies(self, cmp: Path, cor: Path) -> None:
        check = self.ledger.check
        try:
            comparison = json.loads((cmp / "comparison_plot.json").read_text())
            correlation = json.loads((cor / "correlation_plot.json").read_text())
        except (OSError, ValueError) as exc:
            check(False, f"unreadable study outputs: {exc}")
            return
        check(comparison["n_pairs_total"] == self.inputs.n_pairs,
              f"comparison n_pairs_total {comparison['n_pairs_total']} != {self.inputs.n_pairs}")
        check(correlation["step_ids"] == list(self.inputs.step_ids),
              "correlation_plot.json does not list every step")

    def check_digest(self, name: str, digest: str, expected: dict) -> None:
        first = expected.setdefault(name, digest)
        self.ledger.check(digest == first, f"{name} digest changed: {digest} != {first}")

    def check_jobs(self, digests: dict) -> str:
        """On a --jobs N workload, one untimed --jobs 1 run must give the
        same analyze outputs."""
        if self.jobs == 1:
            return "--jobs 1 only: no pool comparison"
        out = self.fresh("analyze_jobs1")
        self.analyze(out, 1)
        digest = self.digest(out)
        self.ledger.check(digest == digests["analyze"],
                          f"--jobs 1 digest {digest} != --jobs {self.jobs} {digests['analyze']}")
        return f"--jobs 1 analyze digest {digest}"

    # --- measured loops ---

    def repeat(self, seconds: float, once) -> int:
        """Call ``once`` while at least half a repeat of median length still
        fits in ``seconds``; return the number of repeats."""
        deadline = time.perf_counter() + seconds
        lengths: list[float] = []
        while True:
            start = time.perf_counter()
            once()
            lengths.append(time.perf_counter() - start)
            if (len(lengths) >= MIN_REPEATS
                    and time.perf_counter() + statistics.median(lengths) / 2 > deadline):
                return len(lengths)

    def end_to_end(self, seconds: float) -> tuple[dict, list[str]]:
        setup = self.setup_s()
        analyze: list[Child] = []
        studies: list[tuple[Child, Child]] = []
        digests: dict[str, str] = {}

        def once() -> None:
            out = self.fresh("analyze")
            analyze.append(self.analyze(out, self.jobs))
            self.check_analyze(out)
            self.check_digest("analyze", self.digest(out), digests)
            cmp, cor = self.fresh("compare"), self.fresh("correlate")
            studies.append(self.studies(out, cmp, cor))
            self.check_studies(cmp, cor)
            self.check_digest("studies", self.digest(cmp, cor), digests)

        n = self.repeat(seconds, once)
        jobs_note = self.check_jobs(digests)
        analyze_times = [c.scaled_s for c in analyze]
        analyze_s = statistics.median(analyze_times)
        study_s = [c.scaled_s + r.scaled_s for c, r in studies]
        notes = [
            f"setup_s    median of {len(setup)} fresh interpreters: " + times_note(setup),
            f"analyze_s  {n} runs at --jobs {self.jobs} on cores {self.cpus[self.jobs]}, "
            "interleaved with compare + correlate: " + times_note(analyze),
            f"analyze_s  {tail_note(analyze_times)}",
            "study_s    compare + correlate: " + ", ".join(f"{t:.3f}" for t in study_s)
            + "; wall " + ", ".join(f"{c.wall_s + r.wall_s:.3f}" for c, r in studies),
            f"digest     analyze {digests['analyze']} studies {digests['studies']}",
            jobs_note,
        ]
        values = {
            "setup_s": statistics.median(c.scaled_s for c in setup),
            "analyze_s": analyze_s,
            "frames_per_s": self.inputs.frames / analyze_s,
            "study_s": statistics.median(study_s),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in analyze),
            "ok_share": 1.0 - len(self.ledger.failures) / self.ledger.attempted,
        }
        return values, notes

    def per_layer(self, seconds: float) -> tuple[dict, list[str]]:
        untraced: list[Child] = []
        traced: list[Child] = []
        layers: list[dict[str, float]] = []
        digests: dict[str, str] = {}

        def once() -> None:
            out = self.fresh("analyze")
            untraced.append(self.analyze(out, self.jobs))
            self.check_analyze(out)
            self.check_digest("analyze", self.digest(out), digests)

            out, cmp, cor = (self.fresh("traced_analyze"), self.fresh("traced_compare"),
                             self.fresh("traced_correlate"))
            spans = [self.work / f"spans_{cmd}.json" for cmd in ("analyze", "compare", "correlate")]
            traced.append(self.analyze(out, self.jobs, spans=spans[0]))
            self.studies(out, cmp, cor, spans=(spans[1], spans[2]))
            self.check_analyze(out)
            self.check_studies(cmp, cor)
            self.check_digest("analyze", self.digest(out), digests)
            self.check_digest("studies", self.digest(cmp, cor), digests)
            try:
                loaded = [json.loads(p.read_text()) for p in spans]
            except (OSError, ValueError) as exc:
                self.ledger.check(False, f"unreadable spans: {exc}")
                return
            m = layer_metrics(*loaded, frames=self.inputs.frames,
                              input_bytes=self.inputs.input_bytes)
            m["cli.cpu_s"] = untraced[-1].cpu_s
            layers.append(m)

        n = self.repeat(seconds, once)
        jobs_note = self.check_jobs(digests)
        untraced_s = statistics.median(c.scaled_s for c in untraced)
        traced_s = statistics.median(c.scaled_s for c in traced)
        if not layers:
            raise RuntimeError("no traced repeat produced spans")
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = traced_s - untraced_s
        notes = [
            f"traced     {n} repeats at --jobs {self.jobs}: untraced analyze "
            + times_note(untraced) + "; traced " + times_note(traced),
            f"digest     analyze {digests.get('analyze')} studies {digests.get('studies')}",
            jobs_note,
        ]
        return values, notes


def times_note(children: list[Child]) -> str:
    """Each child's time at the reference core speed, then its wall time
    and probe loop time as measured."""
    return (", ".join(f"{c.scaled_s:.3f}" for c in children)
            + "; wall " + ", ".join(f"{c.wall_s:.3f}" for c in children)
            + "; probe ms " + ", ".join(f"{c.probe_s * 1e3:.3f}" for c in children))


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}: no percentile has ten samples beyond it; max {max(samples):.3f}"
    p = int(100 * (n - 10) / n)
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.3f} (n={n})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opgaze" / "cli.py").is_file():
        print(f"no opgaze sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        inputs = workloads.generate(workload, args.seed, work / "inputs")
        gen_s = time.perf_counter() - start
        ledger = Ledger()
        bench = Bench(workload, inputs, work, ledger)
        measure = bench.per_layer if args.trace else bench.end_to_end
        values, notes = measure(args.seconds)
        for failure in ledger.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"workload   {workload.name} seed {args.seed}: {workload.spec}, {workload.format}, "
          f"--jobs {bench.jobs}")
    print(f"inputs     {inputs.n_sessions} sessions, {inputs.frames} frames, "
          f"{inputs.touches} touches, {inputs.n_units} planned units, "
          f"{inputs.input_bytes} bytes; generated in {gen_s:.2f} s (not timed)")
    for line in notes:
        print(line)
    # names and units come from BENCHMARK.json; a missing value is an error
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"checks     {ledger.attempted} attempted, {len(ledger.failures)} failed")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
