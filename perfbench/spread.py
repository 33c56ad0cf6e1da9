"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py --workloads cohort many_units --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median of the
per-seed values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  With ``--json FILE`` it also
writes every run's values there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.setdefault(workload, []).append(
                {"seed": seed, "correct": result["correct"], "failed": result["failed"], **values})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    for workload, rows in runs.items():
        print(f"\n{workload}: {len(rows)} runs")
        for name in rows[0]:
            if name in ("seed", "correct", "failed") or len(rows) < 2:
                continue
            values = [r[name] for r in rows]
            print(f"  {name:28s} median {statistics.median(values):12.6g}  "
                  f"IQR/median {spread(values):.4f}  bound {bounds[name]}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
