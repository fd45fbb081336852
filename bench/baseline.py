"""Repeat the benchmark over seeds and summarize every metric per workload.

    python3 bench/baseline.py --runs 10 --traced-runs 3 --out base.json
    python3 bench/baseline.py --runs 10 --out new.json --compare base.json

Each run is a separate ``bench/run.py`` process, one after the other,
over every workload of ``BENCHMARK.json`` with seeds 1, 2, ... and
``run_seconds`` from there.  The summary gives, per workload and metric,
the median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them), the sample count and the spread (q3 - q1) / median.  ``--compare``
prints a before/after table against an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
CONFIG = ROOT / "BENCHMARK.json"

#: seconds after which a run is stopped and the summary abandoned
RUN_TIMEOUT = 300


def run_once(workload, seed, seconds, trace):
    """Result object (last stdout line) and env record of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(x)["env"] for x in lines if x.startswith('{"env"')),
               None)
    return json.loads(lines[-1]), env


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def collect(workloads, seeds, seconds, trace):
    out = {}
    env = None
    for workload in workloads:
        values, correct, attempted, failed = {}, True, 0, 0
        for seed in seeds:
            result, env = run_once(workload, seed, seconds, trace)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} trace {trace}: correct "
                  f"{result['correct']}", file=sys.stderr, flush=True)
        out[workload] = {"correct": correct, "attempted": attempted,
                         "failed": failed,
                         "metrics": {name: summarize(v)
                                     for name, v in values.items()}}
    return out, env


def table(summary, section, before=None):
    lines = []
    for workload, record in summary[section].items():
        lines.append(f"{workload} (correct {record['correct']})")
        for name, s in record["metrics"].items():
            line = (f"  {name:<28}{s['median']:>14.6g}  "
                    f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
            old = (before or {}).get(section, {}).get(workload, {}) \
                .get("metrics", {}).get(name)
            if old is not None:
                change = (s["median"] / old["median"] - 1.0
                          if old["median"] else float("nan"))
                line += f"  before {old['median']:.6g} ({change:+.1%})"
            lines.append(line)
    return "\n".join(lines)


def main(argv=None):
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", help="earlier summary JSON")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in config["workloads"]]
    seeds = range(1, args.runs + 1)
    seconds = config["run_seconds"]
    summary = {"claim": None, "run_seconds": seconds}
    summary["end_to_end"], summary["env"] = collect(
        workloads, seeds, seconds, 0)
    if args.traced_runs:
        summary["per_layer"], _ = collect(
            workloads, range(1, args.traced_runs + 1), seconds, 1)
    before = (json.loads(Path(args.compare).read_text(encoding="utf-8"))
              if args.compare else None)
    for section in ("end_to_end", "per_layer"):
        if section in summary:
            print(table(summary, section, before))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
