"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] [--seeds 1-10] [--json FILE]

Runs are sequential, each in a fresh process with ``--trace 0``, with
the run length from BENCHMARK.json.  With several workloads the runs go
seed by seed through all of them, so that a slow spell of a shared host
is spread over the workloads instead of falling on one.  For every
end-to-end metric it prints the median and the distance between the
first and third quartiles (``statistics.quantiles(n=4)``) as a share of
the median, and marks a spread wider than the metric's bound or than a
third of it.  ``--json`` writes the per-run results and the summaries,
as recorded in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, action="append", help="repeat to interleave workloads")
    p.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    p.add_argument("--json", help="write runs and summaries to this file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w: [] for w in args.workload}
    for seed in parse_seeds(args.seeds):
        for workload in args.workload:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result")
                return 1
            result = json.loads(lines[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append(
                {"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}, "metrics": values}
            )
            shown = " ".join(f"{k}={v:.4g}" for k, v in values.items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed {shown}", flush=True)

    out = {}
    for workload, wruns in runs.items():
        print(f"== {workload}")
        summary = {}
        for name in wruns[0]["metrics"]:
            vals = [r["metrics"][name] for r in wruns]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            note = ""
            if spread > bounds[name]:
                note = f"  WIDER THAN BOUND {bounds[name]}"
            elif spread > bounds[name] / 3:
                note = f"  (above a third of bound {bounds[name]})"
            print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{note}")
        out[workload] = {"runs": wruns, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1))
    return 0 if all(r["correct"] for wruns in runs.values() for r in wruns) else 1


if __name__ == "__main__":
    sys.exit(main())
