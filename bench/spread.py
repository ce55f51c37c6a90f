"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 1] [--json out.json]

For every workload and metric it prints the median of the per-run values, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  A spread above a third of the
bound is marked; one above the bound means the metric cannot judge a change.
It also prints the largest repeat speedup the runs' cache guard saw, and the
JSON holds it and the medians of the runs' unscaled wall_* figures.
Runs are sequential, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "runs": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summaries to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        infos = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / spec["command"][-1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: NOT correct\n{proc.stdout}", file=sys.stderr)
            runs.append(result)
            info = [line for line in proc.stdout.splitlines() if line.startswith("# {")]
            infos.append(json.loads(info[-1][2:]))
        names = list(runs[0]["metrics"])
        report[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names
        }
        for name in names:
            s = report[workload][name]
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = ("OVER BOUND" if s["spread"] > bound
                        else "over bound/3" if s["spread"] > bound / 3 else "ok")
            print(f"{workload:16s} {name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}  {mark}", flush=True)
        speedup = max(info["repeat_speedup"] for info in infos)
        report[workload]["repeat_speedup_max"] = speedup
        report[workload]["wall_medians"] = {
            key: statistics.median(info[key] for info in infos)
            for key in infos[0] if key.startswith("wall_") and not key.endswith("samples_s")
        }
        print(f"{workload:16s} repeat_speedup (cache guard) max {speedup:.3f}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
