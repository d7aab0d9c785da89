"""Run-to-run spread of the end-to-end benchmark.

    python3 benchmarks/e2e/spread.py --workload campaign-dense --runs 10 \\
        --out benchmarks/e2e/SPREAD_<sha>.json

Runs ``run.py`` *runs* times, each with another seed (``--seed-base``,
``--seed-base + 1``, ...), and prints per metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the
interquartile range as a share of the median, and max/min - 1.  A bound
in ``BENCHMARK.json`` should sit at three times the IQR share or more;
when a metric spreads more than that, lengthen or reshape the run rather
than widen the bound.  ``--out`` appends the set (every run's JSON line
and the summary) to a JSON file and prints how far each median moved
from the file's earlier sets of the same workload, as a share of the
earlier median; two sets agree when every shift is within the metric's
bound.  ``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload: str, seed: int, seconds: float) -> Dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(runs: List[Dict]) -> Dict[str, Dict[str, float]]:
    names = sorted({name for run in runs for name in run["metrics"]})
    summary = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs
                  if run["metrics"].get(name, {}).get("value") is not None]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "max_min_spread": max(values) / min(values) - 1.0 if min(values) else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    runs = []
    for seed in range(args.seed_base, args.seed_base + args.runs):
        try:
            result = bench_run(args.workload, seed, args.seconds)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if v["value"] is not None), flush=True)

    summary = summarize(runs)
    print(f"{'metric':<30} {'median':>11} {'q1':>11} {'q3':>11} {'iqr%':>7} {'max/min%':>9}")
    for name, s in summary.items():
        print(f"{name:<30} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
              f"{100 * s['iqr_share']:>6.2f}% {100 * s['max_min_spread']:>8.2f}%")
    if args.out is not None:
        table = (json.loads(args.out.read_text(encoding="utf-8"))
                 if args.out.exists() else {"sets": []})
        bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
        for n, earlier in enumerate(table["sets"]):
            if earlier["workload"] != args.workload:
                continue
            for name, s in summary.items():
                before = earlier["summary"].get(name, {}).get("median")
                if before:
                    shift = s["median"] / before - 1.0
                    bound = (f" (bound {100 * bounds[name]:.0f}%)"
                             if name in bounds else "")
                    print(f"median shift vs set {n}: {name:<20} {100 * shift:+7.2f}%"
                          + bound)
        table["sets"].append({"workload": args.workload, "seconds": args.seconds,
                              "runs": runs, "summary": summary})
        args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
