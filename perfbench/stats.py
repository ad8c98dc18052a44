"""Run the benchmark over several seeds and print median and quartiles.

    python3 perfbench/stats.py --workloads chain,ladder,sweep \
        --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30 [--trace 1]

Runs one process at a time from the repository root and prints, per
workload and metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, as a markdown table.  The raw result lines are appended to
``.perfbench_out/stats.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: str, trace: str) -> dict:
    """One run's result line; the unscaled wall figures of a timed run are
    added to its metrics as raw.solves_per_s and raw.solve_p50_s."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("raw wall:"):
            fields = line.split()
            for name, value, unit in zip(fields[2::3], fields[3::3], fields[4::3]):
                result["metrics"][f"raw.{name}"] = {"value": float(value),
                                                    "unit": unit.rstrip(",")}
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="chain,ladder,sweep")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    print("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds.split(","):
            res = run_once(workload, int(seed), args.seconds, args.trace)
            results.append(res)
            with open(out_dir / "stats.jsonl", "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": int(seed),
                                     "trace": int(args.trace), **res}) + "\n")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {workload} | {name} | {first['unit']} | {med:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {spread:.3f} |", flush=True)
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"| {workload} | failed/attempted | | {shares} | | | |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
