#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9]

Runs the benchmark once per seed, one run at a time, for the run_seconds
of BENCHMARK.json, and prints for each
end-to-end metric its median, its quartile spread (Q3 - Q1) / median and
the bound of BENCHMARK.json; a spread should stay below a third of the
bound.  The raw result lines go to ``.bench_out/spread-NAME.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    results = []
    with open(out_dir / f"spread-{args.workload}.jsonl", "w") as log:
        for seed in args.seeds:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds", seconds,
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=600, check=True)
            lines = done.stdout.strip().splitlines()
            log.write(lines[-1] + "\n")
            res = json.loads(lines[-1])
            results.append(res)
            print(f"seed {seed} ({time.perf_counter() - start:.0f} s): "
                  f"correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in res["metrics"].items()), flush=True)
            if not res["correct"]:
                print("\n".join(l for l in lines if "problem:" in l))
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{metric['name']:12s} median {statistics.median(values):12.6g} "
              f"spread {spread:.4f} bound {metric['bound']}{flag}")


if __name__ == "__main__":
    main()
