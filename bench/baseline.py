"""Run the benchmark over several seeds and write one BENCH_*.json record:
per workload and metric, every value with its median, quartiles and
spread (quartile distance over the median), plus one traced run per
workload for the per-layer numbers.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/BENCH_baseline.json

Runs one benchmark process at a time, from the checkout root, and stops at
the first run that fails or reports an incorrect output.  The record's
``notes`` start empty, for comments added by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACED_SEED = 1000


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout[-2000:]}")
    result["provenance"] = next(json.loads(line.split(": ", 1)[1]) for line in lines
                                if line.startswith("provenance: "))
    result["notes"] = [line[6:] for line in lines if line.startswith("note: ")]
    result["wall_s"] = wall_s
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    record = {"seconds": args.seconds, "seeds": args.seeds, "notes": [],
              "end_to_end": {}, "per_layer": {}, "runs": []}
    for wl in workloads.NAMES:
        results = []
        for seed in args.seeds:
            r = run_once(wl, seed, args.seconds, 0)
            record["runs"].append({"workload": wl, "seed": seed, "attempted": r["attempted"],
                                   "wall_s": r["wall_s"]})
            results.append(r)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        record["provenance"] = results[0]["provenance"]
        record["end_to_end"][wl] = {
            name: dict(summarize([r["metrics"][name]["value"] for r in results]),
                       unit=results[0]["metrics"][name]["unit"])
            for name in results[0]["metrics"]}
        traced = run_once(wl, TRACED_SEED, args.seconds, 1)
        record["per_layer"][wl] = {"notes": traced["notes"],
                                   "wall_s": traced["wall_s"], "metrics": traced["metrics"]}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, metrics in record["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{wl:<12} {name:<18} median {s['median']:<12.6g} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
