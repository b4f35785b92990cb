"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/prove.py --workloads loopy-lowrank,train-step \\
        --seeds 1-10 [--trace 0] [--seconds S] [--out FILE]

Runs `run.py` once per workload and seed, one run at a time, with the
run length from BENCHMARK.json unless --seconds is given. For each metric it
prints the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound. --out writes every run's result as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--split", default="tune")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"seconds": args.seconds, "trace": args.trace, "split": args.split,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--split", args.split]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[6:])
            result = json.loads(lines[-1])
            detail = json.loads((ROOT / ".bench_work" / f"result-{workload}-trace{args.trace}.json").read_text())
            runs.append({"seed": seed, "wall_s": wall, "env": env, "samples": detail["samples"], **result})
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) >= 2:
                stats[name] = {**spread(values), "bound": bounds.get(name), "values": values}
        record["workloads"][workload] = {"runs": runs, "stats": stats}
        for name, s in stats.items():
            if args.trace == 0 or s["median"]:
                print(f"  {name:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.4f} bound {s['bound']}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
