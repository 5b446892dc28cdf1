"""Repeat benchmark runs over several seeds and summarize them.

    python3 benchmarks/record.py --seeds 1-10 [--trace-seed N] [--out FILE]
                                 [--against FILE]

For every workload of BENCHMARK.json it runs `run.py --trace 0` once per
seed, in sequence, for BENCHMARK.json's run_seconds, and reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, which is what
BENCHMARK.json's bounds are compared against; WIDE marks a spread of a
third of the bound or more). With --trace-seed it also
records one traced run per workload. --out writes the whole summary,
including every run's result and record, as JSON: the BENCH_*.json files
in this directory are such summaries. --against FILE compares each
median with the same metric's median in an earlier summary, as a share of
the earlier one, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--against", type=lambda p: json.loads(Path(p).read_text()))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {"seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0) for seed in args.seeds]
        entry: dict = {"correct": all(r["result"]["correct"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = {**stats, "bound": bound}
            print(f"{workload:20s} {name:12s} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}  (bound/3 {bound / 3:.4f})"
                  f"{'' if stats['spread'] < bound / 3 else '  WIDE'}",
                  flush=True)
        before = (args.against or {}).get("workloads", {}).get(workload)
        for name, bound in bounds.items() if before else ():
            old = before["metrics"][name]["median"]
            change = entry["metrics"][name]["median"] / old - 1
            print(f"{workload:20s} {name:12s} median {change:+.4f} against the earlier "
                  f"{old:.6g}  (bound {bound})", flush=True)
        if args.trace_seed is not None:
            entry["traced"] = run(workload, args.trace_seed, 1)
        entry["runs"] = runs
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
