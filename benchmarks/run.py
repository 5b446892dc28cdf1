"""sylvshift benchmark driver (standard library only).

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's own `src/`. Workloads (each pass a fresh single-threaded child
process, verification suites with --jobs 1):

  std-components       standard class at n=7 (429 vertices, 5138 edges,
                       diameter 6): component + diameter, then seeded
                       distance queries. `graph` does almost all the work.
  multiset-components  evaluation (2,1,2,1,2) at rank 5 (136 vertices, 2369
                       edges, diameter 3): the same calls on repeated labels
                       and denser neighbor sets.
  paths                seeded pairs of standard trees at n=32, shift_path
                       plus a full verify() each, as `sylvshift path --check`.
                       `pathsynth` and long-word insertion dominate.
  verify-all           the ten verification suites through `cli.main` at
                       their default depths: thousands of tiny calls, and the
                       only workload that runs `monoid`, `verify` and `cli`.

The component builds and verify-all are exhaustive; the seed drives only the
paths pairs and the distance samples.

Every pass of a run is a fresh child process that draws the same inputs
from the seed and runs the same operations, so each pass starts as cold as
one `sylvshift` command does; the pass count is fixed per workload by
--seconds. --trace 0 prints the end-to-end metrics:

  setup_s         fresh interpreter until `import sylvshift` returns (the
                  program has no other lazy set-up), at the reference
                  speed of the pass that follows it; median of at least 20
                  starts made between the passes
  wall_ref_s      wall seconds of a pass at the reference machine speed
                  (below), median over the passes
  cpu_ref_s       user + system CPU seconds (process and children) of a
                  pass at the reference speed, median over the passes
  peak_rss_mb     the largest ru_maxrss of the pass processes, less the
                  speed probe's tables
  op_p50_ref_ms   median latency of one operation at the reference speed:
                  a distance query, a certified path (`path --check`), or
                  one verification suite; each operation counts with its
                  median over the passes
  op_tail_ref_ms  the highest percentile of those latencies with at least
                  ten operations above it (the maximum when there are fewer)

Reference speed. Other tenants of a shared machine slow a pass by up to
half, for seconds or minutes at a time, and a run of 20 seconds cannot
wait them out. So every pass carries a speed probe (workload.SpeedProbe):
every 20 ms a timer signal runs a fixed sub-millisecond pure-Python task
that uses no sylvshift code, on the same core between two bytecodes of
the program. The probes' time is taken out of every figure, and each
interval's time is scaled by how much slower than PROBE_REF_S the probes
in that interval ran, which is the time the same work takes on a machine
running at the reference speed. The raw wall and CPU seconds of every
pass stay in the run record. Failed operations are counted in `failed`,
with their replayable inputs and the error rate in the run record; passes
that give different answers count as one more failure.

--trace 1 runs one untraced and two traced passes,
checks that the two traced runs count exactly the same work and that all
three give the same answers, and prints the per-layer metrics plus
trace_overhead_s (traced minus untraced pass wall time).

Metric names and units come from BENCHMARK.json. The last line of stdout
is the result JSON; the line before it is the run record (machine, seed,
passes, sample counts, failures, all layer figures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Counts must repeat exactly between the two traced passes; seconds are
# averaged over them. A layer that does not run reads 0.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Seconds one cold pass takes on the seed code on a quiet 2-core Xeon with
# Python 3.11.
# The pass count is derived from --seconds alone, so both sides of a
# comparison repeat the same work whatever their speed.
PASS_SECONDS = {
    "std-components": 1.6,
    "multiset-components": 1.7,
    "paths": 3.3,
    "verify-all": 6.5,
}
SEED_DRIVES = {
    "std-components": "the distance-query sample; the class build is exhaustive",
    "multiset-components": "the distance-query sample; the class build is exhaustive",
    "paths": "every pair of trees",
    "verify-all": "nothing; every suite is exhaustive",
}
SETUP_STARTS = 20
STARTED = time.monotonic()
RUN_BUDGET_S = 170  # for the whole run; a child still running then is killed


class BenchError(Exception):
    """The benchmark could not produce a result (no program, or a child crashed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def check_module(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"imported sylvshift from {path}, not from {SRC}")


def measure_setup(starts: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import sylvshift` returns."""
    code = "import time, sylvshift; print(time.monotonic(), sylvshift.__file__)"
    samples = []
    for _ in range(starts):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        stamp, path = proc.stdout.split(maxsplit=1)
        check_module(path.strip())
        samples.append(float(stamp) - t0)
    return samples


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """One pass in a fresh child process."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    timeout = max(1.0, RUN_BUDGET_S - (time.monotonic() - STARTED))
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"workload child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    check_module(out["module"])
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above
    it; the maximum when there are too few samples for one."""
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model,
            "loadavg_at_start": list(os.getloadavg())}


def end_to_end(args, passes: int, record: dict) -> tuple[dict, list]:
    setup, setup_ref, runs = [], [], []
    for _ in range(passes):
        # Starts are spread over the run, like passes, so that a few seconds of
        # a slowed machine do not decide their median. Each is scaled to the
        # reference speed by the probes of the pass that follows it.
        starts = measure_setup(-(-SETUP_STARTS // passes))
        t0 = time.monotonic()
        runs.append(run_child(args.workload, args.seed, trace=False))
        setup += starts
        setup_ref += [s * runs[-1]["wall_ref_s"] / runs[-1]["wall_s"] for s in starts]
        # Start no pass that would overrun the whole run's budget.
        if time.monotonic() - STARTED + 1.5 * (time.monotonic() - t0) > RUN_BUDGET_S:
            break
    op_ms: dict[str, list[float]] = {}
    for res in runs:
        for key, ms in res["op_ref_ms"].items():
            op_ms.setdefault(key, []).append(ms)
    mid_ms = [statistics.median(samples) for samples in op_ms.values()]
    tail_ms, tail_pct = tail(mid_ms)
    record.update(setup_samples_s=setup, passes_run=len(runs),
                  **{f"pass_{k}": [r[k] for r in runs]
                     for k in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "probes")},
                  ops=len(mid_ms), op_tail_percentile=tail_pct, answers=runs[0]["answers"])
    values = {
        "setup_s": statistics.median(setup_ref),
        "wall_ref_s": statistics.median(r["wall_ref_s"] for r in runs),
        "cpu_ref_s": statistics.median(r["cpu_ref_s"] for r in runs),
        "peak_rss_mb": max(r["max_rss_kb"] for r in runs) / 1024,
        "op_p50_ref_ms": statistics.median(mid_ms),
        "op_tail_ref_ms": tail_ms,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, runs


def _is_time(key: str) -> bool:
    return key.endswith((".s", "_s"))


def per_layer(args, record: dict) -> tuple[dict, list]:
    plain = run_child(args.workload, args.seed, trace=False)
    traced = [run_child(args.workload, args.seed, trace=True) for _ in range(2)]
    a, b = (t["layers"] for t in traced)
    count_keys = sorted(k for k in set(a) | set(b) if not _is_time(k))
    unequal = [k for k in count_keys if a.get(k) != b.get(k)]
    if unequal:
        raise BenchError(f"traced runs counted different work: {unequal}")
    if len({r["answers"] for r in [plain] + traced}) != 1:
        raise BenchError("traced and untraced runs gave different answers")

    def secs(key):
        return (a.get(key, 0.0) + b.get(key, 0.0)) / 2

    steps = a.get("pathsynth.steps", 0)
    candidates = a.get("graph.neighbors.candidates", 0)
    layers = {k: v for k, v in a.items() if not _is_time(k)}
    layers.update({k: secs(k) for k in set(a) | set(b) if _is_time(k)})
    layers["graph.neighbors.useful_ratio"] = (
        a.get("graph.neighbors.distinct", 0) / candidates if candidates else 0.0)
    layers["pathsynth.verify_step_invariants.calls_per_step"] = (
        a.get("pathsynth.verify_step_invariants.calls", 0) / steps if steps else 0.0)
    traced_wall = statistics.mean(t["wall_s"] for t in traced)
    layers["trace_overhead_s"] = traced_wall - plain["wall_s"]
    record.update(untraced_wall_s=plain["wall_s"], traced_wall_s=traced_wall,
                  answers=plain["answers"], layers=dict(sorted(layers.items())))
    metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    return metrics, [plain] + traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="sylvshift benchmark driver")
    ap.add_argument("--workload", choices=sorted(PASS_SECONDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sylvshift" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'sylvshift'}", file=sys.stderr)
        return 2
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_drives": SEED_DRIVES[args.workload],
        "passes_planned": passes,
        "process": "one fresh single-threaded child per pass, suites with --jobs 1",
        "machine": machine(),
    }
    try:
        if args.trace:
            metrics, runs = per_layer(args, record)
        else:
            metrics, runs = end_to_end(args, passes, record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    if len({r["answers"] for r in runs}) != 1:
        failures.append({"input": f"{args.workload} seed {args.seed}",
                         "why": "passes gave different answers"})
    record.update(attempted=attempted, failed=len(failures),
                  error_rate=len(failures) / attempted if attempted else 1.0,
                  failures=failures[:50])
    for f in failures[:10]:
        print(f"FAILED {f['input']}: {f['why']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": attempted > 0 and not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
