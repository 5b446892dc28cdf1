"""Run one command in a child process and check its exit code, its exact
stdout and its peak resident set size.

    python .github/peak_rss.py --max-mb 60 --stdout $'8  (123456789 .. 876543219)\\n' \\
        -- python -m sylvshift diameter --standard -n 9

Prints the child's stdout (its first 1000 characters) and stderr, then
its exit code and peak RSS; exits 1 when a check fails.
"""

import argparse
import resource
import subprocess
import sys


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    p.add_argument("--max-mb", type=float, required=True, help="limit on the child's peak RSS")
    p.add_argument("--exit", type=int, default=0, help="the exit code expected (default 0)")
    p.add_argument("--stdout", required=True, help="the exact stdout expected")
    p.add_argument("cmd", nargs="+", help="the command, after --")
    args = p.parse_args()
    run = subprocess.run(args.cmd, capture_output=True, text=True)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(run.stdout[:1000] + run.stderr, end="")
    print(f"exit {run.returncode}, peak RSS {rss_mb:.1f} MB")
    failures = []
    if run.returncode != args.exit:
        failures.append(f"exit {run.returncode}, expected {args.exit}")
    if run.stdout != args.stdout:
        failures.append(f"stdout {run.stdout[:200]!r}, expected {args.stdout!r}")
    if rss_mb >= args.max_mb:
        failures.append(f"peak RSS {rss_mb:.1f} MB, limit {args.max_mb:g} MB")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
