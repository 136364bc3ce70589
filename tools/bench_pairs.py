"""Compare two checkouts on the benchmark by alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE [--workload NAME ...] [--pairs N]

Each pair runs `perfbench/run.py --trace 0` once in the PARENT checkout and
once in the CHANGE checkout, with the same seed (pair i uses seed i, from 1)
and the run length `run_seconds` of the CHANGE checkout's BENCHMARK.json. The
order alternates: even pairs run the parent first, odd pairs the change
first, so a drift in the machine's load falls on both sides. For each
workload it prints every end-to-end metric of BENCHMARK.json with the
parent's and the change's medians, the change's relative move, the number
of pairs in which the change was better, and the interquartile range of the
parent's runs. A run that exits nonzero, reports failed operations or a
digest mismatch is reported and stops the comparison.

Standard library only; run it from anywhere, each run starts in its own
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The result object (last output line) of one untraced run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if result["failed"] or "digest_mismatches: []" not in lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"{result['failed']} operations or mismatched a digest")
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(parent, change, workload, pairs, seconds, metrics):
    samples = {"parent": [], "change": []}
    for i in range(pairs):
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        for side, checkout in sides:
            samples[side].append(run_once(checkout, workload, i + 1, seconds))
        print(f"  pair {i + 1}/{pairs} done", file=sys.stderr)
    print(f"{workload} ({pairs} pairs, {seconds:g} s, seeds 1..{pairs})")
    print(f"  {'metric':<24}{'parent':>14}{'change':>14}{'move':>9}"
          f"{'wins':>7}{'parent IQR':>13}")
    for name, better in metrics:
        old = [s[name] for s in samples["parent"]]
        new = [s[name] for s in samples["change"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        move = f"{(m_new - m_old) / m_old:+.1%}" if m_old else "n/a"
        print(f"  {name:<24}{m_old:>14.6g}{m_new:>14.6g}{move:>9}"
              f"{wins:>4}/{pairs:<2}{iqr(old):>13.4g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        compare(args.parent, args.change, workload, args.pairs,
                bench["run_seconds"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
