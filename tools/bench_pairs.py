"""Compare two checkouts on the benchmark by alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE [--workload NAME ...] [--pairs N]
                                [--trace]

Before the first pair, PARENT and CHANGE are copied to fresh temporary
directories of equal path length, without `.git`, `__pycache__` or
`.perfbench-work`, so that neither side's runs depend on where its checkout
lives or on what earlier runs left in it; the copies are removed at the
end. Each pair runs `perfbench/run.py --trace 0` once in the PARENT copy and
once in the CHANGE copy, with the same seed (pair i uses seed i, from 1)
and the run length `run_seconds` of the CHANGE checkout's BENCHMARK.json. The
order alternates: even pairs run the parent first, odd pairs the change
first, so a drift in the machine's load falls on both sides. For each
workload it prints every end-to-end metric of BENCHMARK.json with the
parent's and the change's medians, the change's relative move, the number
of pairs in which the change was better, the interquartile range of the
parent's runs and a verdict: OVER BOUND, UNRESOLVED, GAIN or `-` (see
`summarize`). A run that exits nonzero, reports failed operations or a digest
mismatch is reported and stops the comparison.

Each run's `env:` line names the CPUs it could use (nproc), which the
workload header prints. The prover proves on two CPUs where it has them, so
a run on another CPU count measures another program: a run whose nproc
differs from the first run's stops the comparison.

With --trace the same pairs run `--trace 1` and compare the `per_layer`
metrics of BENCHMARK.json instead, such as protocol.verifier_s; a traced
run that misses one of its binding sites also stops the comparison. A
layer metric that one side does not report is left out.

Standard library only; run it from anywhere, each run starts in its own
copy.
"""

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

# what a copy leaves out: version control, bytecode and benchmark output
LEFT_OUT = shutil.ignore_patterns(".git", "__pycache__", ".perfbench-work")


def read_result(where, returncode, stdout, stderr, trace=False):
    """(nproc, metric values) of one run from its exit status and output:
    its `env:` line's CPU count, and its last line, the result object.
    Stops the comparison (SystemExit) naming `where` if the run failed or
    printed no CPU count."""
    lines = stdout.strip().splitlines()
    if returncode or not lines:
        raise SystemExit(f"{where} exited {returncode}\n{stderr}")
    result = json.loads(lines[-1])
    if result["failed"] or "digest_mismatches: []" not in lines:
        raise SystemExit(f"{where} failed {result['failed']} operations or "
                         "mismatched a digest")
    if trace and "sites_missing: []" not in lines:
        raise SystemExit(f"{where} missed a tracing site")
    found = [re.search(r"\bnproc (\d+)", line) for line in lines
             if line.startswith("env:")]
    if not (found and found[0]):
        raise SystemExit(f"{where} printed no nproc on an env: line")
    return (int(found[0].group(1)),
            {name: m["value"] for name, m in result["metrics"].items()})


def run_once(checkout, workload, seed, seconds, trace=False):
    """(nproc, metric values) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return read_result(f"{checkout}: {workload} seed {seed}", proc.returncode,
                       proc.stdout, proc.stderr, trace)


@contextlib.contextmanager
def fresh_copies(parent, change):
    """Copies of the two checkouts, as `parent` and `change` under one new
    temporary directory, without LEFT_OUT; removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = []
        for side, checkout in (("parent", parent), ("change", change)):
            copy = os.path.join(tmp, side)
            shutil.copytree(checkout, copy, ignore=LEFT_OUT)
            copies.append(copy)
        yield copies


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(samples, metrics):
    """Per metric (name, better, bound or None) that both sides report in
    every run: (name, parent median, change median, relative move or None,
    pairs the change won, parent IQR, verdict). The verdict is the first
    of these that holds, or `-`:

    - OVER BOUND: the change median is worse than the parent's by more
      than bound times the parent's median;
    - UNRESOLVED: the parent's IQR exceeds bound times its median, so the
      spread hides a move of the bound, and not every run of the change
      reads better than every run of the parent;
    - GAIN: the change won at least 9 in 10 of the pairs (a tie counts for
      neither side), and its median is better than the parent's by more
      than the parent's IQR.

    A metric without a bound is never OVER BOUND or UNRESOLVED."""
    rows = []
    for name, better, bound in metrics:
        if not all(name in s for side in samples.values() for s in side):
            continue
        old = [s[name] for s in samples["parent"]]
        new = [s[name] for s in samples["change"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        move = (m_new - m_old) / m_old if m_old else None
        gap, spread = sign * (m_new - m_old), iqr(old)
        if bound is not None and gap < -bound * abs(m_old):
            verdict = "OVER BOUND"
        elif (bound is not None and spread > bound * abs(m_old)
              and not all(sign * (b - a) > 0 for a in old for b in new)):
            verdict = "UNRESOLVED"
        elif 10 * wins >= 9 * len(old) and gap > spread:
            verdict = "GAIN"
        else:
            verdict = "-"
        rows.append((name, m_old, m_new, move, wins, spread, verdict))
    return rows


def compare(parent, change, workload, pairs, seconds, metrics, trace=False):
    samples = {"parent": [], "change": []}
    first = None  # the first run's nproc
    for i in range(pairs):
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        for side, checkout in sides:
            nproc, values = run_once(checkout, workload, i + 1, seconds, trace)
            if first is None:
                first = nproc
            elif nproc != first:
                raise SystemExit(
                    f"{side}: {workload} seed {i + 1} ran with nproc {nproc}, "
                    f"the first run with nproc {first}")
            samples[side].append(values)
        print(f"  pair {i + 1}/{pairs} done", file=sys.stderr)
    mode = ", traced" if trace else ""
    print(f"{workload} ({pairs} pairs, {seconds:g} s{mode}, seeds 1..{pairs}),"
          f" nproc {first}")
    width = max([24] + [len(m[0]) + 2 for m in metrics])
    print(f"  {'metric':<{width}}{'parent':>14}{'change':>14}{'move':>9}"
          f"{'wins':>7}{'parent IQR':>13}  verdict")
    for name, m_old, m_new, move, wins, spread, mark in summarize(samples,
                                                                  metrics):
        move = "n/a" if move is None else f"{move:+.1%}"
        print(f"  {name:<{width}}{m_old:>14.6g}{m_new:>14.6g}{move:>9}"
              f"{wins:>4}/{pairs:<2}{spread:>13.4g}  {mark}")
    return samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", action="store_true",
                    help="run traced and compare the per-layer metrics")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    table = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = [(m["name"], m["better"], m.get("bound")) for m in table]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    with fresh_copies(args.parent, args.change) as (parent, change):
        for workload in workloads:
            compare(parent, change, workload, args.pairs,
                    bench["run_seconds"], metrics, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
