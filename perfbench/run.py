"""Seeded benchmark for streamcert's certified runs.

Run from the repository root:

    python3 perfbench/run.py --workload fk-online --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation; times are
wall times scaled to a reference machine speed (see REFERENCE_LOOP_S):

  setup_s                 wall time of one fresh `python -m streamcert.cli`
                          process on the run's first stream (median over
                          several processes, run one at a time)
  peak_rss_mb             peak resident memory of those processes (median)
  run_s                   median wall time of a warm harness.run_scheme call
  verifier_updates_per_s  stream updates / verifier pass time, median
  hcost_bits, vcost_words the program's own costs, median over the fixed
                          digest streams (the same for every --seed)

--trace 1 reports the per-layer metrics from a run with instrumentation at
the package's binding sites (see tracing.py), interleaved with untraced runs
of the same streams so that the tracing overhead is measured too. A layer
that the workload does not exercise reads 0.

Every honest answer is checked against a brute-force oracle, the cold CLI's
answer and costs against the in-process run, and each tampering prover in
the workload's list must not be accepted with a wrong value. A wrong
accepted value, or a CLI disagreement, ends the run with `"correct": false`
and exit status 1. The last line of standard output is the result object;
spans, the behaviour digest and the full detail go to .perfbench-work/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIGEST = os.path.join(HERE, "reference_digest.json")

# set-up processes per run: at least SETUP_REPEATS, and more while their
# wall times add up to less than SETUP_MIN_S, so short set-ups get more samples
SETUP_REPEATS = 3
SETUP_MIN_S = 6.0
CHILD_TIMEOUT_S = 60
# Streams whose digest sets hcost_bits and vcost_words: fixed, and disjoint
# from any run seed the driver passes, so the costs of two commits compare
# exactly.
DIGEST_SEEDS = (-1, -2, -3)
MIN_SAMPLES = 3

# Timings are reported at a fixed reference machine speed. A fixed
# pure-Python loop is timed before and after every timed sample, and the
# sample is scaled by REFERENCE_LOOP_S / (the mean of those two loop times).
# On a shared 2-core VM the host changes the speed of the same code by up to
# 2x for minutes at a time; the scaling cancels that drift, while a change to
# the package still shows in full because the loop does not touch the
# package. REFERENCE_LOOP_S is the loop's typical time on a 2-core x86-64 VM
# under Python 3.11. Raw wall times are kept in the detail output.
REFERENCE_ITERS = 400_000
REFERENCE_LOOP_S = 0.15

ANNOTATION_KINDS = ("hash", "mi-hashes", "collision-list", "mi-stages",
                    "mi-stage-proof", "main-injection-proof", "main-proof",
                    "hh-records", "hh-openings")

perf = time.perf_counter


class WrongAnswer(Exception):
    """An accepted value differs from the oracle, or the CLI disagrees."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment():
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": list(os.getloadavg())}


def reference_loop():
    """Seconds taken by a fixed mix of 61-bit modular arithmetic and dict
    updates, the operations the package's hot paths are made of."""
    t0 = perf()
    q = (1 << 61) - 1
    acc = {}
    x = 1
    for i in range(REFERENCE_ITERS):
        x = (x * 1103515245 + i) % q
        acc[i & 1023] = acc.get(i & 1023, 0) + x
    return perf() - t0


def at_reference_speed(seconds, loops):
    """seconds[i] scaled by the loops timed just before (loops[i]) and just
    after (loops[i + 1]) it; None stays None."""
    return [None if t is None else t * 2 * REFERENCE_LOOP_S / (a + b)
            for t, a, b in zip(seconds, loops, loops[1:])]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def plain(value):
    """JSON-comparable form of a scheme value."""
    return sorted(value) if isinstance(value, frozenset) else value


# ------------------------------------------------------------------ set-up


# Runs one command and reports its wall time and peak RSS. A child's
# ru_maxrss includes the resident size of the address space its exec
# replaced, which for a child spawned by the benchmark is the benchmark's
# own; so the command is forked from this small interpreter instead.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def cli_run(workload, path, pseed):
    """One fresh CLI process: (wall seconds, peak RSS MB, parsed JSON)."""
    cmd = [sys.executable, "-m", "streamcert.cli", *workload.cli_args,
           "--input", path, "--seed", str(pseed)]
    env = dict(os.environ, PYTHONPATH=SRC)
    out_path = os.path.join(WORK, "cli.out")
    report_path = os.path.join(WORK, "cli.report")
    with open(out_path, "w", encoding="utf-8") as out, \
            open(os.path.join(WORK, "cli.err"), "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, report_path, *cmd],
                                stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    with open(report_path, encoding="utf-8") as fh:
        wall, maxrss_kb, code = fh.read().split()
    if int(code) not in (0, 2):
        raise RuntimeError(f"CLI exited with {code}: {' '.join(cmd)}")
    with open(out_path, encoding="utf-8") as fh:
        payload = json.loads(fh.read().strip().splitlines()[-1])
    return float(wall), int(maxrss_kb) / 1024.0, payload


# --------------------------------------------------------------- the runs


class Bench:
    def __init__(self, workload, capture):
        self.workload = workload
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.digest_mismatches = []

    def honest(self, pseed, updates, run=None):
        """One checked honest run: (wall seconds, RunResult or None)."""
        from streamcert.harness import run_scheme
        run = run or run_scheme
        cfg = self.workload.config(pseed)
        self.attempted += 1
        t0 = perf()
        try:
            result = run(cfg, updates)
        except Exception:  # a crash of an honest run is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return perf() - t0, None
        dt = perf() - t0
        if result.rejected:
            self.failed += 1
            return dt, None
        want = self.workload.oracle(updates)
        if result.value != want:
            raise WrongAnswer(f"honest run seed={pseed} accepted {plain(result.value)!r},"
                              f" oracle {plain(want)!r}")
        self.record_digest(pseed, result)
        return dt, result

    def record_digest(self, pseed, result):
        d = {"accepted": result.accepted, "value": plain(result.value),
             "hcost_bits": result.cost.hcost_bits,
             "vcost_words": result.cost.vcost_words,
             "chunks": [list(c) for c in self.capture.chunks]}
        prev = self.digests.setdefault(str(pseed), d)
        if prev != d:
            self.digest_mismatches.append(f"seed {pseed}: repeat run differs")

    def adversaries(self, pseed, updates):
        from streamcert.harness import run_scheme
        want = self.workload.oracle(updates)
        outcomes = {}
        for strategy in self.workload.adversaries:
            result = run_scheme(self.workload.config(pseed, strategy), updates)
            if result.accepted and result.value != want:
                raise WrongAnswer(f"{strategy} accepted wrong value "
                                  f"{plain(result.value)!r}")
            outcomes[strategy] = ("accepted (correct value)" if result.accepted
                                  else "rejected")
        return outcomes


def setup_phase(bench, pseed, updates):
    from streamcert.streams import STRICT, write_stream
    from workloads import N
    path = os.path.join(WORK, f"{bench.workload.name}-stream.txt")
    write_stream(path, updates, N, STRICT)
    walls, loops, rss, payloads = [], [reference_loop()], [], []
    while len(walls) < SETUP_REPEATS or sum(walls) < SETUP_MIN_S:
        wall, mb, payload = cli_run(bench.workload, path, pseed)
        loops.append(reference_loop())
        walls.append(wall)
        rss.append(mb)
        payloads.append(payload)
    return walls, loops, rss, payloads


def check_cli(payloads, result):
    for p in payloads:
        got = (p.get("value"), p["hcost_bits"], p["vcost_words"])
        want = (plain(result.value), result.cost.hcost_bits, result.cost.vcost_words)
        if p["outcome"] != "value" or got != want:
            raise WrongAnswer(f"cold CLI gave {got!r}, in-process run {want!r}")


def timed_window(seconds, inputs, step):
    """Cycle over the inputs, calling step(pseed, updates), until `seconds`
    have passed and at least MIN_SAMPLES steps ran."""
    t_end = perf() + seconds
    i = 0
    while perf() < t_end or i < MIN_SAMPLES:
        pseed, updates = inputs[i % len(inputs)]
        step(i, pseed, updates)
        i += 1


def untraced(bench, args):
    from workloads import STREAMS_PER_RUN, run_inputs
    w = bench.workload
    pseed0, stream0 = run_inputs(w, args.seed, 1)[0]
    walls, setup_loops, rss, payloads = setup_phase(bench, pseed0, stream0)
    inputs = run_inputs(w, args.seed, STREAMS_PER_RUN)

    _, cold = bench.honest(pseed0, stream0)
    if cold is not None:
        check_cli(payloads, cold)
    fixed = []
    for s in DIGEST_SEEDS:
        pseed, updates = run_inputs(w, s, 1)[0]
        _, r = bench.honest(pseed, updates)
        if r is not None:
            fixed.append(r)
    adversary = bench.adversaries(pseed0, stream0)

    # run i is timed between loops[i] and loops[i + 1]; failed runs are None
    runs, verifier, n_updates, loops = [], [], [], [reference_loop()]

    def step(i, pseed, updates):
        dt, r = bench.honest(pseed, updates)
        loops.append(reference_loop())
        runs.append(None if r is None else dt)
        verifier.append(None if r is None else r.cost.wall_time)
        n_updates.append(len(updates))

    timed_window(args.seconds, inputs, step)
    rates = [u / t for u, t in zip(n_updates, at_reference_speed(verifier, loops))
             if t is not None]
    metrics = {
        "setup_s": (median(at_reference_speed(walls, setup_loops)), "s"),
        "run_s": (median([t for t in at_reference_speed(runs, loops)
                          if t is not None]), "s"),
        "verifier_updates_per_s": (median(rates), "1/s"),
        "hcost_bits": (median([r.cost.hcost_bits for r in fixed]), "bits"),
        "vcost_words": (median([r.cost.vcost_words for r in fixed]), "words"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    detail = {"setup_s_raw": walls, "setup_reference_loop_s": setup_loops,
              "peak_rss_mb_samples": rss, "run_s_raw": runs,
              "verifier_s_raw": verifier, "updates": n_updates,
              "reference_loop_s": loops, "run_s_samples": len(rates),
              "updates_per_stream": [len(u) for _, u in inputs],
              "adversaries": adversary}

    return metrics, detail


def layer_values(snap, run_dt, n_updates, result, capture):
    """Per-layer metrics of one traced run."""
    calls, busy, tally = snap["calls"], snap["busy"], snap["tally"]

    def b(name):
        return busy.get(name, 0.0)

    def per_update(name):
        return calls.get(name, 0) / n_updates

    prover = b("protocol.build_transcript")
    verifier = b("protocol.run_transcript")
    prepass = b("streams.validate_stream") + b("streams.compute_meta")
    out = {
        "protocol.prover_s": prover,
        "protocol.verifier_s": verifier,
        "streams.prepass_s": prepass,
        "streams.hash_evals_per_update": per_update("streams.PairwiseHash.__call__"),
        "sumcheck.proof_s": b("sumcheck.DenseProver.proof"),
        "sumcheck.proof_calls": calls.get("sumcheck.DenseProver.proof", 0),
        "sumcheck.proof_points": tally.get("proof_points", 0),
        "sumcheck.proof_nonzeros": tally.get("proof_nonzeros", 0),
        "sumcheck.verifier_update_calls_per_update":
            per_update("sumcheck.DenseVerifier.update"),
        "sumcheck.verifier_update_s": b("sumcheck.DenseVerifier.update"),
        "sumcheck.prover_update_calls_per_update":
            per_update("sumcheck.DenseProver.update"),
        "sumcheck.prover_update_s": b("sumcheck.DenseProver.update"),
        "sumcheck.verify_s": b("sumcheck.DenseVerifier.verify"),
        "sumcheck.ext_grid_s": b("sumcheck._ExtGrid.ensure"),
        "field.lagrange_row_calls": calls.get("field.lagrange_row", 0),
        "field.lagrange_row_s": b("field.lagrange_row"),
        "field.eval_values_at_s": b("field.eval_values_at"),
        "moments.mi_update_s": (b("moments.MultiIndexProverCore.update")
                                + b("moments.MultiIndexVerifierCore.update")),
        "moments.mi_finish_s": b("moments.MultiIndexProverCore.finish_chunks"),
        "moments.stages_used": result.info.get("stages_used", 0) if result else 0,
        "moments.collision_list_len": capture.collision_list_len,
        "purity.purity_deltas_per_update": per_update("purity.purity_deltas"),
        "pointqueries.fingerprint_update_s":
            b("pointqueries.BucketFingerprintState.update"),
        "pointqueries.fingerprint_updates_per_update":
            per_update("pointqueries.BucketFingerprintState.update"),
        "pointqueries.check_opening_s":
            b("pointqueries.BucketFingerprintState.check_opening"),
        "trace.run_s": run_dt,
        "trace.unaccounted_s": run_dt - prover - verifier - prepass,
    }
    bits = capture.bits_by_kind()
    for kind in ANNOTATION_KINDS:
        out[f"protocol.annotation_bits.{kind}"] = bits.get(kind, 0)
    return out


LAYER_UNITS = {"_s": "s", "_per_update": "1/update", "_calls": "count",
               "_points": "count", "_nonzeros": "count", "_used": "count",
               "_len": "count"}


def layer_unit(name):
    if name.startswith("protocol.annotation_bits."):
        return "bits"
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def traced(bench, args):
    from streamcert.harness import run_scheme
    from tracing import Tracer
    from workloads import STREAMS_PER_RUN, run_inputs
    tracer = Tracer()
    inputs = run_inputs(bench.workload, args.seed, STREAMS_PER_RUN)
    pseed0, stream0 = inputs[0]

    def traced_run(pseed, updates):
        tracer.take()
        tracer.install()
        try:
            dt, r = bench.honest(pseed, updates,
                                 tracer.spanned("bench.run_scheme", run_scheme))
        finally:
            tracer.uninstall()
        return dt, r, layer_values(tracer.take(), dt, len(updates), r, bench.capture)

    _, _, cold = traced_run(pseed0, stream0)
    adversary = bench.adversaries(pseed0, stream0)

    plain_runs, layer_runs = [], []

    def step(i, pseed, updates):
        # each stream runs once untraced and once traced, alternating which
        # goes first, so both medians see the same streams
        order = (False, True) if (i // len(inputs)) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                dt, r, layers = traced_run(pseed, updates)
                if r is not None:
                    layer_runs.append(layers)
            else:
                dt, r = bench.honest(pseed, updates)
                if r is not None:
                    plain_runs.append(dt)

    timed_window(args.seconds, inputs, step)
    metrics = {n: (median([lr[n] for lr in layer_runs]), layer_unit(n)) for n in cold}
    run_traced = metrics["trace.run_s"][0]
    metrics["trace.overhead_s"] = (run_traced - median(plain_runs), "s")
    metrics["trace.cold_run_s"] = (cold["trace.run_s"], "s")
    metrics["sumcheck.proof_cold_s"] = (cold["sumcheck.proof_s"], "s")
    metrics["sumcheck.ext_grid_cold_s"] = (cold["sumcheck.ext_grid_s"], "s")
    metrics["field.lagrange_row_cold_calls"] = (cold["field.lagrange_row_calls"], "count")
    metrics["field.lagrange_row_cold_s"] = (cold["field.lagrange_row_s"], "s")
    accounted = run_traced - metrics["trace.unaccounted_s"][0]
    share = metrics["trace.unaccounted_s"][0] / run_traced if run_traced else 0.0
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(spans_path)
    detail = {"adversaries": adversary, "traced_runs": len(layer_runs),
              "sites_missing": tracer.missing,
              "untraced_runs": len(plain_runs), "untraced_run_s": median(plain_runs),
              "accounting": {"run_s": run_traced, "prover+verifier+prepass_s": accounted,
                             "remainder_share": share, "within_5pct": abs(share) <= 0.05},
              "spans_file": os.path.relpath(spans_path, ROOT),
              "updates_per_stream": [len(u) for _, u in inputs],
              "cold_layers": cold}
    return metrics, detail


# --------------------------------------------------------------- reporting


def compare_reference(workload, digests):
    """Mismatches of the fixed digest streams against the committed reference.
    Reported only: the gate on costs is hcost_bits and vcost_words."""
    try:
        with open(REFERENCE_DIGEST, encoding="utf-8") as fh:
            ref = json.load(fh).get(workload, {})
    except FileNotFoundError:
        return ["no reference digest file"]
    out = []
    for key, want in ref.items():
        got = digests.get(key)
        if got is not None and got != want:
            out.append(f"seed {key}: differs from reference")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "streamcert", "__init__.py")):
        print(f"error: no streamcert package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracing import TranscriptCapture
    from workloads import WORKLOADS, run_inputs
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload]
    capture = TranscriptCapture()
    capture.install()
    bench = Bench(workload, capture)
    correct, error = True, None
    try:
        metrics, detail = (traced if args.trace else untraced)(bench, args)
    except WrongAnswer as exc:
        correct, error = False, str(exc)
        metrics, detail = {}, {}
    finally:
        capture.uninstall()

    detail.update(environment=env, workload=args.workload, seed=args.seed,
                  trace=args.trace, digest=bench.digests,
                  digest_mismatches=bench.digest_mismatches)
    if not args.trace:
        fixed_keys = [str(run_inputs(workload, s, 1)[0][0]) for s in DIGEST_SEEDS]
        fixed = {k: bench.digests[k] for k in fixed_keys if k in bench.digests}
        detail["fixed_digest_sha256"] = hashlib.sha256(
            json.dumps(fixed, sort_keys=True).encode()).hexdigest()
        detail["digest_mismatches"] += compare_reference(args.workload, fixed)
    if error:
        detail["error"] = error
        print(f"error: {error}", file=sys.stderr)
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print(f"env: python {env['python']}, nproc {env['nproc']}, "
          f"loadavg {env['loadavg_at_start']}")
    for key in ("adversaries", "accounting", "sites_missing", "digest_mismatches",
                "fixed_digest_sha256"):
        if key in detail:
            print(f"{key}: {json.dumps(detail[key])}")
    for key in ("run_s_samples", "traced_runs", "untraced_runs"):
        if key in detail:
            print(f"{key}: {detail[key]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
