"""Instrumentation installed from outside the package, at binding sites.

Each traced function is replaced, for the duration of one run, in the
namespace its caller looks it up in (a module attribute or a class
attribute), so the package's code is unchanged. Three wrapper kinds:

- span: a record (id, parent id, name, start, end) per call, kept in memory
  and written out at the end. Used for the coarse layer boundaries.
- timed: call count and busy time only. Used for the per-update functions,
  which run hundreds of thousands of times a run; a span per call would
  cost more memory than the run itself.
- counted: call count only, for the cheapest per-update functions.
"""

import json
import time
from collections import defaultdict

from streamcert import harness, moments, pointqueries, protocol, streams, sumcheck

perf = time.perf_counter

SPAN, TIMED, COUNTED = "span", "timed", "counted"


def _proof_tally(prover):
    return {"proof_points": prover.params.proof_len,
            "proof_nonzeros": sum(len(v) for v in prover.vecs)}


# (module, attribute path, wrapper kind, per-call tally or None). The
# recorded name is "<module>.<attribute path>", except that compute_meta and
# validate_stream are recorded under streams, where they are defined.
SITES = (
    (harness, "validate_stream", SPAN, None),
    (moments, "compute_meta", SPAN, None),
    (pointqueries, "compute_meta", SPAN, None),
    (protocol, "build_transcript", SPAN, None),
    (protocol, "run_transcript", SPAN, None),
    (sumcheck, "DenseProver.proof", SPAN, _proof_tally),
    (sumcheck, "DenseVerifier.verify", SPAN, None),
    (sumcheck, "_ExtGrid.ensure", SPAN, None),
    (sumcheck, "lagrange_row", SPAN, None),
    (sumcheck, "eval_values_at", SPAN, None),
    (moments, "MultiIndexProverCore.finish_chunks", SPAN, None),
    (pointqueries, "BucketFingerprintState.check_opening", SPAN, None),
    (sumcheck, "DenseProver.update", TIMED, None),
    (sumcheck, "DenseVerifier.update", TIMED, None),
    (moments, "MultiIndexProverCore.update", TIMED, None),
    (moments, "MultiIndexVerifierCore.update", TIMED, None),
    (pointqueries, "BucketFingerprintState.update", TIMED, None),
    (streams, "PairwiseHash.__call__", COUNTED, None),
    (moments, "purity_deltas", COUNTED, None),
)

# functions imported into a caller's namespace, recorded under their home
HOME = {"validate_stream": "streams", "compute_meta": "streams",
        "lagrange_row": "field", "eval_values_at": "field",
        "purity_deltas": "purity"}


def _resolve(module, path):
    """(owner, attribute) for a dotted path under a module, or None when a
    later version of the package no longer has it."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def site_name(module, path):
    short = module.__name__.rsplit(".", 1)[-1]
    return f"{HOME.get(path, short)}.{path}"


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent id, name, start, end]
        self._stack = [None]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.tally = defaultdict(int)
        self._undo = []
        self.missing = []

    def _wrap(self, name, kind, fn, tally):
        calls, busy = self.calls, self.busy
        if kind == COUNTED:
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        if kind == TIMED:
            def timed(*args):
                t0 = perf()
                try:
                    return fn(*args)
                finally:
                    busy[name] += perf() - t0
                    calls[name] += 1
            return timed
        return self.spanned(name, fn, tally)

    def spanned(self, name, fn, tally=None):
        spans, stack, calls, busy, counts = (self.spans, self._stack, self.calls,
                                             self.busy, self.tally)

        def span(*args, **kwargs):
            if tally is not None:
                for key, v in tally(*args).items():
                    counts[key] += v
            rec = [len(spans), stack[-1], name, perf(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()
                busy[name] += rec[4] - rec[3]
                calls[name] += 1
        return span

    def install(self):
        self.missing = []
        for module, path, kind, tally in SITES:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module.__name__}.{path}")
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(site_name(module, path), kind, fn, tally))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def take(self):
        """Counters accumulated since the last take, then reset."""
        out = {"calls": dict(self.calls), "busy": dict(self.busy),
               "tally": dict(self.tally)}
        self.calls.clear()
        self.busy.clear()
        self.tally.clear()
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


class TranscriptCapture:
    """Keeps the chunk kinds and bits of the last transcript built.

    Installed for every in-process run, traced or not: it adds one call per
    run, and it is how the behaviour digest sees the annotation without the
    package returning its transcript."""

    def __init__(self):
        self.chunks = []
        self.collision_list_len = 0
        self._orig = None

    def install(self):
        self._orig = orig = protocol.build_transcript

        def build_transcript(*args, **kwargs):
            t = orig(*args, **kwargs)
            chunks = list(t.start_chunks)
            chunks += [c for _, c in getattr(t, "update_chunks", ())]
            chunks += list(t.end_chunks)
            self.chunks = [(c.kind, c.bits + protocol.CHUNK_OVERHEAD_BITS) for c in chunks]
            self.collision_list_len = sum(len(c.data) for c in chunks
                                          if c.kind == "collision-list")
            return t

        protocol.build_transcript = build_transcript

    def uninstall(self):
        protocol.build_transcript = self._orig

    def bits_by_kind(self):
        out = defaultdict(int)
        for kind, bits in self.chunks:
            out[kind] += bits
        return dict(out)
