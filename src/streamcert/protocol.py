"""Shared prover/verifier plumbing: annotation chunks, transcripts, outcomes,
cost accounting, and run_protocol, through which every scheme run goes.

Every run function sizes its scheme, then hands run_protocol two builders,
verifier(rng) and honest(rng), and its caller's `prover` argument.
run_protocol draws both rngs from the run's seed and label, builds the
verifier and the prover, records the prover's transcript over the stream
(build_transcript) and passes the verifier over it (run_transcript).

Annotation arrives in two places only: start chunks before the stream and
end chunks after it. Each verifier reads them through take(), from the front
of the list, in the order its scheme sends them, and run_transcript rejects
whatever chunks the verifier leaves: a missing, reordered or extra chunk
gives bottom. A scheme's mapping from stream updates to its dense
instances is written once and built on either side, over DenseProver for
the prover and DenseVerifier for the verifier, so the honest prover and the
verifier agree by construction.

Annotation is measured in bits: every chunk pays a one-word length prefix
plus a one-word position tag on top of its fixed-width payload. Verifier
space is measured in words of live verifier state (field elements, counters,
hash descriptions); pure-function lookup tables that depend only on public
parameters (Lagrange coefficient rows, factorial tables) are recomputable
constants and are not charged.
"""

import hashlib
import random
import time
from dataclasses import dataclass, field as dfield

WORD_BITS = 64
CHUNK_OVERHEAD_BITS = 2 * WORD_BITS  # length prefix + position tag
COUNT_BITS = 64
STAGE_BITS = 16


class ConfigError(ValueError):
    """Bad scheme configuration, reported before any streaming begins."""


class Reject(Exception):
    """Raised inside a verifier when an annotation check fails. One raised
    while the verifier reads the stream carries the index of the update
    it refused as `update` (Verifier.read)."""

    update = None


def id_bits(n: int) -> int:
    """Bits to name one element of a size-n universe."""
    return max(1, (max(n, 2) - 1).bit_length())


def derive_rng(seed, label: str) -> random.Random:
    """Independent RNG for one protocol role, stable across processes.

    Avoids seeding from tuple hashes, whose string components are salted per
    interpreter run."""
    digest = hashlib.sha256(f"{seed!r}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


@dataclass(frozen=True)
class Chunk:
    kind: str
    data: object
    bits: int


@dataclass(frozen=True)
class Outcome:
    """Scheme output: a value, or reject (bottom)."""

    value: object = None
    rejected: bool = False

    @classmethod
    def ok(cls, value):
        return cls(value=value, rejected=False)

    @classmethod
    def reject(cls):
        return cls(value=None, rejected=True)

    @property
    def accepted(self):
        return not self.rejected


@dataclass(frozen=True)
class RelaxedOutcome:
    """One-sided graph-scheme output: convinced, or not convinced.

    Not-convinced is a refusal, never a proof that the property fails, so
    this is deliberately a distinct type from Outcome.
    """

    convinced: bool

    @property
    def rejected(self):
        return not self.convinced

    @property
    def accepted(self):
        return self.convinced

    @property
    def value(self):
        return 1 if self.convinced else None


@dataclass
class CostReport:
    hcost_bits: int
    vcost_words: int
    vcost_bits: int
    wall_time: float


@dataclass
class RunResult:
    outcome: object
    cost: CostReport
    info: dict = dfield(default_factory=dict)

    @property
    def value(self):
        return self.outcome.value

    @property
    def rejected(self):
        return self.outcome.rejected

    @property
    def accepted(self):
        return not self.outcome.rejected


@dataclass
class Transcript:
    """Recorded annotated stream: start chunks, updates, end chunks, and the
    total annotation bit count."""

    start_chunks: list
    updates: list
    end_chunks: list
    hcost_bits: int


class Prover:
    """Prover half of a scheme.

    Online provers see nothing at start() and each update exactly once via
    on_update(), so their annotation is prefix-causal by construction.
    The honest online provers only sum each update into a net count per id
    there, and map each nonzero count into their dense instances once, in
    finish(): the instances are linear in the stream and the annotation
    comes after it, so this stays prefix-causal and sends the same
    annotation. Prescient provers receive the whole stream at construction
    time.
    """

    def start(self):
        return []

    def on_update(self, u):
        pass

    def finish(self, query):
        return []


def build_transcript(prover: Prover, updates, query=None) -> Transcript:
    start = list(prover.start())
    for u in updates:
        prover.on_update(u)
    end = list(prover.finish(query))
    bits = sum(c.bits + CHUNK_OVERHEAD_BITS for c in start + end)
    return Transcript(start, list(updates), end, bits)


def run_transcript(verifier, transcript: Transcript, query=None) -> RunResult:
    """Single sequential verifier pass over a recorded transcript.

    begin and end each get a copy of their chunk list and take() from it;
    a chunk they leave is rejected. Between them the verifier reads the
    stream with one call, verifier.read(updates), which by default is
    update(u) for each update in order, and which a scheme may make one
    fused pass. A reject is recorded in info["reject"]: its phase ("begin",
    "update" or "end"), its reason and, in phase "update", the update's
    index.

    vcost is the largest of verifier.words sampled at most three times: after
    begin, after the last update and after end (or after a reject)."""
    t0 = time.perf_counter()
    peak = 0
    phase, reject = "begin", None
    try:
        start = list(transcript.start_chunks)
        verifier.begin(start)
        need(not start, "unexpected start annotation")
        peak = max(peak, verifier.words)
        phase = "update"
        verifier.read(transcript.updates)
        phase = "end"
        peak = max(peak, verifier.words)
        end = list(transcript.end_chunks)
        outcome = verifier.end(end, query)
        need(not end, "trailing annotation")
    except Reject as exc:
        outcome = Outcome.reject()
        reject = {"phase": phase, "reason": str(exc)}
        if phase == "update":
            reject["update"] = exc.update
    peak = max(peak, verifier.words)
    extra_bits = getattr(verifier, "public_coin_bits", 0)
    cost = CostReport(
        hcost_bits=transcript.hcost_bits + extra_bits,
        vcost_words=peak,
        vcost_bits=peak * getattr(verifier, "word_bits", WORD_BITS),
        wall_time=time.perf_counter() - t0,
    )
    info = dict(getattr(verifier, "info", {}))
    if reject:
        info["reject"] = reject
    return RunResult(outcome, cost, info)


def run_protocol(updates, seed, label, verifier, honest, prover=None,
                 query=None) -> RunResult:
    """One run of a scheme: the one place where its verifier and prover are
    built and joined. The transcript is the only channel between them.

    verifier(rng) builds the verifier and honest(rng) the honest prover,
    their rngs drawn from (seed, label + "-v") and (seed, label + "-p").
    `prover` is a run function's own argument: None for the honest prover,
    a Prover instance, used as it is, or a wrapper callable applied to the
    honest prover (how adversaries are injected).

    info["timing"] records both sides' seconds: prover_s, the prover's
    construction and its transcript (build_transcript), and verifier_s,
    the verifier's pass (run_transcript's CostReport.wall_time)."""
    v = verifier(derive_rng(seed, label + "-v"))
    t0 = time.perf_counter()
    if isinstance(prover, Prover):
        p = prover
    else:
        p = honest(derive_rng(seed, label + "-p"))
        if prover is not None:
            p = prover(p)
    transcript = build_transcript(p, updates, query)
    prover_s = time.perf_counter() - t0
    result = run_transcript(v, transcript, query)
    result.info["timing"] = {"prover_s": prover_s,
                             "verifier_s": result.cost.wall_time}
    return result


class Verifier:
    """Verifier half of a scheme; subclasses implement the three phases.

    begin(chunks) and end(chunks, query) take() their chunks from the front
    of the list, in the order the scheme sends them; run_transcript rejects
    the chunks they leave. The default begin takes none. Between them
    run_transcript calls read(updates) once, with the stream's list of
    updates, which a scheme may override with one pass of its own that
    leaves the state update(u) for each update would."""

    word_bits = WORD_BITS

    def begin(self, chunks):
        """Takes no start chunks."""

    def update(self, u):
        raise NotImplementedError

    def read(self, updates):
        """update(u) for each update, in order. A Reject raised there
        leaves with the update's index as its `update`."""
        update = self.update
        i = 0
        try:
            for i, u in enumerate(updates):
                update(u)
        except Reject as exc:
            exc.update = i
            raise

    def end(self, chunks, query):
        raise NotImplementedError

    @property
    def words(self):
        return 0


def need(condition, why):
    """Check an annotation property, rejecting the run when it fails."""
    if not condition:
        raise Reject(why)


def take(chunks, kind):
    """Pop the next chunk and return its payload; reject with "missing
    <kind>" unless there is one and it is of `kind`. Verifiers take their
    chunks in the order their scheme sends them, and run_transcript rejects
    whatever they leave."""
    need(chunks and chunks[0].kind == kind, f"missing {kind}")
    return chunks.pop(0).data


def int_record(x, arity: int) -> bool:
    """Whether an annotation record is a tuple or list of `arity` ints."""
    return (isinstance(x, (tuple, list)) and len(x) == arity
            and all(type(v) is int for v in x))
