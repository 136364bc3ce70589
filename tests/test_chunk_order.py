"""Chunk order: a verifier takes its annotation in the order its scheme sends
it, and run_transcript rejects what it leaves.

Every pinned case's honest transcript is rewritten, its start list and its
end list one at a time: each chunk dropped, duplicated, swapped with the
next and moved to the end, and a foreign chunk put first and last. A rewrite
that changes the list gives a clean reject (bottom, with its reason in
info["reject"]); one that leaves it as it was gives the honest value.
Nothing else may happen, an exception least of all.
"""

import dataclasses
import random

import pytest

from streamcert import protocol
from streamcert.harness import STRATEGIES, adversary
from streamcert.moments import fk_online_run
from streamcert.pointqueries import heavyhitters_run, pq_run
from streamcert.protocol import (Chunk, Outcome, Reject, Transcript, Verifier,
                                 need, run_transcript)
from streamcert.streams import StreamUpdate as U

from test_transcript_pins import _cases

FOREIGN = Chunk("foreign", None, 0)

# counts that net to zero: the verifier sees an empty stream, and the
# honest annotation is no records and no openings
HH_EMPTY = [U(3, 1), U(3, -1)]


def _hh_empty():
    return heavyhitters_run(HH_EMPTY, 16, 0.5, c_a=8, c_v=4, seed=1)


CASES = {**_cases(), "heavyhitters-empty-stream": _hh_empty}


def rewrites(chunks):
    """(name, rewritten list) for every order rewrite of one chunk list."""
    n = len(chunks)
    for i in range(n):
        rest = chunks[:i] + chunks[i + 1:]
        yield f"drop {i}", rest
        yield f"duplicate {i}", chunks[:i + 1] + chunks[i:]
        if i + 1 < n:
            yield f"swap {i}", (chunks[:i] + [chunks[i + 1], chunks[i]]
                                + chunks[i + 2:])
        yield f"move {i} to end", rest + [chunks[i]]
    yield "foreign first", [FOREIGN] + chunks
    yield "foreign last", chunks + [FOREIGN]


def honest_run(fn):
    """(result, the one transcript it built) of a case's honest run."""
    orig = protocol.build_transcript
    built = []

    def record(*args, **kwargs):
        built.append(orig(*args, **kwargs))
        return built[-1]

    protocol.build_transcript = record
    try:
        result = fn()
    finally:
        protocol.build_transcript = orig
    assert len(built) == 1
    return result, built[0]


def rerun(fn, transcript):
    """The case's run again, its verifier passed over `transcript`; the
    prover is built but its transcript is not."""
    orig = protocol.build_transcript
    protocol.build_transcript = lambda *args, **kwargs: transcript
    try:
        return fn()
    finally:
        protocol.build_transcript = orig


@pytest.mark.parametrize("name", sorted(CASES))
def test_chunk_order_rewrites_rejected(name):
    fn = CASES[name]
    honest, t = honest_run(fn)
    assert honest.accepted
    for side in ("start_chunks", "end_chunks"):
        chunks = getattr(t, side)
        for how, rewritten in rewrites(chunks):
            r = rerun(fn, dataclasses.replace(t, **{side: rewritten}))
            if rewritten == chunks:
                assert r.accepted and r.value == honest.value, (side, how)
            else:
                assert r.rejected and r.info["reject"]["reason"], (side, how)


@pytest.mark.parametrize("how, reason", [
    ("drop 1", "missing hh-openings"),
    ("foreign last", "trailing annotation"),
], ids=["openings-dropped", "foreign-appended"])
def test_hh_empty_stream_takes_its_openings(how, reason):
    _, t = honest_run(_hh_empty)
    rewritten = dict(rewrites(t.end_chunks))[how]
    r = rerun(_hh_empty, dataclasses.replace(t, end_chunks=rewritten))
    assert r.rejected
    assert r.info["reject"] == {"phase": "end", "reason": reason}


# ------------------------------------------------------------ reject reasons


def test_extra_start_chunk_rejected_in_begin():
    fn = lambda: pq_run([U(3, 2), U(9, 1), U(3, 1)], 64, 3, c_a=4, c_v=4, seed=1)
    honest, t = honest_run(fn)
    assert honest.value == 3 and "reject" not in honest.info
    r = rerun(fn, dataclasses.replace(t, start_chunks=t.start_chunks + [FOREIGN]))
    assert r.rejected
    assert r.info["reject"] == {"phase": "begin",
                                "reason": "unexpected start annotation"}


class _RejectsAt(Verifier):
    def __init__(self, at):
        self.at = at
        self.seen = 0

    def update(self, u):
        need(self.seen != self.at, "update refused")
        self.seen += 1

    def end(self, chunks, query):
        return Outcome.ok(self.seen)


def test_update_reject_records_its_index():
    t = Transcript([], [U(i, 1) for i in range(5)], [], 0)
    r = run_transcript(_RejectsAt(2), t)
    assert r.rejected
    assert r.info["reject"] == {"phase": "update", "reason": "update refused",
                                "update": 2}
    assert run_transcript(_RejectsAt(5), t).value == 5


def test_adversary_reject_carries_its_reason():
    ups = [U(i, 1 + i % 3) for i in range(0, 400, 7)]
    r = fk_online_run(ups, 1 << 10, 2, 4, seed=3,
                      prover=adversary("tamper-proof-polynomial", 3))
    assert r.rejected
    assert r.info["reject"]["phase"] == "end"
    assert r.info["reject"]["reason"]


# the reason a tampered first dense proof gets in each case that sends one:
# the name of the instance it proves
STAGE = "stage purity proof failed"
FIRST_PROOF_FAILED = {
    "ama-injection": "dense proof failed",
    "connectivity": STAGE,
    "connectivity-churn": STAGE,
    "disj-online": STAGE,
    "disj-prescient": "main proof failed",
    "fk-ama": STAGE,
    "fk-footprint": STAGE,
    "fk-online": STAGE,
    "fk-online-multi": STAGE,
    "fk-prescient": "injection proof failed",
    "hamming": "main injection proof failed",
    "injection": "dense proof failed",
    "injection-churn": "dense proof failed",
    "innerproduct": "main injection proof failed",
    "innerproduct-churn": STAGE,
    "matching": STAGE,
    "multiindex": STAGE,
    "oddcycle": STAGE,
    "subf2": "dense proof failed",
    "subinjection": "dense proof failed",
    "subset": STAGE,
    "triangles": STAGE,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tampered_proof_fails_as_a_proof(name):
    """tamper-proof-polynomial changes one value of the first dense proof
    the case sends, and that proof's check names it; a case that sends no
    dense proof is left as it was."""
    fn = CASES[name]
    _, t = honest_run(fn)
    for seed in range(3):
        tampered = STRATEGIES["tamper-proof-polynomial"](
            list(t.end_chunks), random.Random(seed))
        if name in FIRST_PROOF_FAILED:
            r = rerun(fn, dataclasses.replace(t, end_chunks=tampered))
            assert r.info["reject"] == {"phase": "end",
                                        "reason": FIRST_PROOF_FAILED[name]}
        else:
            assert tampered == t.end_chunks


def test_take_pops_in_order():
    chunks = [Chunk("a", 1, 0), Chunk("b", 2, 0)]
    assert protocol.take(chunks, "a") == 1
    with pytest.raises(Reject, match="missing a"):
        protocol.take(chunks, "a")
    assert protocol.take(chunks, "b") == 2 and chunks == []
    with pytest.raises(Reject, match="missing b"):
        protocol.take(chunks, "b")
