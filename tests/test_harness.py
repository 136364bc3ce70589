import json

import pytest

from streamcert import sumcheck
from streamcert.cli import main as cli_main
from streamcert.harness import (MODE, RUN_SEED, SCHEMES, RunConfig, Scheme,
                                adversary, cost_sweep, run_scheme,
                                soundness_trials, synthetic_stream)
from streamcert.moments import fk_online_run
from streamcert.pointqueries import PointQueryProver, PointQueryVerifier
from streamcert.protocol import (ConfigError, Prover, Verifier,
                                 build_transcript, derive_rng, run_transcript)
from streamcert.streams import (BucketedUpdate as B, StreamUpdate as U,
                                write_stream)

from conftest import moment_oracle, strict_stream


def test_run_scheme_pointquery_with_costs():
    cfg = RunConfig("pointquery", n=64, params={"query": 5, "c_a": 4, "c_v": 4})
    r = run_scheme(cfg, [U(5, 7)])
    assert r.value == 7
    assert r.cost.hcost_bits > 0
    assert r.cost.vcost_words > 0
    assert r.cost.vcost_bits == r.cost.vcost_words * 61


def test_run_scheme_empty_fk_is_zero():
    cfg = RunConfig("fk", n=1 << 20, params={"k": 2, "c_v": 4})
    assert run_scheme(cfg, []).value == 0


def test_run_scheme_rejects_model_violations():
    cfg = RunConfig("fk", n=64, params={"k": 2, "c_v": 4})
    with pytest.raises(Exception):
        run_scheme(cfg, [U(3, -1)])  # strict violation
    cfg_ns = RunConfig("selection", n=64, model="nonstrict",
                       params={"rank": 1, "c_a": 8, "c_v": 8})
    with pytest.raises(ConfigError):
        run_scheme(cfg_ns, [U(3, 1)])  # selection needs strict


def test_run_scheme_unknown():
    with pytest.raises(ConfigError):
        run_scheme(RunConfig("nope"), [])
    with pytest.raises(ConfigError):
        adversary("nope")


def test_soundness_trials_tampered_and_inverted(rng):
    ups = strict_stream(rng, 1 << 20, 40, churn=0.0)
    bad = RunConfig("fk", n=1 << 20, prover="tamper-proof-polynomial",
                    params={"k": 2, "c_v": 8})
    assert soundness_trials(bad, ups, 40) == 0
    honest = RunConfig("fk", n=1 << 20, params={"k": 2, "c_v": 8})
    assert soundness_trials(honest, ups, 5) == 5  # sanity inversion


def test_cost_sweep_monotone_and_validated():
    rows = cost_sweep(2, [64, 256, 1024], [8], n=1 << 20, seed=1)
    hcosts = [row["hcost_bits"] for row in rows]
    assert all(row["accepted"] for row in rows)
    assert hcosts == sorted(hcosts)
    with pytest.raises(ConfigError):
        cost_sweep(2, [64], [1])
    single = cost_sweep(2, [64], [8], seed=2)
    assert len(single) == 1


def test_transcript_replay_reproduces_outcome(rng):
    ups = strict_stream(rng, 64, 8, churn=0.0)
    prover = PointQueryProver(64, 4, derive_rng(3, "pq-p"))
    transcript = build_transcript(prover, ups, 5)

    def fresh_verifier():
        return PointQueryVerifier(64, 4, 4, derive_rng(3, "pq-v"))

    first = run_transcript(fresh_verifier(), transcript, 5)
    second = run_transcript(fresh_verifier(), transcript, 5)
    assert first.outcome == second.outcome
    assert first.cost.hcost_bits == second.cost.hcost_bits
    assert first.cost.vcost_words == second.cost.vcost_words


def test_online_provers_are_prefix_causal():
    # the prover interface only ever shows the prefix: start() precedes all
    # updates, and on_update sees tokens in order
    seen = []

    class Probe(Prover):
        def start(self):
            seen.append("start")
            return []

        def on_update(self, u):
            seen.append(u.item)
            return []

        def finish(self, query):
            seen.append("finish")
            return []

    ups = [U(3, 1), U(1, 1), U(2, 1)]
    build_transcript(Probe(), ups)
    assert seen == ["start", 3, 1, 2, "finish"]


def test_run_scheme_fk_modes(rng):
    ups = strict_stream(rng, 1 << 16, 30, churn=0.0)
    want = moment_oracle(ups, 2)
    for mode in ("online", "prescient"):
        cfg = RunConfig("fk", n=1 << 16, params={"k": 2, "c_v": 8, "mode": mode})
        assert run_scheme(cfg, ups).value == want
    ns = [U(3, 5), U(3, -7), U(9, 2)]
    for mode in ("footprint", "ama"):
        cfg = RunConfig("fk", n=64, model="nonstrict",
                        params={"k": 2, "c_v": 4, "mode": mode})
        r = run_scheme(cfg, ns)
        assert r.accepted and r.value == 8


def test_run_scheme_refuses_oversized_grid_before_building_it(monkeypatch):
    # fk AMA at m=1200, n=2^20, c_v=16 sets c_a=16384 for its purity checks
    def ensure(self, s):
        raise AssertionError("extension grid built")

    monkeypatch.setattr(sumcheck._ExtGrid, "ensure", ensure)
    ups = [U(i, 1) for i in range(0, 1200 * 800, 800)]
    cfg = RunConfig("fk", n=1 << 20, model="nonstrict",
                    params={"k": 2, "c_v": 16, "mode": "ama"})
    with pytest.raises(ConfigError, match="c_a=16384"):
        run_scheme(cfg, ups)


def test_cli_end_to_end(tmp_path, capsys):
    path = tmp_path / "s.txt"
    write_stream(path, [U(5, 7), U(9, 2)], 64)
    rc = cli_main(["pointquery", "--input", str(path), "--query", "5",
                   "--ca", "4", "--cv", "4"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["scheme"] == "pointquery" and out["value"] == 7
    assert set(out) >= {"scheme", "outcome", "hcost_bits", "vcost_words", "seed"}

    rc = cli_main(["fk", "--input", str(path), "--k", "2", "--cv", "4",
                   "--prover", "tamper-proof-polynomial"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["outcome"] == "reject"

    rc = cli_main(["pointquery", "--input", str(tmp_path / "missing.txt"),
                   "--query", "1", "--ca", "4", "--cv", "4"])
    capsys.readouterr()
    assert rc == 1


def test_cli_trials_and_sweep(tmp_path, capsys):
    path = tmp_path / "s.txt"
    write_stream(path, [U(i, 1) for i in range(12)], 64)
    rc = cli_main(["fk", "--input", str(path), "--k", "2", "--cv", "4",
                   "--prover", "wrong-answer", "--trials", "5"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["accepted"] == 0
    rc = cli_main(["sweep", "--k", "2", "--m-list", "32,64", "--cv-list", "8",
                   "--report", "tsv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(lines) == 3  # header + two rows


def test_cli_witness_files(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("# vertices=4 model=strict\n0 1 1\n2 3 1\n")
    wpath = tmp_path / "m.txt"
    wpath.write_text("0 1\n2 3\n")
    rc = cli_main(["matching", "--input", str(gpath),
                   "--witness-file", str(wpath)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["value"] == 1


def test_synthetic_stream_strict_and_sized():
    from streamcert.streams import validate_stream, compute_meta, STRICT
    for seed in range(5):
        ups = synthetic_stream(50, 1 << 20, seed, churn=0.5)
        validate_stream(ups, 1 << 20, STRICT)
        assert compute_meta(ups, 1 << 20).sparsity == 50


# ------------------------------------------ every run refuses a bad universe

N, R, VERTICES = 8, 4, 4
RUN_VALUES = {"query": 3, "rank": 1, "phi": 0.5, "c_a": 8, "c_v": 8, "k": 2,
              "claims": [(3, 1)], "z": [(0, 1)], "r": R}
WITNESSES = {"matching": [(0, 1), (2, 3)],
             "connectivity": (0, [(0, 1), (0, 2), (0, 3)]),
             "oddcycle": [0, 1, 2, 0]}
GOOD = {"plain": [U(3, 1), U(5, 2)],
        "tagged": [(0, U(3, 1)), (1, U(5, 1))],
        "bucketed": [B(3, 0, 1), B(5, 1, 1)],
        "edges": [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (0, 3, 1)]}
BAD = {"plain": {"item-n": U(N, 1), "item-negative": U(-1, 1)},
       "tagged": {"item-n": (1, U(N, 1)), "item-negative": (0, U(-1, 1))},
       "bucketed": {"item-n": B(N, 0, 1), "item-negative": B(-1, 0, 1),
                    "bucket-r": B(3, R, 1), "bucket-negative": B(3, -1, 1)},
       "edges": {"vertex-negative": (-1, 2, 1), "vertex-n": (0, VERTICES, 1)}}


def _run_cases():
    for name, entry in SCHEMES.items():
        modes = {name: entry} if isinstance(entry, Scheme) else {
            f"{name}-{mode}": e for mode, e in entry.items()}
        for case, scheme in modes.items():
            for label, bad in BAD[scheme.kind].items():
                yield pytest.param(name, scheme, bad, id=f"{case}-{label}")


def _never_built(monkeypatch):
    """Make building any prover, verifier or dense instance fail the test."""
    def built(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")
    pending = [Prover, Verifier, sumcheck.DenseProver, sumcheck.DenseVerifier]
    while pending:
        cls = pending.pop()
        monkeypatch.setattr(cls, "__init__", built)
        pending.extend(cls.__subclasses__())


@pytest.mark.parametrize("name, scheme, bad", _run_cases())
def test_every_run_refuses_records_outside_its_universe(name, scheme, bad,
                                                        monkeypatch):
    """Each run function, called from the library, raises ConfigError for a
    record outside its universe before it builds a prover or a verifier."""
    kwargs = {}
    for p in scheme.params:
        if p is not MODE:
            value = RUN_VALUES.get(p.key, p.default)
            kwargs[p.arg or p.key] = 0 if value is RUN_SEED else value
    if name in WITNESSES:
        kwargs["witness"] = WITNESSES[name]
    n = VERTICES if scheme.kind == "edges" else N
    good = GOOD[scheme.kind]
    scheme.run(good, n=n, **kwargs)  # the good stream alone runs
    _never_built(monkeypatch)
    with pytest.raises(ConfigError, match="outside"):
        scheme.run(good + [bad], n=n, **kwargs)
