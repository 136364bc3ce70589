"""The CLI against run_scheme: for every scheme and mode, the command's JSON
report equals an in-process run on a RunConfig that spells out every default;
the error paths keep their exit codes."""

import json

import pytest

from streamcert import cli, sumcheck
from streamcert.cli import main as cli_main
from streamcert.harness import RunConfig, run_scheme
from streamcert.protocol import CostReport, Outcome, RelaxedOutcome, RunResult
from streamcert.streams import BucketedUpdate, StreamUpdate as U, write_stream

SEED = 3

PLAIN_N = 64
PLAIN = [U(5, 3), U(9, 2), U(5, 1), U(17, 4), U(9, -1)]

TAGGED_N = 32
TAGGED = [(0, U(1, 1)), (0, U(4, 2)), (1, U(4, 1)), (1, U(7, 3)), (0, U(9, 1))]
# hamming and subset take 0/1 vectors only
BINARY = [(0, U(1, 1)), (0, U(4, 1)), (1, U(4, 1)), (1, U(7, 1)), (0, U(9, 1))]

BUCKETED_N, BUCKETED_R = 16, 4
BUCKETED = [BucketedUpdate(3, 0, 1), BucketedUpdate(5, 1, 2),
            BucketedUpdate(7, 2, 1), BucketedUpdate(3, 0, 1)]

VERTICES = 4
EDGES = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (0, 3, 1)]


def _write_inputs(tmp_path):
    paths = {kind: tmp_path / f"{kind}.txt"
             for kind in ("plain", "tagged", "binary", "bucketed", "edges")}
    write_stream(paths["plain"], PLAIN, PLAIN_N)
    for kind, stream in (("tagged", TAGGED), ("binary", BINARY)):
        paths[kind].write_text(f"# n={TAGGED_N} model=strict\n" + "".join(
            f"{'ST'[t]} {u.item} {u.delta}\n" for t, u in stream))
    paths["bucketed"].write_text(
        f"# n={BUCKETED_N} r={BUCKETED_R} model=strict\n"
        + "".join(f"{u.item} {u.bucket} {u.delta}\n" for u in BUCKETED))
    paths["edges"].write_text(f"# vertices={VERTICES} model=strict\n" + "".join(
        f"{u} {v} {d}\n" for u, v, d in EDGES))
    files = {
        "pairs": "# item count\n5 1\n17 2\n",
        "claims": "5 4\n9 1\n",
        "buckets": "0 1\n2 1\n",
        "matching": "0 1\n2 3\n",
        "tree": "root 0\n0 1\n0 2\n0 3\n",
        "cycle": "0\n1\n2\n0\n",
    }
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    return paths


STREAMS = {"plain": (PLAIN, PLAIN_N), "tagged": (TAGGED, TAGGED_N),
           "binary": (BINARY, TAGGED_N),
           "bucketed": (BUCKETED, BUCKETED_N), "edges": (EDGES, VERTICES)}

# (case id, scheme, stream kind, CLI flags, params with every default spelled
# out). "@name" in a flag list is replaced by the path of input file `name`.
CASES = [
    ("pointquery", "pointquery", "plain",
     ["--query", "5", "--ca", "4", "--cv", "4"],
     {"query": 5, "c_a": 4, "c_v": 4}),
    ("selection", "selection", "plain",
     ["--rank", "5", "--ca", "8", "--cv", "8"],
     {"rank": 5, "c_a": 8, "c_v": 8}),
    ("heavyhitters-default", "heavyhitters", "plain",
     ["--phi", "0.3", "--ca", "8", "--cv", "8"],
     {"phi": 0.3, "c_a": 8, "c_v": 8, "hh_mode": "openings"}),
    ("fk-default", "fk", "plain", ["--k", "2"],
     {"k": 2, "c_v": 16, "mode": "online"}),
    ("fk-online", "fk", "plain", ["--k", "3", "--cv", "4", "--mode", "online"],
     {"k": 3, "c_v": 4, "mode": "online"}),
    ("fk-prescient", "fk", "plain", ["--k", "2", "--mode", "prescient"],
     {"k": 2, "c_v": 16, "mode": "prescient"}),
    ("fk-footprint", "fk", "plain", ["--k", "2", "--mode", "footprint"],
     {"k": 2, "c_v": 16, "mode": "footprint"}),
    ("fk-ama", "fk", "plain", ["--k", "2", "--mode", "ama"],
     {"k": 2, "c_v": 16, "mode": "ama", "coins_seed": SEED}),
    ("fk-ama-coins", "fk", "plain",
     ["--k", "2", "--cv", "8", "--mode", "ama", "--coins-seed", "11"],
     {"k": 2, "c_v": 8, "mode": "ama", "coins_seed": 11}),
    ("multiindex", "multiindex", "plain",
     ["--claims-file", "@claims", "--cv", "16"],
     {"claims": [(5, 4), (9, 1)], "c_v": 16}),
    ("disj-default", "disj", "tagged", [], {"mode": "online", "c_v": 16}),
    ("disj-prescient", "disj", "tagged", ["--mode", "prescient"],
     {"mode": "prescient", "c_v": 16}),
    ("subset", "subset", "binary", [], {"c_v": 16}),
    ("innerproduct", "innerproduct", "tagged", ["--cv", "8"], {"c_v": 8}),
    ("hamming", "hamming", "binary", [], {"c_v": 16}),
    ("injection", "injection", "bucketed", [], {"r": BUCKETED_R}),
    ("subinjection", "subinjection", "bucketed", ["--z-file", "@buckets"],
     {"r": BUCKETED_R, "z": [(0, 1), (2, 1)]}),
    ("subf2", "subf2", "plain", ["--z-file", "@pairs"],
     {"z": [(5, 1), (17, 2)]}),
    ("ama-injection", "ama-injection", "bucketed", [],
     {"r": BUCKETED_R, "coins_seed": SEED}),
    ("triangles", "triangles", "edges", [], {"c_v": 64}),
    ("matching", "matching", "edges", ["--witness-file", "@matching"],
     {"witness": [(0, 1), (2, 3)], "c_v": 16}),
    ("connectivity", "connectivity", "edges", ["--witness-file", "@tree"],
     {"witness": (0, [(0, 1), (0, 2), (0, 3)]), "c_v": 16}),
    ("oddcycle", "oddcycle", "edges",
     ["--witness-file", "@cycle", "--cv", "8"],
     {"witness": [0, 1, 2, 0], "c_v": 8}),
]


def _cli_json(capsys, argv):
    rc = cli_main(argv)
    return rc, json.loads(capsys.readouterr().out)


def _reported_value(outcome):
    if isinstance(outcome, RelaxedOutcome):
        return 1
    if isinstance(outcome.value, frozenset):
        return sorted(outcome.value)
    return outcome.value


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cli_matches_run_scheme(case, tmp_path, capsys):
    _, scheme, kind, flags, params = case
    paths = _write_inputs(tmp_path)
    flags = [str(paths[f[1:]]) if f.startswith("@") else f for f in flags]
    rc, out = _cli_json(capsys, [scheme, "--input", str(paths[kind]),
                                 "--seed", str(SEED), *flags])
    stream, n = STREAMS[kind]
    result = run_scheme(RunConfig(scheme, n, "strict", seed=SEED,
                                  params=params), stream)
    assert result.accepted, case[0]
    assert rc == 0
    assert out["scheme"] == scheme and out["seed"] == SEED
    assert out["outcome"] == "value"
    assert out["value"] == _reported_value(result.outcome)
    assert out["hcost_bits"] == result.cost.hcost_bits
    assert out["vcost_words"] == result.cost.vcost_words
    assert out["vcost_bits"] == result.cost.vcost_bits


@pytest.mark.parametrize("argv", [
    ["fk", "--k", "2", "--mode", "bogus"],
    ["disj", "--mode", "footprint"],
    ["heavyhitters", "--phi", "0.3", "--ca", "8", "--cv", "8",
     "--hh-mode", "bogus"],
    ["heavyhitters", "--phi", "0.3", "--ca", "8", "--cv", "8",
     "--hh-mode", "multiindex"],
    ["pointquery", "--ca", "4", "--cv", "4"],
    ["fk", "--cv", "4"],
    ["matching"],
    ["subinjection"],
    ["subf2"],
    ["multiindex", "--cv", "16"],
    ["fk", "--k", "two"],
    ["nope"],
], ids=["fk-bad-mode", "disj-bad-mode", "hh-bad-mode", "hh-multiindex-mode",
        "missing-query",
        "missing-k", "missing-witness", "missing-z", "subf2-missing-z",
        "multiindex-missing-claims", "bad-type",
        "unknown-scheme"])
def test_cli_usage_errors_exit_2(argv, tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    kind = {"disj": "tagged", "matching": "edges",
            "subinjection": "bucketed"}.get(argv[0], "plain")
    with pytest.raises(SystemExit) as exc:
        cli_main([argv[0], "--input", str(paths[kind]), *argv[1:]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_model_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_stream(path, [U(3, 1), U(3, -2)], 64)  # prefix goes negative
    assert cli_main(["fk", "--input", str(path), "--k", "2"]) == 1
    assert "prefix frequency" in capsys.readouterr().err
    nonstrict = tmp_path / "ns.txt"
    write_stream(nonstrict, [U(3, 1), U(3, -2)], 64, model="nonstrict")
    assert cli_main(["selection", "--input", str(nonstrict), "--rank", "1",
                     "--ca", "8", "--cv", "8"]) == 1
    assert cli_main(["fk", "--input", str(nonstrict), "--k", "2"]) == 1
    assert "does not support the nonstrict model" in capsys.readouterr().err
    assert cli_main(["fk", "--input", str(nonstrict), "--k", "2",
                     "--mode", "footprint"]) == 0


# (scheme, flags, stream, declared model, message, the loosest model the
# scheme allows): each declared model is stricter than the loosest, so the
# stream reaches run_scheme's own check; declared the loosest, it runs
DELETE = [U(3, 2), U(3, -1)]  # strict, not insert-only
BELOW_ZERO = [U(3, 1), U(3, -2), U(3, 2)]  # non-strict: item 3 reaches -1
STRICTER_MODEL_CASES = [
    ("fk", ["--k", "2"], DELETE, "insert",
     "negative delta in insert-only stream", "strict"),
    ("subf2", ["--z-file", "@pairs"], DELETE, "insert",
     "negative delta in insert-only stream", "nonstrict"),
    ("subf2", ["--z-file", "@pairs"], BELOW_ZERO, "strict", "prefix frequency",
     "nonstrict"),
    ("pointquery", ["--query", "3", "--ca", "4", "--cv", "4"], BELOW_ZERO,
     "strict", "prefix frequency", "nonstrict"),
    ("fk", ["--k", "2", "--mode", "footprint"], BELOW_ZERO, "strict",
     "prefix frequency", "nonstrict"),
]


@pytest.mark.parametrize("scheme, flags, stream, model, message, loosest",
                         STRICTER_MODEL_CASES,
                         ids=["fk-insert", "subf2-insert", "subf2-strict",
                              "pointquery-strict", "fk-footprint-strict"])
def test_cli_stricter_declared_model_is_checked(scheme, flags, stream, model,
                                                message, loosest, tmp_path,
                                                capsys):
    paths = _write_inputs(tmp_path)
    argv = [scheme, "--input", str(tmp_path / "s.txt")] + [
        str(paths[f[1:]]) if f.startswith("@") else f for f in flags]
    write_stream(tmp_path / "s.txt", stream, 64, model=model)
    assert cli_main(argv) == 1
    assert message in capsys.readouterr().err
    write_stream(tmp_path / "s.txt", stream, 64, model=loosest)
    assert cli_main(argv) == 0


def test_cli_sparsity_cover_exits_1(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    assert cli_main(["pointquery", "--input", str(paths["plain"]),
                     "--query", "5", "--ca", "1", "--cv", "2"]) == 1
    assert cli_main(["selection", "--input", str(paths["plain"]),
                     "--rank", "1", "--ca", "2", "--cv", "2"]) == 1
    err = capsys.readouterr().err
    assert "c_a * c_v must cover" in err


@pytest.mark.parametrize("scheme, extra", [
    ("pointquery", ["--query", "1"]),
    ("selection", ["--rank", "1"]),
    ("heavyhitters", ["--phi", "0.3"]),
])
@pytest.mark.parametrize("ca, cv", [("1", "0"), ("-2", "-1"), ("0", "64")])
@pytest.mark.parametrize("stream", [[], [U(1, 1), U(2, 1)]],
                         ids=["empty", "two-items"])
def test_cli_cell_count_below_one_exits_1(scheme, extra, ca, cv, stream,
                                          tmp_path, capsys):
    # the size check comes before any other: without it these gave a
    # ZeroDivisionError, an IndexError or a rejected honest run
    path = tmp_path / "s.txt"
    write_stream(path, stream, PLAIN_N)
    assert cli_main([scheme, "--input", str(path), *extra, "--ca", ca,
                     "--cv", cv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: c_a and c_v must be at least 1")


def test_cli_negative_trials_exits_1(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    assert cli_main(["fk", "--input", str(paths["plain"]), "--k", "2",
                     "--trials", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be at least 0, not -3\n"


@pytest.mark.parametrize("claim", ["70 1", "-1 1", "5 -2"],
                         ids=["item-high", "item-negative", "count-negative"])
def test_cli_bad_multiindex_claim_exits_1(claim, tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    claims = tmp_path / "claims.txt"
    claims.write_text(claim + "\n")
    assert cli_main(["multiindex", "--input", str(paths["plain"]),
                     "--claims-file", str(claims), "--cv", "4"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_multiindex_claim_above_the_stream_weight_exits_0(tmp_path, capsys):
    # the stream's weight is 11: a claim of 100 is wrong, not implausible
    paths = _write_inputs(tmp_path)
    claims = tmp_path / "claims.txt"
    claims.write_text("5 100\n9 1\n")
    rc, out = _cli_json(capsys, ["multiindex", "--input", str(paths["plain"]),
                                 "--claims-file", str(claims), "--cv", "4"])
    assert rc == 0 and out["outcome"] == "value" and out["value"] == 0


def assert_refusal_timing(out):
    """A refused witness is timed: the prover's seconds to the refusal, and
    no verifier time, as no transcript was built."""
    assert set(out["timing"]) == {"prover_s", "verifier_s"}
    assert out["timing"]["prover_s"] >= 0
    assert out["timing"]["verifier_s"] == 0.0


def test_cli_unusable_tree_witness_rejects_with_exit_2(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    short = tmp_path / "short-tree.txt"
    short.write_text("root 0\n0 1\n0 2\n")  # 2 of the 3 tree edges
    rc, out = _cli_json(capsys, ["connectivity", "--input", str(paths["edges"]),
                                 "--witness-file", str(short)])
    assert rc == 2 and out["outcome"] == "reject" and "value" not in out
    assert out["phase"] == "begin"
    assert out["reason"] == ("witness refused: "
                             "witness edges do not span the graph")
    assert_refusal_timing(out)



@pytest.mark.parametrize("scheme, witness", [
    ("matching", "0 1\n2 2\n"), ("oddcycle", "0\n1\n2\n2\n3\n0\n"),
], ids=["matching", "oddcycle"])
def test_cli_self_loop_witness_rejects_with_exit_2(scheme, witness, tmp_path,
                                                    capsys):
    paths = _write_inputs(tmp_path)
    looped = tmp_path / "looped.txt"
    looped.write_text(witness)
    rc, out = _cli_json(capsys, [scheme, "--input", str(paths["edges"]),
                                 "--witness-file", str(looped)])
    assert rc == 2 and out["outcome"] == "reject" and "value" not in out
    assert out["phase"] == "begin"
    assert out["reason"] == "witness refused: self loop at vertex 2"
    assert_refusal_timing(out)


def test_cli_grid_budget_refusal_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sumcheck, "_EXT_BUDGET", 1000)
    paths = _write_inputs(tmp_path)
    matching = tmp_path / "matching.txt"
    matching.write_text("0 1\n2 3\n")
    assert cli_main(["matching", "--input", str(paths["edges"]),
                     "--witness-file", str(matching), "--cv", "2"]) == 1
    assert "extension grid" in capsys.readouterr().err


def test_cli_rejected_witness_exits_2(tmp_path, capsys):
    # (1, 3) is no edge: the verifier rejects, and the run is a refusal
    paths = _write_inputs(tmp_path)
    off_graph = tmp_path / "off-graph.txt"
    off_graph.write_text("0 2\n1 3\n")
    rc, out = _cli_json(capsys, ["matching", "--input", str(paths["edges"]),
                                 "--witness-file", str(off_graph)])
    assert rc == 2 and out["outcome"] == "reject" and "value" not in out
    assert out["hcost_bits"] > 0


def test_cli_bad_witness_file_exits_1(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    assert cli_main(["connectivity", "--input", str(paths["edges"]),
                     "--witness-file", str(paths["matching"])]) == 1
    assert cli_main(["subinjection", "--input", str(paths["bucketed"]),
                     "--z-file", str(tmp_path / "missing.txt")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scheme, text, key", [
    ("fk", "# model=strict\n5 1\n", "n="),
    ("subinjection", "# n=16 model=strict\n3 0 1\n", "r="),
    ("matching", "# n=4 model=strict\n0 1 1\n", "vertices="),
    ("disj", "# n=16 model=strict\nS 1 1\nZ 1 1\n", "'Z'"),
], ids=["no-n", "no-r", "no-vertices", "unknown-tag"])
def test_cli_bad_stream_header_or_tag_exits_1(scheme, text, key, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    extra = {"fk": ["--k", "2"], "subinjection": ["--z-file", str(path)],
             "matching": ["--witness-file", str(path)], "disj": []}[scheme]
    assert cli_main([scheme, "--input", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and key in err


@pytest.mark.parametrize("scheme, line, z", [
    ("injection", "0 7 1", None),
    ("ama-injection", "0 7 1", None),
    ("subinjection", "0 7 1", "0 1"),
    ("injection", "1 -1 1", None),
    ("subinjection", "0 1 1", "9 1"),
    ("subinjection", "0 1 1", "-1 1"),
    ("subf2", "0 1", "9 1"),
    ("subf2", "0 1", "-1 1"),
    ("pointquery", "0 1", "100"),
    ("pointquery", "0 1", "-1"),
    ("selection", "0 3", "4"),
    ("selection", "0 3", "0"),
], ids=["injection-bucket-high", "ama-injection-bucket-high",
        "subinjection-bucket-high", "injection-bucket-negative",
        "subinjection-z-high", "subinjection-z-negative", "subf2-z-high",
        "subf2-z-negative", "pointquery-query-high",
        "pointquery-query-negative", "selection-rank-high",
        "selection-rank-zero"])
def test_cli_index_out_of_range_exits_1(scheme, line, z, tmp_path, capsys):
    """z: the z file's line, pointquery's --query or selection's --rank
    (a rank outside [1, N])."""
    path = tmp_path / "s.txt"
    header = ("# n=8 r=4 model=strict\n" if scheme.endswith("injection")
              else "# n=8 model=strict\n")
    path.write_text(header + line + "\n")
    extra = []
    if scheme in ("pointquery", "selection"):
        flag = "--query" if scheme == "pointquery" else "--rank"
        extra = [flag, z, "--ca", "2", "--cv", "2"]
    elif z is not None:
        zpath = tmp_path / "z.txt"
        zpath.write_text(z + "\n")
        extra = ["--z-file", str(zpath)]
    assert cli_main([scheme, "--input", str(path), *extra]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("lines", ["S 1 2\n", "S 1 1\nT 1 1\nT 1 1\n"],
                         ids=["count-2-in-S", "count-2-in-T"])
def test_cli_hamming_needs_binary_vectors_exits_1(lines, tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("# model=strict n=8\n" + lines)
    assert cli_main(["hamming", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "0/1" in err


def test_cli_subset_needs_binary_vectors_exits_1(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    assert cli_main(["subset", "--input", str(paths["tagged"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "subset needs 0/1 vectors" in err


@pytest.mark.parametrize("text, message", [
    ("5 1\n9 2\n", "missing header line"),
    ("# n=64 model=sideways\n5 1\n", "unknown update model 'sideways'"),
], ids=["no-header", "unknown-model"])
def test_cli_stream_without_header_or_known_model_exits_1(text, message,
                                                           tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(text)
    assert cli_main(["fk", "--input", str(path), "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_cli_oversized_extension_grid_exits_1(tmp_path, capsys):
    # fk AMA at m=1200, n=2^20, c_v=16 needs a c_a=16384 grid of about 11 GB
    path = tmp_path / "s.txt"
    write_stream(path, [U(i, 1) for i in range(0, 1200 * 800, 800)], 1 << 20,
                 model="nonstrict")
    assert cli_main(["fk", "--input", str(path), "--k", "2", "--cv", "16",
                     "--mode", "ama"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "c_a=16384" in err


@pytest.mark.parametrize("scheme, stream, witness, message", [
    ("matching", "-1 2 1\n2 3 1\n", "0 1\n2 3\n",
     "vertex -1 of edge (-1, 2) outside [0, 4)"),
    ("triangles", "-1 2 1\n1 2 1\n0 2 1\n", None,
     "vertex -1 of edge (-1, 2) outside [0, 4)"),
    ("oddcycle", "0 1 1\n0 1 1\n1 2 1\n", "0\n1\n2\n0\n",
     "edge (0, 1) has final count 2, not 0 or 1"),
    ("matching", "0 1 2\n1 2 1\n", "0 1\n2 3\n",
     "edge (0, 1) has final count 2, not 0 or 1"),
], ids=["matching-negative-vertex", "triangles-negative-vertex",
        "oddcycle-repeated-edge", "matching-repeated-edge"])
def test_cli_edge_stream_not_a_simple_graph_exits_1(scheme, stream, witness,
                                                     message, tmp_path, capsys):
    vertices = 3 if scheme == "oddcycle" else 4
    path = tmp_path / "g.txt"
    path.write_text(f"# vertices={vertices} model=strict\n{stream}")
    extra = []
    if witness is not None:
        wpath = tmp_path / "w.txt"
        wpath.write_text(witness)
        extra = ["--witness-file", str(wpath)]
    assert cli_main([scheme, "--input", str(path), *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_tagged_item_named_as_given(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("# n=16 model=strict\nS 3 1\nT 40 1\n")
    assert cli_main(["innerproduct", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: item 40 of T outside [0, 16)\n"


@pytest.mark.parametrize("scheme, line", [
    ("fk", "3 1 1"), ("fk", "3 x"), ("disj", "S 3"), ("injection", "3 1"),
    ("triangles", "0 1"),
], ids=["plain-long", "plain-word", "tagged-short", "bucketed-short",
        "edges-short"])
def test_cli_bad_stream_line_exits_1(scheme, line, tmp_path, capsys):
    path = tmp_path / "s.txt"
    header = {"injection": "# n=8 r=4", "triangles": "# vertices=4"}.get(
        scheme, "# n=8")
    path.write_text(f"{header}\n  # indented comment\n{line}\n")
    extra = ["--k", "2"] if scheme == "fk" else []
    assert cli_main([scheme, "--input", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 3:")


@pytest.mark.parametrize("report", ["json", "tsv"])
def test_cli_reject_reports_reason_and_phase(report, tmp_path, capsys):
    # a tampered proof is caught at the end of the stream: the report names
    # the reason and the phase, and keeps every key of an honest report
    paths = _write_inputs(tmp_path)
    argv = ["fk", "--input", str(paths["plain"]), "--k", "2", "--seed",
            str(SEED), "--report", report]
    assert cli_main(argv + ["--prover", "tamper-proof-polynomial"]) == 2
    text = capsys.readouterr().out
    if report == "json":
        out = json.loads(text)
    else:
        keys, values = text.splitlines()
        out = dict(zip(keys.split("\t"), values.split("\t")))
    assert out["outcome"] == "reject" and "value" not in out
    assert out["reason"] and out["phase"] == "end" and "update" not in out
    assert {"scheme", "hcost_bits", "vcost_words", "vcost_bits",
            "seed"} <= set(out)


def test_cli_honest_report_has_no_reason(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    rc, out = _cli_json(capsys, ["fk", "--input", str(paths["plain"]),
                                 "--k", "2"])
    assert rc == 0 and out["outcome"] == "value"
    assert not {"reason", "phase", "update"} & set(out)


@pytest.mark.parametrize("prover", ["honest", "tamper-proof-polynomial"])
def test_cli_report_carries_prover_and_verifier_time(prover, tmp_path, capsys):
    # accepted or rejected, the report times both sides of the run, and the
    # verifier's time is the run's CostReport.wall_time
    paths = _write_inputs(tmp_path)
    rc, out = _cli_json(capsys, ["fk", "--input", str(paths["plain"]),
                                 "--k", "2", "--seed", str(SEED),
                                 "--prover", prover])
    assert rc == (0 if prover == "honest" else 2)
    assert set(out["timing"]) == {"prover_s", "verifier_s"}
    assert all(t >= 0 for t in out["timing"].values())
    result = run_scheme(RunConfig("fk", PLAIN_N, "strict", seed=SEED,
                                  params={"k": 2}), PLAIN)
    assert result.info["timing"]["verifier_s"] == result.cost.wall_time


def test_cli_reject_in_update_phase_names_the_update(tmp_path, capsys,
                                                     monkeypatch):
    # no honest-prover scheme rejects mid-stream, so the run's record is
    # stood in for: the report copies its reason, phase and update index
    reject = {"phase": "update", "reason": "stand-in reason", "update": 3}
    monkeypatch.setattr(cli, "run_scheme", lambda config, updates: RunResult(
        Outcome.reject(), CostReport(10, 2, 128, 0.0), {"reject": reject}))
    paths = _write_inputs(tmp_path)
    rc, out = _cli_json(capsys, ["fk", "--input", str(paths["plain"]),
                                 "--k", "2"])
    assert rc == 2 and out["outcome"] == "reject"
    assert {k: out[k] for k in reject} == reject
