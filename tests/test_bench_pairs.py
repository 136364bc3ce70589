"""tools/bench_pairs.py with its runs stood in for: the pairing, the wins,
the interquartile range and the stops on a failed run or a changed CPU
count."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("run_s", "lower", 0.25), ("verifier_updates_per_s", "higher", 0.25)]


def _stub_runs(monkeypatch, values, nproc=None):
    """run_once answers from values[(checkout, seed)], on 2 CPUs or
    nproc[(checkout, seed)]; returns the calls."""
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, workload, seed, seconds, trace))
        return (nproc or {}).get((checkout, seed), 2), values[checkout, seed]

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_pairs_alternate_and_count_wins(monkeypatch, capsys):
    # the change is faster in pairs 1-3 and slower in pair 4, on both
    # metrics; each metric's better direction decides a win
    parent = {1: (1.0, 100.0), 2: (2.0, 110.0), 3: (3.0, 120.0), 4: (4.0, 130.0)}
    change = {1: (0.5, 150.0), 2: (1.5, 160.0), 3: (2.5, 170.0), 4: (5.0, 90.0)}
    values = {}
    for checkout, runs in (("P", parent), ("C", change)):
        for seed, (run_s, rate) in runs.items():
            values[checkout, seed] = {"run_s": run_s,
                                      "verifier_updates_per_s": rate}
    calls = _stub_runs(monkeypatch, values)
    samples = bench_pairs.compare("P", "C", "fk-churn", 4, 15, METRICS,
                                  trace=True)
    # pair i runs seed i on both sides, the parent first in even pairs
    assert [(c[0], c[2]) for c in calls] == [
        ("P", 1), ("C", 1), ("C", 2), ("P", 2),
        ("P", 3), ("C", 3), ("C", 4), ("P", 4)]
    assert all(c[1:2] == ("fk-churn",) and c[3:] == (15, True) for c in calls)
    rows = {r[0]: r for r in bench_pairs.summarize(samples, METRICS)}
    name, m_old, m_new, move, wins, spread, verdict = rows["run_s"]
    # the parent's IQR is wider than a quarter of its median
    assert (m_old, m_new, wins, verdict) == (2.5, 2.0, 3, "UNRESOLVED")
    assert move == pytest.approx(-0.2)
    # quartiles of 1, 2, 3, 4 (exclusive method): 1.25 and 3.75
    assert spread == pytest.approx(2.5)
    assert rows["verifier_updates_per_s"][4] == 3
    out = capsys.readouterr().out
    assert "fk-churn (4 pairs, 15 s, traced, seeds 1..4), nproc 2" in out
    assert "-20.0%" in out and "3/4" in out and "OVER BOUND" not in out


@pytest.mark.parametrize("better, old, new, over", [
    ("lower", 1.0, 1.25, False),   # worse by the bound exactly
    ("lower", 1.0, 1.26, True),
    ("lower", 1.0, 0.5, False),    # better
    ("higher", 100.0, 75.0, False),
    ("higher", 100.0, 74.0, True),
    ("higher", 100.0, 200.0, False),
    ("lower", 0.0, 0.1, True),     # any worsening of a zero median
    ("lower", 0.0, 0.0, False),
], ids=["lower-at-bound", "lower-over", "lower-better", "higher-at-bound",
        "higher-over", "higher-better", "zero-worse", "zero-same"])
def test_summary_flags_a_median_worse_than_its_bound(better, old, new, over):
    samples = {"parent": [{"m": old}] * 3, "change": [{"m": new}] * 3}
    row, = bench_pairs.summarize(samples, [("m", better, 0.25)])
    assert (row[6] == "OVER BOUND") is over
    # a metric without a bound (a per-layer one) is never flagged
    row, = bench_pairs.summarize(samples, [("m", better, None)])
    assert row[6] != "OVER BOUND"


def test_printed_table_marks_a_row_over_its_bound(monkeypatch, capsys):
    values = {("P", 1): {"run_s": 1.0, "verifier_updates_per_s": 100.0},
              ("C", 1): {"run_s": 2.0, "verifier_updates_per_s": 100.0}}
    _stub_runs(monkeypatch, values)
    bench_pairs.compare("P", "C", "fk-online", 1, 15, METRICS)
    lines = capsys.readouterr().out.splitlines()
    flagged = [line.split()[0] for line in lines if "OVER BOUND" in line]
    assert flagged == ["run_s"]


TENTHS = [1.0 + k / 10 for k in range(10)]  # median 1.45, IQR 0.55


@pytest.mark.parametrize("old, new, better, bound, verdict", [
    ([1.0] * 10, [1.3] * 10, "lower", 0.25, "OVER BOUND"),
    # a spread over the bound: UNRESOLVED, even where the change won every
    # pair, unless every change run beats every parent run
    (TENTHS, [x - 0.05 for x in TENTHS], "lower", 0.25, "UNRESOLVED"),
    (TENTHS, [x - 0.5 for x in TENTHS], "lower", 0.25, "UNRESOLVED"),
    (TENTHS, [x - 1.0 for x in TENTHS], "lower", 0.25, "GAIN"),
    (TENTHS, [x - 0.05 for x in TENTHS], "lower", None, "-"),
    (TENTHS, [x - 1.0 for x in TENTHS], "lower", None, "GAIN"),
    ([1.0] * 10, [0.9] * 10, "lower", 0.25, "GAIN"),
    ([100.0] * 10, [101.0] * 10, "higher", 0.25, "GAIN"),
    # 9 wins and a tie in 10 pairs is a gain; 8 wins and two ties is not
    ([1.0] * 10, [0.9] * 9 + [1.0], "lower", 0.25, "GAIN"),
    ([1.0] * 10, [0.9] * 8 + [1.0] * 2, "lower", 0.25, "-"),
    # every pair won, but by less than the parent's IQR
    ([1.0, 1.1] * 5, [0.99, 1.09] * 5, "lower", 0.25, "-"),
    ([1.0] * 10, [1.1] * 10, "lower", 0.25, "-"),
], ids=["over-bound", "unresolved", "unresolved-all-pairs-won",
        "every-run-better", "no-bound-no-gain", "no-bound-gain",
        "gain", "gain-higher", "gain-nine-of-ten", "eight-of-ten",
        "within-iqr", "worse-within-bound"])
def test_verdict(old, new, better, bound, verdict):
    samples = {"parent": [{"m": v} for v in old],
               "change": [{"m": v} for v in new]}
    row, = bench_pairs.summarize(samples, [("m", better, bound)])
    assert row[6] == verdict


def test_printed_table_gives_each_row_its_verdict(monkeypatch, capsys):
    values = {("P", 1): {"run_s": 1.0, "verifier_updates_per_s": 100.0},
              ("C", 1): {"run_s": 0.5, "verifier_updates_per_s": 100.0}}
    _stub_runs(monkeypatch, values)
    bench_pairs.compare("P", "C", "fk-online", 1, 15, METRICS)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-1] == "verdict"
    assert [line.split()[-1] for line in lines[2:]] == ["GAIN", "-"]


def test_summary_skips_a_metric_one_side_lacks():
    samples = {"parent": [{"a": 1.0, "b": 0.0}, {"a": 3.0, "b": 0.0}],
               "change": [{"a": 2.0, "b": 1.0}, {"a": 2.0}]}
    rows = bench_pairs.summarize(samples, [("a", "lower", None),
                                           ("b", "lower", None)])
    assert [r[0] for r in rows] == ["a"]
    assert rows[0][3] == 0.0 and rows[0][4] == 1
    assert bench_pairs.summarize(
        {"parent": [{"b": 0.0}], "change": [{"b": 1.0}]},
        [("b", "lower", None)])[0][3] is None
    assert bench_pairs.iqr([5.0]) == 0.0


def _output(failed=0, digest="[]", sites="[]",
            env="env: python 3.11.7, nproc 2, loadavg [0.5, 0.25, 0.125]"):
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}
    return "\n".join([env, f"sites_missing: {sites}",
                      f"digest_mismatches: {digest}", json.dumps(result)])


def test_read_result_takes_the_last_line():
    assert bench_pairs.read_result("w", 0, _output(), "") == (2, {"run_s": 0.5})
    assert bench_pairs.read_result("w", 0, _output(), "", trace=True) == (
        2, {"run_s": 0.5})
    one = _output(env="env: python 3.13.1, nproc 1, loadavg [1.0, 1.0, 1.0]")
    assert bench_pairs.read_result("w", 0, one, "")[0] == 1


@pytest.mark.parametrize("returncode, stdout, trace, why", [
    (1, _output(), False, "exited 1"),
    (0, "", False, "exited 0"),
    (0, _output(failed=2), False, "failed 2 operations"),
    (0, _output(digest='["seed 1: differs"]'), False, "mismatched a digest"),
    (0, _output(sites='["streamcert.moments.gone"]'), True, "tracing site"),
    (0, _output(env="env: python 3.11.7"), False, "no nproc"),
    (0, _output(env="python 3.11.7, nproc 2"), False, "no nproc"),
], ids=["nonzero-exit", "no-output", "failed-operations", "digest-mismatch",
        "site-missing", "env-without-nproc", "no-env-line"])
def test_a_failed_run_stops_the_comparison(returncode, stdout, trace, why):
    with pytest.raises(SystemExit, match=why):
        bench_pairs.read_result("w", returncode, stdout, "boom", trace)


def test_compare_stops_at_the_first_failed_run(monkeypatch):
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        calls.append(checkout)
        if checkout == "C":
            raise SystemExit("C: fk-churn seed 1 failed 1 operations")
        return 2, {"run_s": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit, match="failed 1 operations"):
        bench_pairs.compare("P", "C", "fk-churn", 3, 15, METRICS)
    assert calls == ["P", "C"]


def test_runs_get_fresh_copies_not_the_checkouts(monkeypatch, tmp_path):
    # main copies both checkouts without .git, __pycache__ and
    # .perfbench-work, runs every pair in the copies, and removes them
    bench = {"run_seconds": 15, "workloads": [{"name": "fk-churn"}],
             "end_to_end": [{"name": "run_s", "better": "lower",
                             "bound": 0.25}], "per_layer": []}
    checkouts = {}
    for side in ("P", "C"):
        root = tmp_path / side
        for sub in (".git", "__pycache__", ".perfbench-work", "src"):
            (root / sub).mkdir(parents=True)
            (root / sub / "x.txt").write_text(side)
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
        checkouts[side] = str(root)
    seen = []

    def run_once(checkout, workload, seed, seconds, trace=False):
        assert sorted(os.listdir(checkout)) == ["BENCHMARK.json", "src"]
        with open(os.path.join(checkout, "src", "x.txt")) as fh:
            seen.append((checkout, fh.read()))
        return 2, {"run_s": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([checkouts["P"], checkouts["C"],
                             "--pairs", "2"]) == 0
    parent, change = seen[0][0], seen[1][0]
    assert seen == [(parent, "P"), (change, "C"), (change, "C"), (parent, "P")]
    assert {parent, change}.isdisjoint(checkouts.values())
    assert len(parent) == len(change) and parent != change
    assert not os.path.exists(parent) and not os.path.exists(change)
    for root in checkouts.values():  # the checkouts stay as they were
        assert len(os.listdir(root)) == 5


@pytest.mark.parametrize("side, seed", [("C", 1), ("P", 2), ("C", 3)])
def test_compare_stops_when_a_run_has_another_cpu_count(monkeypatch, capsys,
                                                        side, seed):
    # every run but one on 2 CPUs: the comparison stops at that run, before
    # any table is printed
    values = {(c, s): {"run_s": 1.0, "verifier_updates_per_s": 1.0}
              for c in "PC" for s in (1, 2, 3)}
    calls = _stub_runs(monkeypatch, values, nproc={(side, seed): 1})
    with pytest.raises(SystemExit, match=f"seed {seed} ran with nproc 1, "
                                         "the first run with nproc 2"):
        bench_pairs.compare("P", "C", "fk-online", 3, 15, METRICS)
    assert (calls[-1][0], calls[-1][2]) == (side, seed)
    assert "fk-online (" not in capsys.readouterr().out
