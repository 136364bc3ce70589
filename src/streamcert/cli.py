"""Command line interface.

    streamcert <scheme> --input FILE [--params...] --seed S \
        --prover honest|<strategy> [--trials T] [--report json|tsv]

Exit codes: 0 = accepted, 2 = rejected (bottom), 1 = usage/config error."""

import argparse
import json
import sys

from .harness import RunConfig, SCHEMES, cost_sweep, run_scheme, soundness_trials
from .protocol import ConfigError, RelaxedOutcome
from .streams import (ModelViolation, read_bucketed_stream, read_edge_stream,
                      read_stream, read_tagged_stream)

_STREAM_KINDS = {name: kind for name, (_, kind, _) in SCHEMES.items()}


def _build_parser():
    ap = argparse.ArgumentParser(prog="streamcert")
    sub = ap.add_subparsers(dest="scheme", required=True)

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--prover", default="honest")
        p.add_argument("--trials", type=int, default=0)
        p.add_argument("--report", choices=("json", "tsv"), default="json")

    p = sub.add_parser("pointquery")
    common(p)
    p.add_argument("--query", type=int, required=True)
    p.add_argument("--ca", type=int, required=True)
    p.add_argument("--cv", type=int, required=True)

    p = sub.add_parser("selection")
    common(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--ca", type=int, required=True)
    p.add_argument("--cv", type=int, required=True)

    p = sub.add_parser("heavyhitters")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--ca", type=int, required=True)
    p.add_argument("--cv", type=int, required=True)
    p.add_argument("--hh-mode", choices=("openings", "multiindex"),
                   default="openings")

    p = sub.add_parser("fk")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cv", type=int, default=16)
    p.add_argument("--mode", choices=("prescient", "online", "footprint", "ama"),
                   default="online")
    p.add_argument("--coins-seed", type=int, default=None)

    p = sub.add_parser("disj")
    common(p)
    p.add_argument("--mode", choices=("prescient", "online"), default="online")
    p.add_argument("--cv", type=int, default=16)

    for name in ("subset", "innerproduct", "hamming"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--cv", type=int, default=16)

    p = sub.add_parser("injection")
    common(p)

    p = sub.add_parser("subinjection")
    common(p)
    p.add_argument("--z-file", required=True)

    p = sub.add_parser("ama-injection")
    common(p)
    p.add_argument("--coins-seed", type=int, default=None)

    p = sub.add_parser("triangles")
    common(p)
    p.add_argument("--cv", type=int, default=64)

    for name in ("matching", "connectivity", "oddcycle"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--witness-file", required=True)
        p.add_argument("--cv", type=int, default=16)

    p = sub.add_parser("sweep")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m-list", default="256,1024,4096")
    p.add_argument("--cv-list", default="16")
    p.add_argument("--n", type=int, default=1 << 20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("json", "tsv"), default="tsv")
    return ap


def _read_witness(scheme, path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    if scheme == "matching":
        return [(int(a), int(b)) for a, b in lines]
    if scheme == "connectivity":
        root = None
        edges = []
        for parts in lines:
            if parts[0] == "root":
                root = int(parts[1])
            else:
                edges.append((int(parts[0]), int(parts[1])))
        if root is None:
            raise ConfigError("connectivity witness needs a 'root <r>' line")
        return (root, edges)
    return [int(parts[0]) for parts in lines]  # odd cycle: one vertex per line


def _read_z(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [(int(a), int(b)) for a, b in
                (ln.split() for ln in fh if ln.strip() and not ln.startswith("#"))]


def _load(scheme, path, args):
    kind = _STREAM_KINDS[scheme]
    params = {}
    if kind == "plain":
        updates, n, model = read_stream(path)
    elif kind == "tagged":
        updates, n, model = read_tagged_stream(path)
    elif kind == "bucketed":
        updates, n, r, model = read_bucketed_stream(path)
        params["r"] = r
    else:
        updates, n, model = read_edge_stream(path)
    return updates, n, model, params


def _params_from_args(scheme, args, base):
    p = dict(base)
    for src, dst in (("query", "query"), ("rank", "rank"), ("phi", "phi"),
                     ("ca", "c_a"), ("cv", "c_v"), ("k", "k"), ("mode", "mode"),
                     ("hh_mode", "hh_mode"), ("coins_seed", "coins_seed")):
        if getattr(args, src, None) is not None:
            p[dst] = getattr(args, src)
    if getattr(args, "z_file", None):
        p["z"] = _read_z(args.z_file)
    if getattr(args, "witness_file", None):
        p["witness"] = _read_witness(scheme, args.witness_file)
    return p


def _emit(report, payload):
    if report == "json":
        print(json.dumps(payload))
    else:
        keys = sorted(payload)
        print("\t".join(keys))
        print("\t".join(str(payload[k]) for k in keys))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.scheme == "sweep":
            ms = [int(x) for x in args.m_list.split(",")]
            cvs = [int(x) for x in args.cv_list.split(",")]
            rows = cost_sweep(args.k, ms, cvs, n=args.n, seed=args.seed)
            if args.report == "json":
                print(json.dumps(rows))
            else:
                keys = ["m", "c_v", "k", "accepted", "value", "hcost_bits",
                        "vcost_words"]
                print("\t".join(keys))
                for row in rows:
                    print("\t".join(str(row[k]) for k in keys))
            return 0

        updates, n, model, base_params = _load(args.scheme, args.input, args)
        params = _params_from_args(args.scheme, args, base_params)
        config = RunConfig(scheme=args.scheme, n=n, model=model,
                           seed=args.seed, prover=args.prover, params=params)
        if args.trials:
            accepted = soundness_trials(config, updates, args.trials)
            _emit(args.report, {"scheme": args.scheme, "trials": args.trials,
                                "accepted": accepted, "seed": args.seed})
            return 0
        result = run_scheme(config, updates)
    except (ConfigError, ModelViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcome = result.outcome
    payload = {
        "scheme": args.scheme,
        "outcome": "reject" if outcome.rejected else "value",
        "hcost_bits": result.cost.hcost_bits,
        "vcost_words": result.cost.vcost_words,
        "vcost_bits": result.cost.vcost_bits,
        "seed": args.seed,
    }
    if not outcome.rejected:
        value = outcome.value
        if isinstance(value, frozenset):
            value = sorted(value)
        if isinstance(outcome, RelaxedOutcome):
            value = 1
        payload["value"] = value
    _emit(args.report, payload)
    return 0 if not outcome.rejected else 2


if __name__ == "__main__":
    sys.exit(main())
