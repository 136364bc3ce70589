"""Command line interface.

    streamcert <scheme> --input FILE [--params...] --seed S \
        --prover honest|<strategy> [--trials T] [--report json|tsv]

Exit codes: 0 = accepted, 2 = rejected (bottom), 1 = usage/config error."""

import argparse
import json
import sys

from .harness import (REQUIRED, RunConfig, SCHEMES, cost_sweep, run_scheme,
                      scheme_flags, soundness_trials)
from .protocol import ConfigError
from .streams import ModelViolation, read_stream


def _build_parser():
    ap = argparse.ArgumentParser(prog="streamcert")
    sub = ap.add_subparsers(dest="scheme", required=True)
    for name in SCHEMES:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--prover", default="honest")
        p.add_argument("--trials", type=int, default=0)
        p.add_argument("--report", choices=("json", "tsv"), default="json")
        for param in scheme_flags(name)[1]:
            if param.flag is not None:
                p.add_argument(param.flag, type=str if param.read else param.type,
                               choices=param.choices,
                               required=param.default is REQUIRED)

    p = sub.add_parser("sweep")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m-list", default="256,1024,4096")
    p.add_argument("--cv-list", default="16")
    p.add_argument("--n", type=int, default=1 << 20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("json", "tsv"), default="tsv")
    return ap


def _load(args):
    """(updates, n, model, params) from the stream file and the flags; flags
    left out are absent from params, so run_scheme fills their defaults."""
    kind, flags = scheme_flags(args.scheme)
    updates, n, model, params = read_stream(args.input, kind)
    for param in flags:
        value = (getattr(args, param.flag[2:].replace("-", "_"), None)
                 if param.flag else None)
        if value is not None:
            params[param.key] = param.read(value) if param.read else value
    return updates, n, model, params


def _emit(report, payload):
    """One run's payload, or the sweep's list of rows; TSV prints a row's
    keys sorted, or the sweep's in their order."""
    if report == "json":
        print(json.dumps(payload))
        return
    rows = payload if isinstance(payload, list) else [payload]
    keys = list(rows[0]) if isinstance(payload, list) else sorted(payload)
    print("\t".join(keys))
    for row in rows:
        print("\t".join(str(row[k]) for k in keys))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.scheme == "sweep":
            ms = [int(x) for x in args.m_list.split(",")]
            cvs = [int(x) for x in args.cv_list.split(",")]
            _emit(args.report, cost_sweep(args.k, ms, cvs, n=args.n,
                                          seed=args.seed))
            return 0

        updates, n, model, params = _load(args)
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
        payload["value"] = value
    _emit(args.report, payload)
    return 0 if not outcome.rejected else 2


if __name__ == "__main__":
    sys.exit(main())
