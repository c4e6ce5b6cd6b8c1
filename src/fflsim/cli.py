"""Command-line interface.

    fflsim run      --config cfg.json [--out DIR] [--seed N] [--scheme NAME]
    fflsim compare  --config cfg.json [--out DIR] [--seed N] SCHEME SCHEME...
    fflsim selftest

Exit codes: 0 success, 2 configuration error (an output path that cannot
be made a directory included, found before round 0), 1 runtime error.  A run
that diverges is one: `run` writes its artifacts, prints its summary line
and then `error: <message>` on stderr; `compare` runs every scheme, then
prints `error: scheme <name> diverged: <message>` for each that did.
Neither prints a traceback, nor numpy's warnings about the overflow that
the error names.  Any other exception prints its traceback, then
`error: <message>`, and exits 1.  Nothing is logged: a run is explained by
its artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import traceback

import numpy as np

from .config import SCHEMES, ExperimentConfig, load_config
from .errors import ConfigError
from .federation import run_experiment

COMPARE_COLUMNS = ("scheme", "time_to_target_s", "final_acc", "final_test_loss", "rounds",
                   "total_atoms", "speedup_vs_ffl", "status")


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "scheme", None) is not None:
        overrides["scheme"] = args.scheme
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
        cfg.validate()
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    _, summary = run_experiment(cfg)
    print(
        f"scheme={summary['scheme']} status={summary['status']} rounds={summary['rounds']} "
        f"final_acc={summary['final_acc']:.4f} time_to_target_s={summary['time_to_target_s']}"
    )
    if summary["status"] == "diverged":
        print(f"error: {summary['error']}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.schemes) < 2:
        raise ConfigError(f"compare needs at least two schemes, got {args.schemes}")
    for i, scheme in enumerate(args.schemes):
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        if scheme in args.schemes[:i]:
            raise ConfigError(f"scheme {scheme!r} is given twice; compare runs each scheme once")
    base = _effective_config(args)
    out_dir = base.output_dir  # empty: print the table and write nothing, as `run` does
    summaries = {}
    for scheme in args.schemes:  # a scheme that diverges gets its row; the rest still run
        _, summaries[scheme] = run_experiment(
            dataclasses.replace(base, scheme=scheme),
            names=(f"metrics_{scheme}.csv", f"summary_{scheme}.json"),
        )

    ffl_time = summaries.get("ffl", {}).get("time_to_target_s", "inf")
    rows = []
    for scheme in args.schemes:
        s = summaries[scheme]
        t = s["time_to_target_s"]
        if t == "inf" or ffl_time == "inf":
            speedup = "inf" if t == "inf" else "nan"
        else:
            speedup = t / ffl_time
        rows.append([scheme, t, s["final_acc"], s["final_test_loss"], s["rounds"],
                     s["total_atoms_sent"], speedup, s["status"]])
    if out_dir:
        with open(os.path.join(out_dir, "compare.csv"), "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(COMPARE_COLUMNS)
            writer.writerows(rows)
    print(f"{'scheme':<14} {'time_to_target_s':>18} {'final_acc':>10} {'final_test_loss':>16} "
          f"{'rounds':>8} {'total_atoms':>12}  status")
    for row in rows:
        t = row[1] if isinstance(row[1], str) else f"{row[1]:.3f}"
        print(f"{row[0]:<14} {t:>18} {row[2]:>10.4f} {row[3]:>16.4f} {row[4]:>8} {row[5]:>12}  "
              f"{row[7]}")
    diverged = [scheme for scheme in args.schemes if summaries[scheme]["status"] == "diverged"]
    for scheme in diverged:
        print(f"error: scheme {scheme} diverged: {summaries[scheme]['error']}", file=sys.stderr)
    return 1 if diverged else 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fflsim",
        description="Simulator for communication-adaptive federated SGD "
        "with unbiased gradient compression.",
        epilog="examples:\n"
        "  fflsim run --config experiment.json --out results/\n"
        "  fflsim compare --config experiment.json ffl atomo_like adacomm_like\n"
        "  fflsim selftest\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write metrics/summary")
    run_p.add_argument("--config", required=True, help="path to the JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")
    run_p.add_argument("--scheme", default=None, choices=SCHEMES, help="scheme override")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several schemes on shared seeds and data")
    cmp_p.add_argument("--config", required=True, help="path to the JSON experiment config")
    cmp_p.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    cmp_p.add_argument("--seed", type=int, default=None, help="master seed override")
    cmp_p.add_argument("schemes", nargs="*", help="two or more schemes to compare")
    cmp_p.set_defaults(func=cmd_compare)

    self_p = sub.add_parser("selftest", help="run the fast property self-checks")
    self_p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the non-finite checks report a diverging run in one error line;
        # numpy's warnings about the same overflow would print before it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
