"""Command-line interface.

Subcommands: simulate, census, ci, test, mc, version.  Machine output is
JSON on stdout (CSV files for mc); `--pretty` switches to an aligned
key/value table for humans.  Exit codes: 0 success, 1 usage error, 2
data/validation error (including an input too large for the census to
count exactly), 3 degenerate inference.

Every command runs on one thread.  `--threads` is still accepted and must
be a positive integer, but it selects nothing: outputs are the same for
any value.

Each decision has one owner: shared flags are declared once, on parent
parsers; the `--method` choices are `bootstrap.METHODS` (ci) and
`inference.EXPANSION_METHODS` (test); `harness.ExperimentConfig` checks the
whole `mc` config before `harness.run_study` creates `--out`.  A flag or
key the chosen method or study ignores is refused (exit 1) before any file
is read or written: `ci --c-delta` above 0 or `--draws-out` without
`--method bootstrap`, `mc --plot-data` outside a coverage study, and the
config keys `harness.ExperimentConfig` refuses for its study.
"""

import argparse
import dataclasses
import json
import sys

from . import __version__
from .bootstrap import METHODS, bootstrap_distribution, bootstrap_report
from .census import TARGETS
from .census import census as run_census
from .errors import ConfigError, DegenerateError, SignedBalanceError
from .graph import read_edge_list, write_edge_list
from .graphon import sample_network, spec_from_json
from .harness import ExperimentConfig, load_config, run_study
from .inference import (
    EXPANSION_METHODS,
    adjusted_null,
    balance_test,
    check_c_delta,
    check_level,
    check_threads,
    confidence_interval,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _emit(obj, pretty):
    if pretty:
        for key, value in obj.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2:<22} {v2}")
            else:
                print(f"{key:<24} {value}")
    else:
        print(json.dumps(obj))


def _shared(*names_or_flags, **kwargs):
    """A parent parser declaring one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names_or_flags, **kwargs)
    return parent


def build_parser():
    parser = _Parser(prog="signed-balance", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    pretty = _shared("--pretty", action="store_true", help="table output instead of JSON")
    infile = _shared("--in", dest="infile", required=True, help="edge-list file")
    target = _shared("--target", default="balanced", choices=TARGETS, help="estimand")
    threads = _shared("--threads", type=int, default=None,
                      help="accepted for compatibility; runs use one thread")

    p_sim = sub.add_parser(
        "simulate", help="sample a network from a graphon spec file", parents=[pretty],
        description="Sample one signed network from a JSON graphon spec "
        "{name, params, rho, s, n} and write it as an edge list.",
    )
    p_sim.add_argument("--spec", required=True, help="graphon spec JSON file")
    p_sim.add_argument("--n", type=int, default=None, help="node count (overrides spec n)")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_sim.add_argument("--out", required=True, help="output edge-list path")

    sub.add_parser(
        "census", help="triangle census of an edge-list file", parents=[infile, pretty],
        description="Count triangles by sign type; prints "
        "{n, total, c1, c2, c3, c4, balanced}.",
    )

    p_ci = sub.add_parser(
        "ci", help="confidence interval for a triangle-proportion target",
        parents=[infile, target, threads, pretty],
        description="Confidence interval plus test/baseline report for the "
        "expected proportion of balanced (or per-type) triangles.",
    )
    p_ci.add_argument("--level", type=float, default=0.95, help="confidence level")
    p_ci.add_argument("--method", default="edgeworth", choices=METHODS,
                      help="interval construction")
    p_ci.add_argument("--replicates", type=int, default=1000,
                      help="bootstrap replicate count (bootstrap method)")
    p_ci.add_argument("--c-delta", type=float, default=0.0,
                      help="scale of the optional Gaussian perturbation (0 disables)")
    p_ci.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_ci.add_argument("--draws-out", default=None,
                      help="write bootstrap draws to this CSV (bootstrap method)")

    p_test = sub.add_parser(
        "test", help="hypothesis test against a balance-free null",
        parents=[infile, target, pretty],
        description="p-value for H0: target proportion equals the null "
        "value.  --null accepts a number or 'adjusted' (computed from the "
        "observed negative-edge fraction).",
    )
    p_test.add_argument("--null", required=True,
                        help="null value: float or 'adjusted'")
    p_test.add_argument("--alt", default="greater",
                        choices=["greater", "less", "two-sided"], help="alternative")
    p_test.add_argument("--method", default="edgeworth", choices=EXPANSION_METHODS,
                        help="CDF approximation")

    p_mc = sub.add_parser(
        "mc", help="run a Monte Carlo study from a config file", parents=[threads, pretty],
        description="Runs the study named by config['study'] "
        "(coverage | cdf | timing) and writes CSV/JSON files into --out.",
    )
    p_mc.add_argument("--config", required=True, help="experiment config JSON")
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.add_argument("--plot-data", action="store_true",
                      help="also write long-format CSV for plotting")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_simulate(args):
    obj = load_config(args.spec)
    if args.n is not None and isinstance(obj, dict):
        obj = {**obj, "n": args.n}  # so a law's n param left unset follows --n too
    spec, n = spec_from_json(obj)
    if n is None:
        raise ConfigError("node count missing: set --n or 'n' in the spec file")
    adj = sample_network(spec, n, seed=args.seed)
    write_edge_list(adj, args.out)
    summary = adj.summarize()
    _emit(
        {
            "out": args.out,
            "graphon": spec.name,
            "n": n,
            "seed": args.seed,
            "edges": adj.edge_count(),
            "edge_proportion": summary.edge_proportion,
            "negative_fraction": summary.negative_fraction,
        },
        args.pretty,
    )
    return EXIT_OK


def _cmd_census(args):
    adj = read_edge_list(args.infile)
    _emit(run_census(adj).to_dict(), args.pretty)
    return EXIT_OK


def _cmd_ci(args):
    threads = args.threads if args.threads is not None else 1
    check_threads(threads)
    check_level(args.level)
    check_c_delta(args.c_delta, (args.method,))
    if args.draws_out and args.method != "bootstrap":
        raise ConfigError("--draws-out needs --method bootstrap")
    adj = read_edge_list(args.infile)
    if args.method == "bootstrap":
        # the draws are kept here, not left to reference_law, for --draws-out
        dist = bootstrap_distribution(
            adj, target=args.target, B=args.replicates, seed=args.seed, threads=threads,
        )
        report = bootstrap_report(adj, dist, args.level)
        if args.draws_out:
            dist.save_csv(args.draws_out)
    else:
        report = confidence_interval(
            adj,
            level=args.level,
            target=args.target,
            method=args.method,
            c_delta=args.c_delta,
            seed=args.seed,
        )
    _emit(report.to_dict(), args.pretty)
    return EXIT_OK


def _cmd_test(args):
    adj = read_edge_list(args.infile)
    if args.null == "adjusted":
        summary = adj.summarize()
        if summary.negative_fraction is None:
            raise ConfigError("adjusted null undefined: the network has no edges")
        null_value = adjusted_null(args.target, summary.negative_fraction)
        null_name = "adjusted"
    else:
        try:
            null_value = float(args.null)
        except ValueError:
            raise ConfigError(f"--null must be a number or 'adjusted', got {args.null!r}")
        null_name = args.null
    result = balance_test(
        adj, null_value, alternative=args.alt, target=args.target, method=args.method
    )
    out = result.to_dict()
    out["null_name"] = null_name
    _emit(out, args.pretty)
    return EXIT_OK


def _cmd_mc(args):
    config = ExperimentConfig.from_dict(load_config(args.config))
    if args.threads is not None:
        config = dataclasses.replace(config, threads=args.threads)
    written = run_study(config, args.out, args.plot_data)
    _emit({"study": config.study, "written": written}, args.pretty)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "census": _cmd_census,
    "ci": _cmd_ci,
    "test": _cmd_test,
    "mc": _cmd_mc,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, OSError, SignedBalanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (_UsageError, ConfigError)):
            return EXIT_USAGE
        # a missing, unreadable or unwritable file (OSError) is a data error
        return EXIT_DEGENERATE if isinstance(exc, DegenerateError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
