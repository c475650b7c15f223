"""Command-line interface.

Subcommands: simulate, census, ci, test, mc, version.  Machine output is
JSON on stdout (CSV files for mc); `--pretty` switches to an aligned
key/value table for humans.  Exit codes: 0 success, 1 usage error, 2
data/validation error (including an input too large for the census to
count exactly), 3 degenerate inference.

Every command runs on one thread.  `--threads` is still accepted and must
be a positive integer, and `ci` still reads the SIGNED_BALANCE_THREADS
environment variable (an integer) when `--threads` is absent, but neither
selects anything: outputs are the same for any value.
"""

import argparse
import json
import os
import sys

from . import __version__
from .bootstrap import bootstrap_distribution, bootstrap_report
from .census import census as run_census
from .errors import (
    ConfigError,
    DegenerateError,
    GraphDataError,
    SignedBalanceError,
)
from .graph import read_edge_list, write_edge_list
from .graphon import sample_network, spec_from_json
from .harness import (
    ExperimentConfig,
    load_config,
    run_cdf_study,
    run_coverage,
    run_timing,
    write_cdf_csv,
    write_coverage_csv,
    write_plot_data_csv,
    write_timing_csv,
)
from .inference import (
    adjusted_null,
    balance_test,
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


def default_threads():
    env = os.environ.get("SIGNED_BALANCE_THREADS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ConfigError(f"SIGNED_BALANCE_THREADS must be an integer, got {env!r}")
    return 1


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


def build_parser():
    parser = _Parser(prog="signed-balance", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser(
        "simulate", help="sample a network from a graphon spec file",
        description="Sample one signed network from a JSON graphon spec "
        "{name, params, rho, s, n} and write it as an edge list.",
    )
    p_sim.add_argument("--spec", required=True, help="graphon spec JSON file")
    p_sim.add_argument("--n", type=int, default=None, help="node count (overrides spec n)")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_sim.add_argument("--out", required=True, help="output edge-list path")
    p_sim.add_argument("--pretty", action="store_true", help="table output instead of JSON")

    p_census = sub.add_parser(
        "census", help="triangle census of an edge-list file",
        description="Count triangles by sign type; prints "
        "{n, total, c1, c2, c3, c4, balanced}.",
    )
    p_census.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p_census.add_argument("--pretty", action="store_true", help="table output instead of JSON")

    p_ci = sub.add_parser(
        "ci", help="confidence interval for a triangle-proportion target",
        description="Confidence interval plus test/baseline report for the "
        "expected proportion of balanced (or per-type) triangles.",
    )
    p_ci.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p_ci.add_argument("--level", type=float, default=0.95, help="confidence level")
    p_ci.add_argument(
        "--target", default="balanced",
        choices=["balanced", "type1", "type2", "type3", "type4"], help="estimand",
    )
    p_ci.add_argument(
        "--method", default="edgeworth",
        choices=["edgeworth", "normal", "bootstrap"], help="interval construction",
    )
    p_ci.add_argument("--replicates", type=int, default=1000,
                      help="bootstrap replicate count (bootstrap method)")
    p_ci.add_argument("--c-delta", type=float, default=0.0,
                      help="scale of the optional Gaussian perturbation (0 disables)")
    p_ci.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_ci.add_argument("--threads", type=int, default=None,
                      help="accepted for compatibility; runs use one thread")
    p_ci.add_argument("--draws-out", default=None,
                      help="write bootstrap draws to this CSV (bootstrap method)")
    p_ci.add_argument("--pretty", action="store_true", help="table output instead of JSON")

    p_test = sub.add_parser(
        "test", help="hypothesis test against a balance-free null",
        description="p-value for H0: target proportion equals the null "
        "value.  --null accepts a number or 'adjusted' (computed from the "
        "observed negative-edge fraction).",
    )
    p_test.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p_test.add_argument("--null", required=True,
                        help="null value: float or 'adjusted'")
    p_test.add_argument("--alt", default="greater",
                        choices=["greater", "less", "two-sided"], help="alternative")
    p_test.add_argument(
        "--target", default="balanced",
        choices=["balanced", "type1", "type2", "type3", "type4"], help="estimand",
    )
    p_test.add_argument("--method", default="edgeworth",
                        choices=["edgeworth", "normal"], help="CDF approximation")
    p_test.add_argument("--pretty", action="store_true", help="table output instead of JSON")

    p_mc = sub.add_parser(
        "mc", help="run a Monte Carlo study from a config file",
        description="Runs the study named by config['study'] "
        "(coverage | cdf | timing) and writes CSV/JSON files into --out.",
    )
    p_mc.add_argument("--config", required=True, help="experiment config JSON")
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.add_argument("--plot-data", action="store_true",
                      help="also write long-format CSV for plotting")
    p_mc.add_argument("--threads", type=int, default=None,
                      help="accepted for compatibility; runs use one thread")
    p_mc.add_argument("--pretty", action="store_true", help="table output instead of JSON")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_simulate(args):
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec file is not valid JSON: {exc}") from exc
    spec, n_spec = spec_from_json(obj)
    n = args.n if args.n is not None else n_spec
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
    adj = read_edge_list(args.infile)
    threads = args.threads if args.threads is not None else default_threads()
    check_threads(threads)
    if args.method == "bootstrap":
        check_level(args.level)
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
    obj = load_config(args.config)
    study = obj.get("study", "coverage")
    threads = args.threads if args.threads is not None else obj.get("threads", 1)
    obj = dict(obj)
    obj["threads"] = threads
    config = ExperimentConfig.from_dict(obj)
    os.makedirs(args.out, exist_ok=True)
    written = []
    if study == "coverage":
        rows = run_coverage(config)
        path = os.path.join(args.out, "coverage.csv")
        write_coverage_csv(rows, path)
        written.append(path)
        if args.plot_data:
            p2 = os.path.join(args.out, "coverage_plot_data.csv")
            write_plot_data_csv(rows, p2)
            written.append(p2)
    elif study == "cdf":
        result = run_cdf_study(config)
        path = os.path.join(args.out, "cdf_distances.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result.distances_dict(), fh, indent=2)
            fh.write("\n")
        written.append(path)
        p2 = os.path.join(args.out, "cdf_curves.csv")
        write_cdf_csv(result, p2)
        written.append(p2)
    elif study == "timing":
        records = run_timing(config)
        path = os.path.join(args.out, "timing.csv")
        write_timing_csv(records, path)
        written.append(path)
    else:
        raise ConfigError(f"unknown study {study!r}, expected coverage|cdf|timing")
    _emit({"study": study, "written": written}, args.pretty)
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GraphDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DegenerateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SignedBalanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
