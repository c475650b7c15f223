"""Benchmark of signed-balance: four workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The workload inputs come from --seed.  Each op's output is checked, and a
failed check counts the op as failed.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 the run
alternates untraced and traced ops and reports the per-layer metrics.
Workloads, metrics and layers are described in perfbench/NOTES.md.
"""

import argparse
import glob
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("op_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class Spawner:
    """Client of perfbench/spawner.py, which starts the child processes."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, env, cwd, stdout, stderr, timeout):
        req = {"argv": argv, "env": env, "cwd": cwd, "stdout": stdout,
               "stderr": stderr, "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the process launcher exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def pin_threads():
    """Call before numpy is imported; child processes inherit the settings."""
    os.environ.update(PINNED)
    os.environ.pop("SIGNED_BALANCE_THREADS", None)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def machine():
    """nproc, CPU, caches, library versions and thread settings of this run."""
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "openblas configuration", "unknown"),
        "threads": {k: os.environ.get(k) for k in (*PINNED, "SIGNED_BALANCE_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level} {kind}"] = size
    return info


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().strip()


def print_table(rows, record):
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'samples':<32} {len(record['ops']):>14d} ops, {len(record['setup_s'])} set-ups")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: seconds-long sizes for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "signed_balance", "cli.py")):
        print(f"error: no package at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    pin_threads()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spawner = Spawner()
    try:
        ctx = workloads.Context(ROOT, args.workload, args.scale, args.seed, spawner, child_env())
        record = workloads.run(ctx, workload, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()

    ops = record["ops"]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print(f"failed op: {'; '.join(op['problems'][:3])}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "input_seed": ctx.seed,
                      "scale": args.scale, "machine": machine()}))
    if args.trace:
        units = layers.METRICS
        values = workloads.per_layer(record)
        with open(ctx.path("trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"per_layer": values,
                       "ops": [{"wall_s": op["wall_s"], "traced": op["traced"],
                                "self_s": layers.self_times(op["spans"] or []),
                                "spans": op["spans"]} for op in ops],
                       "setup_spans": record["setup_spans"]}, fh)
    else:
        units = END_TO_END
        values = workloads.end_to_end(record)
    print(f"{args.workload} ({'traced' if args.trace else 'untraced'}, seed {args.seed})")
    print_table([(name, values[name], unit) for name, unit in units]
                + [("fail_frac", len(failed) / len(ops), "failed/attempted")], record)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
