"""Record the expected outputs that the benchmark checks each op against.

    python3 perfbench/make_golden.py [--scale full|toy] [--workload NAME ...]

For every input seed of the scale, runs one set-up and one untraced op of
each workload and writes its outputs to perfbench/golden/<scale>-<name>.json.
Run it from the root of a checkout at the commit whose outputs are the
reference; the checks then hold later commits to those outputs.
"""

import argparse
import json
import os
import sys

from run import ROOT, Spawner, child_env, pin_threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    pin_threads()
    import checks
    import inputs
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    spawner = Spawner()
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            golden = {}
            for seed in range(inputs.SCALES[args.scale]["seeds"]):
                ctx = workloads.Context(ROOT, name, args.scale, seed, spawner, child_env())
                workload.setup(ctx, False, 0)
                golden[str(seed)] = workload.golden_outputs(ctx)
                print(f"{name} seed {seed}: recorded", file=sys.stderr)
            os.makedirs(checks.GOLDEN_DIR, exist_ok=True)
            with open(checks.golden_path(args.scale, name), "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        spawner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
