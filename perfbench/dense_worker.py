"""analysis-dense: the README library quickstart, repeated in one process.

    python3 perfbench/dense_worker.py N SEED SECONDS OUT_JSONL [--setup-only]
        [--save-adj ADJ_NPY] [--trace SPANS_JSON]

Set-up imports the package and samples a `const-cos` network with
`sample_network`.  Then one session (`full_census`, `confidence_interval`
with method edgeworth, `balance_test(0.5, "greater")`) runs after another,
closed loop, as `workloads.more_ops` decides.
Each session writes one JSON line: its wall and CPU seconds, whether it was
traced, and its outputs.  With --trace, sessions alternate untraced and
traced and the spans go to SPANS_JSON.
"""

import argparse
import json
import sys
import time

import numpy as np

import signed_balance as sb
from tracer import Tracer
from workloads import more_ops


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("n", type=int)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--save-adj")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    adj = sb.sample_network(sb.builtin_spec("const-cos", {}), args.n, seed=args.seed)
    if args.setup_only:
        return 0
    if args.save_adj:
        np.save(args.save_adj, adj.entries)

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    last = 0.0
    session = 0
    with open(args.out, "w", encoding="utf-8") as out:
        while more_ops(session, start, last, args.seconds):
            traced = tracer is not None and session % 2 == 1
            if traced:
                tracer.op = session
                tracer.install()
            t0, c0 = time.perf_counter(), time.process_time()
            census = sb.full_census(adj).census.to_dict()
            report = sb.confidence_interval(adj, level=0.95, method="edgeworth").to_dict()
            test = sb.balance_test(adj, 0.5, alternative="greater").to_dict()
            last = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if traced:
                tracer.uninstall()
            out.write(json.dumps({
                "session": session, "traced": traced, "wall_s": last, "cpu_s": cpu,
                "census": census, "ci": report, "test": test,
            }) + "\n")
            session += 1
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
