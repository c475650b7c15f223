"""Run one signed-balance CLI command with the tracer installed.

    python3 perfbench/traced.py SPANS_JSON -- <signed-balance arguments>

Times a fresh ``import signed_balance.cli`` as the span ``cli.import``,
installs the wrappers, runs the command, writes the spans to SPANS_JSON and
exits with the command's exit code.
"""

import sys
import time

from tracer import Tracer


def main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <signed-balance arguments>")
    tracer = Tracer()
    tracer.op = 0
    t0 = time.perf_counter()
    import signed_balance.cli as cli

    tracer.record("cli.import", t0, time.perf_counter())
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
