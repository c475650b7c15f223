"""The four workloads: set-up, one op, and the check of each op's output.

Every workload is a closed loop with one caller: the next op starts when the
previous one has ended.  The three CLI workloads run each op as a fresh
`python3 -m signed_balance.cli` process (or perfbench/traced.py when traced);
analysis-dense runs its sessions inside one worker process.
"""

import json
import os
import shutil
import statistics
import sys
import time

import checks
import inputs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 3
OP_TIMEOUT = 170


def more_ops(done, start, last, seconds):
    """Closed-loop stop rule: at least MIN_OPS ops, and no op that the last
    op's duration says would end after `seconds` from `start`."""
    return done < MIN_OPS or time.perf_counter() - start + last <= seconds


class Context:
    """What one benchmark run knows: where it works, its sizes and its inputs."""

    def __init__(self, root, workload, scale, seed, spawner, env):
        self.root = root
        self.scale = scale
        self.seed = inputs.input_seed(scale, seed)
        self.params = inputs.SCALES[scale][workload]
        self.spawner = spawner
        self.env = env
        self.work = os.path.join(root, ".bench_work", scale, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.golden = checks.load_golden(scale, workload, self.seed)
        self.own = None  # the benchmark's own census of the input, set by prepare()

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, argv, tag):
        """Run a child process; returns (rusage reply, stdout text, stderr text)."""
        out, err = self.path(f"{tag}.out"), self.path(f"{tag}.err")
        reply = self.spawner.run(argv, self.env, self.root, out, err, OP_TIMEOUT)
        with open(out, "r", encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err, "r", encoding="utf-8") as fh:
            stderr = fh.read()
        return reply, stdout, stderr

    def golden_problems(self, outputs):
        if self.golden is None:
            return [f"no golden outputs recorded for input seed {self.seed}"]
        problems = []
        for key, expected in self.golden.items():
            if key not in outputs:
                problems.append(f"{key}: missing from the outputs")
            elif key == "coverage_csv":
                problems += checks.compare_coverage_csv(expected, outputs[key])
            elif key == "draws":
                problems += checks.compare_draws(expected, outputs[key])
            else:
                problems += checks.compare(expected, outputs[key], key)
        return problems


def _failed(reply, stderr):
    if reply["timed_out"]:
        return [f"killed after {OP_TIMEOUT} s"]
    tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return [f"exit code {reply['rc']}: {tail[0]}"]


def _op_record(wall, cpu, rss_kb, traced, problems, spans=None, outputs=None):
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss_kb * 1024 / 1e6, "traced": traced,
            "problems": problems, "spans": spans, "outputs": outputs}


def _load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


class CliWorkload:
    """A workload whose op is one signed-balance command in a fresh process."""

    name = None
    setups = 3  # set-ups per run; setup_s is their median

    def cli(self, ctx):
        """The arguments of one op, after `signed-balance`."""
        raise NotImplementedError

    def outputs(self, ctx, stdout):
        """The op's outputs in the form golden/ records them."""
        return {"report": json.loads(stdout)}

    def check(self, ctx, outputs):
        return checks.census_vs_own(outputs["report"], ctx.own) + ctx.golden_problems(outputs)

    def prepare(self, ctx):
        """Make what the checks need beyond the golden outputs."""

    def clean(self, ctx):
        """Remove the previous op's output files, so a stale one cannot pass."""

    def golden_form(self, outputs):
        return outputs

    def golden_outputs(self, ctx):
        self.prepare(ctx)
        return self.golden_form(self.one_op(ctx, traced=False)["outputs"])

    def one_op(self, ctx, traced):
        self.clean(ctx)
        args = self.cli(ctx)
        spans_path = ctx.path("op.spans.json") if traced else None
        reply, stdout, stderr = ctx.spawn(cli_argv(args, spans_path), "op")
        if reply["rc"] != 0:
            problems, outputs = _failed(reply, stderr), None
        else:
            try:
                outputs = self.outputs(ctx, stdout)
                problems = self.check(ctx, outputs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outputs, problems = None, [f"unreadable output: {exc!r}"]
        spans = _load_spans(spans_path) if traced and reply["rc"] == 0 else None
        return _op_record(reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"],
                          traced, problems, spans, outputs)

    def run_ops(self, ctx, seconds, trace):
        ops = []
        start = time.perf_counter()
        last = 0.0
        while more_ops(len(ops), start, last, seconds):
            ops.append(self.one_op(ctx, traced=trace and len(ops) % 2 == 1))
            last = ops[-1]["wall_s"]
        return ops


def _python(*args):
    return [sys.executable, *args]


def cli_argv(args, spans_path=None):
    """argv of one signed-balance command, run by traced.py if spans are wanted."""
    if spans_path:
        return _python(os.path.join(HERE, "traced.py"), spans_path, "--", *args)
    return _python("-m", "signed_balance.cli", *args)


def _setup_process(ctx, name, argv, tag, spans_path=None):
    """Spawn one set-up process; returns (wall seconds, its spans or None)."""
    reply, _, stderr = ctx.spawn(argv, tag)
    if reply["rc"] != 0:
        raise RuntimeError(f"{name} set-up failed: {_failed(reply, stderr)[0]}")
    return reply["wall_s"], (_load_spans(spans_path) if spans_path else None)


class CiSparseFile(CliWorkload):
    """`signed-balance ci --in F` on a sparse n = 20000 edge list."""

    name = "ci-sparse-file"
    setups = 5  # the write is interpreter-bound and moves most with host load

    def setup(self, ctx, trace, i):
        p = ctx.params
        spans = ctx.path(f"setup{i}.spans.json") if trace else None
        argv = _python(os.path.join(HERE, "gen_sparse.py"), str(p["n"]), str(p["k"]),
                       str(ctx.seed), ctx.path("sparse.edges"), *([spans] if spans else []))
        return _setup_process(ctx, self.name, argv, f"setup{i}", spans)

    def prepare(self, ctx):
        p = ctx.params
        ctx.own = checks.triangle_types(p["n"], *inputs.sparse_edges(p["n"], p["k"], ctx.seed))

    def cli(self, ctx):
        return ["ci", "--in", ctx.path("sparse.edges")]


class McCoverage(CliWorkload):
    """`signed-balance mc` on a small logistic-balance coverage study."""

    name = "mc-coverage"

    def setup(self, ctx, trace, i):
        # The input is a short config, too quick to time steadily, so set-up
        # also times one start of the CLI (`version`), which checks that the
        # program starts before the first op.
        t0 = time.perf_counter()
        with open(ctx.path("mc.json"), "w", encoding="utf-8") as fh:
            json.dump(inputs.mc_config(ctx.params, ctx.seed), fh)
        written = time.perf_counter() - t0
        wall, _ = _setup_process(ctx, self.name, cli_argv(["version"]), f"setup{i}")
        return written + wall, None

    def cli(self, ctx):
        return ["mc", "--config", ctx.path("mc.json"), "--out", ctx.path("mc-out")]

    def clean(self, ctx):
        shutil.rmtree(ctx.path("mc-out"), ignore_errors=True)

    def outputs(self, ctx, stdout):
        json.loads(stdout)
        with open(ctx.path(os.path.join("mc-out", "coverage.csv")), "r", encoding="utf-8") as fh:
            return {"coverage_csv": fh.read()}

    def check(self, ctx, outputs):
        return ctx.golden_problems(outputs)


class CiBootstrap(CliWorkload):
    """`signed-balance ci --method bootstrap --draws-out D` on one thread, on a const-cos n = 160 file."""

    name = "ci-bootstrap"

    def setup(self, ctx, trace, i):
        spec = ctx.path("spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"name": "const-cos", "n": ctx.params["n"]}, fh)
        args = ["simulate", "--spec", spec, "--seed", str(ctx.seed), "--out", ctx.path("boot.edges")]
        spans = ctx.path(f"setup{i}.spans.json") if trace else None
        return _setup_process(ctx, self.name, cli_argv(args, spans), f"setup{i}", spans)

    def prepare(self, ctx):
        ctx.own = checks.triangle_types(*checks.read_edge_file(ctx.path("boot.edges")))

    def cli(self, ctx):
        return ["ci", "--in", ctx.path("boot.edges"), "--method", "bootstrap",
                "--replicates", str(ctx.params["replicates"]), "--seed", str(ctx.seed),
                "--threads", str(inputs.THREADS), "--draws-out", ctx.path("draws.csv")]

    def clean(self, ctx):
        if os.path.exists(ctx.path("draws.csv")):
            os.remove(ctx.path("draws.csv"))

    def outputs(self, ctx, stdout):
        return {"report": json.loads(stdout),
                "draws": checks.read_draws(ctx.path("draws.csv"))}

    def golden_form(self, outputs):
        return {"report": outputs["report"], "draws": checks.encode_draws(outputs["draws"])}


class AnalysisDense:
    """The README library quickstart on an in-memory const-cos n = 2000 network."""

    name = "analysis-dense"
    setups = 3

    def _worker(self, ctx, seconds, *extra):
        return _python(os.path.join(HERE, "dense_worker.py"), str(ctx.params["n"]),
                       str(ctx.seed), str(seconds), ctx.path("sessions.jsonl"), *extra)

    def setup(self, ctx, trace, i):
        return _setup_process(ctx, self.name, self._worker(ctx, 0, "--setup-only"), f"setup{i}")

    def prepare(self, ctx):
        pass  # the worker saves the network it sampled; it is counted in run_ops

    def check(self, ctx, outputs):
        return (checks.compare(ctx.own, outputs["census"], "census")
                + checks.census_vs_own(outputs["ci"], ctx.own, "ci")
                + ctx.golden_problems(outputs))

    def run_ops(self, ctx, seconds, trace):
        adj_path = ctx.path("adj.npy")
        spans_path = ctx.path("sessions.spans.json")
        extra = ["--save-adj", adj_path] + (["--trace", spans_path] if trace else [])
        reply, _, stderr = ctx.spawn(self._worker(ctx, seconds, *extra), "sessions")
        if reply["rc"] != 0:
            return [_op_record(reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"], False,
                               _failed(reply, stderr))]
        import numpy as np

        ctx.own = checks.triangle_types(ctx.params["n"], *checks.dense_edges(np.load(adj_path)))
        spans = _load_spans(spans_path) if trace else []
        ops = []
        with open(ctx.path("sessions.jsonl"), "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                outputs = {k: rec[k] for k in ("census", "ci", "test")}
                own_spans = [s for s in spans if s[layers.OP] == rec["session"]]
                ops.append(_op_record(rec["wall_s"], rec["cpu_s"], reply["maxrss_kb"],
                                      rec["traced"], self.check(ctx, outputs),
                                      own_spans if rec["traced"] else None, outputs))
        return ops

    def golden_outputs(self, ctx):
        return self.run_ops(ctx, 0, False)[0]["outputs"]


WORKLOADS = {w.name: w for w in (CiSparseFile(), AnalysisDense(), McCoverage(), CiBootstrap())}


def run(ctx, workload, seconds, trace):
    """Set up `workload.setups` times, then run ops for `seconds`; returns the run's record."""
    setups = [workload.setup(ctx, trace, i) for i in range(workload.setups)]
    workload.prepare(ctx)
    ops = workload.run_ops(ctx, seconds, trace)
    return {"setup_s": [wall for wall, _ in setups],
            "setup_spans": [spans for _, spans in setups if spans is not None],
            "ops": ops}


def end_to_end(record):
    plain = [op for op in record["ops"] if not op["traced"]]
    return {
        "op_s": statistics.median(op["wall_s"] for op in plain),
        "cpu_s": statistics.median(op["cpu_s"] for op in plain),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in plain),
        "setup_s": statistics.median(record["setup_s"]),
    }


def per_layer(record):
    traced = [op for op in record["ops"] if op["traced"]]
    plain = [op for op in record["ops"] if not op["traced"]]
    per_op = [layers.op_metrics(op["spans"]) for op in traced if op["spans"] is not None]
    out = {name: 0.0 for name, _ in layers.METRICS}
    if per_op:
        out.update({name: statistics.median(m[name] for m in per_op) for name in per_op[0]})
    if record["setup_spans"]:
        out["graph.write_s"] = statistics.median(
            layers.write_time(spans) for spans in record["setup_spans"])
    out["trace.overhead_frac"] = (
        statistics.median(op["wall_s"] for op in traced)
        / statistics.median(op["wall_s"] for op in plain) - 1.0)
    return out
