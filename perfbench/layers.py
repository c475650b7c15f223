"""Per-layer metrics from the spans of one traced op (see tracer.py).

Times are summed over every span of the op, so on a workload with worker
threads a layer's seconds can exceed the op's wall time.  Self time is a
span's duration minus the part of its interval that its child spans cover.
"""

from collections import defaultdict

ID, NAME, PARENT, OP, THREAD, T0, T1, META, ERROR = range(9)

# name, unit; the order here is the order they are printed in
METRICS = (
    ("cli.import_s", "s"),
    ("graph.parse_s", "s"),
    ("graph.parse_edges_per_s", "edges/s"),
    ("graph.write_s", "s"),
    ("graphon.sample_s", "s"),
    ("graphon.sample_calls", "count"),
    ("graphon.truth_s", "s"),
    ("census.dense_pairs_s", "s"),
    ("census.dense_nopairs_s", "s"),
    ("census.sparse_s", "s"),
    ("census.calls", "count"),
    ("census.calls_per_unit", "count"),
    ("inference.projections_s", "s"),
    ("inference.variance_s", "s"),
    ("inference.coefficients_s", "s"),
    ("inference.report_s", "s"),
    ("bootstrap.resample_s", "s"),
    ("bootstrap.resamples", "count"),
    ("bootstrap.distribution_calls", "count"),
    ("bootstrap.useful_ratio", "ratio"),
    ("harness.self_s", "s"),
    ("harness.replicates", "count"),
    ("harness.dropped_no_triangle", "count"),
    ("harness.dropped_zero_variance", "count"),
    ("harness.pool_busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

REPORTS = ("inference.confidence_interval", "inference.balance_test", "bootstrap.bootstrap_ci")
DROPS = {
    "NoTriangleError": "inference.sample_moments",
    "DegenerateVarianceError": "inference.variance_estimator",
}


def _dur(span):
    return span[T1] - span[T0]


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class OpSpans:
    """The spans of one op, indexed for the questions the metrics ask."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[PARENT] in self.by_id:
                self.children[s[PARENT]].append(s)

    def named(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def total(self, name):
        return sum(_dur(s) for s in self.named(name))

    def self_time(self, span):
        kids = [(c[T0], c[T1]) for c in self.children[span[ID]]]
        return _dur(span) - _covered(span[T0], span[T1], kids)

    def ancestor(self, span, name):
        while span[PARENT] in self.by_id:
            span = self.by_id[span[PARENT]]
            if span[NAME] == name:
                return span
        return None

    def child_of(self, span, parent):
        """The ancestor of `span` (or span itself) whose parent is `parent`."""
        while span[PARENT] != parent[ID]:
            span = self.by_id[span[PARENT]]
        return span


def _census_time(ops, dense, pairs):
    return sum(_dur(s) for s in ops.named("census.full_census")
               if s[META] and s[META]["dense"] == dense and (not dense or s[META]["pairs"] == pairs))


def _harness(ops):
    """Replicates, drops by cause, self time and pool use of run_coverage."""
    out = {"harness.self_s": 0.0, "harness.replicates": 0, "harness.dropped_no_triangle": 0,
           "harness.dropped_zero_variance": 0, "harness.pool_busy_frac": 0.0}
    busy = capacity = 0.0
    for run in ops.named("harness.run_coverage"):
        kids = ops.children[run[ID]]
        out["harness.self_s"] += ops.self_time(run)
        busy += sum(_dur(k) for k in kids)
        capacity += run[META]["threads"] * _dur(run) if run[META] else _dur(run)
        # each pool thread samples a replicate, then runs its intervals
        replicate_of = {}
        for thread in {k[THREAD] for k in kids}:
            current = None
            for k in sorted((k for k in kids if k[THREAD] == thread), key=lambda k: k[T0]):
                if k[NAME] == "graphon.sample_network":
                    current = k[ID]
                    out["harness.replicates"] += 1
                replicate_of[k[ID]] = current
        for cause, key in (("NoTriangleError", "harness.dropped_no_triangle"),
                           ("DegenerateVarianceError", "harness.dropped_zero_variance")):
            dropped = {replicate_of[ops.child_of(s, run)[ID]]
                       for s in ops.named(DROPS[cause])
                       if s[ERROR] == cause and ops.ancestor(s, run[NAME]) is run}
            out[key] += len(dropped)
    out["harness.pool_busy_frac"] = busy / capacity if capacity else 0.0
    return out


def _bootstrap(ops):
    resamples = len(ops.named("bootstrap.resample_network"))
    drops = sum(1 for cause, name in DROPS.items() for s in ops.named(name)
                if s[ERROR] == cause and ops.ancestor(s, "bootstrap.bootstrap_distribution"))
    return {
        "bootstrap.resample_s": ops.total("bootstrap.resample_network"),
        "bootstrap.resamples": resamples,
        "bootstrap.distribution_calls": len(ops.named("bootstrap.bootstrap_distribution")),
        "bootstrap.useful_ratio": (resamples - drops) / resamples if resamples else 0.0,
    }


def op_metrics(spans):
    """Every per-layer metric of one op except graph.write_s and trace.overhead_frac."""
    ops = OpSpans(spans)
    parse_s = ops.total("graph.parse_edge_list")
    edges = sum(s[META]["edges"] for s in ops.named("graph.parse_edge_list") if s[META])
    calls = len(ops.named("census.full_census"))
    out = {
        "cli.import_s": ops.total("cli.import"),
        "graph.parse_s": parse_s,
        "graph.parse_edges_per_s": edges / parse_s if parse_s else 0.0,
        "graphon.sample_s": ops.total("graphon.sample_network"),
        "graphon.sample_calls": len(ops.named("graphon.sample_network")),
        "graphon.truth_s": ops.total("graphon.population_moments"),
        "census.dense_pairs_s": _census_time(ops, True, True),
        "census.dense_nopairs_s": _census_time(ops, True, False),
        "census.sparse_s": _census_time(ops, False, None),
        "census.calls": calls,
        "inference.projections_s": sum(ops.self_time(s) for s in ops.named("inference.projections")),
        "inference.variance_s": sum(ops.self_time(s) for s in ops.named("inference.variance_estimator")),
        "inference.coefficients_s": sum(
            ops.self_time(s) for s in ops.named("inference.edgeworth_coefficients")),
        "inference.report_s": sum(ops.self_time(s) for name in REPORTS for s in ops.named(name)),
    }
    out.update(_bootstrap(ops))
    out.update(_harness(ops))
    # census calls per unit of work: per replicate in a Monte Carlo study, else per op
    out["census.calls_per_unit"] = calls / (out["harness.replicates"] or 1)
    return out


def self_times(spans):
    """Seconds of self time per span name, summed over one op's spans."""
    ops = OpSpans(spans)
    out = defaultdict(float)
    for s in spans:
        out[s[NAME]] += ops.self_time(s)
    return dict(out)


def write_time(spans):
    """Seconds in write_edge_list during one set-up."""
    return OpSpans(spans).total("graph.write_edge_list")
