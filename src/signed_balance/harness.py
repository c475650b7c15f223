"""Monte Carlo studies: coverage/length grids, CDF accuracy, timing.

A study is declared by an ExperimentConfig (usually loaded from JSON) and
expanded into cells: the cartesian product of the node-size grid and the
graphon parameter grid.  Per cell the harness computes the population truth
with the latent-triple oracle, simulates `replications` networks, and
aggregates per (method, target).  The config is checked whole when built,
every cell's graphon included, and refuses what its study would ignore
(c_delta above 0 outside coverage, a second cdf cell or timing target);
`run_study` then runs that study and writes its files.

Each decision has one home: a config key's default is its field and its
JSON conversion its row of `_READ`; the graphon object is read, and each
cell's spec built once, by the graphon module's one reader and builder, which
refuse a graphon key no cell would read; the method names are
`bootstrap.METHODS`, and `bootstrap.reference_law` gives each method's law;
`_draw` draws replicate r of a cell and studentizes each target, for the
coverage replicate and the cdf truth loop alike.

Seed discipline (documented, fixed): with master seed s and cell index c,

    truth stream          key index  c * 2^32 + 0xFFFFFFFF
    replicate r network   key index  c * 2^32 + r
    observed network      key index  c * 2^32 + 0xFFFFFFFE   (cdf study)
    bootstrap replicates  master     derived key of the cell replicate

so every cell and every replicate can be re-run in isolation.  Replicates
run in order on one thread; the `threads` key is checked (>= 1) but selects
nothing.  CSV outputs have fixed headers (the coverage header is
`ExperimentRow`'s fields) and no wall-clock column, so a given (config,
seed) produces byte-identical files; timings go to their own table.
"""

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product

import numpy as np

from .bootstrap import METHODS, check_replicates, reference_law
from .census import TARGETS, _type_index, full_census
from .errors import ConfigError, DegenerateError
from .graph import SignedAdjacency
from .graphon import (
    _convert,
    _law_spec,
    _read_graphon,
    check_budget,
    population_moments,
    sample_network,
)
from .inference import (
    EXPANSION_METHODS,
    _delta_draw,
    _interval,
    _pipeline,
    _report,
    check_c_delta,
    check_level,
    check_threads,
)
from .rng import stream_key

STUDIES = ("coverage", "cdf", "timing")

_TRUTH_SLOT = 0xFFFFFFFF
_OBSERVED_SLOT = 0xFFFFFFFE
# the fields read from the config's one "graphon" object, not from a key of their
# own, each with its key there; a cell's n comes from n_grid, so "n" is refused
_GRAPHON_FIELDS = {"graphon_name": "name", "graphon_params": "params", "rho": "rho", "s": "s"}


@dataclass(frozen=True)
class ExperimentConfig:
    graphon_name: str
    graphon_params: dict = field(default_factory=dict)
    rho: float | None = None
    s: float | None = None
    param_grid: dict = field(default_factory=dict)
    n_grid: tuple = (160,)
    replications: int = 1000
    level: float = 0.95
    methods: tuple = EXPANSION_METHODS
    targets: tuple = ("balanced",)
    truth_budget: int = 10_000_000
    truth_replications: int = 10_000
    bootstrap_replicates: int | None = None
    seed: int = 0
    c_delta: float = 0.0
    threads: int = 1
    study: str = "coverage"

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}, expected one of {STUDIES}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        if any(n < 3 for n in self.n_grid):
            raise ConfigError("every n in n_grid must be >= 3")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        for t in self.targets:
            _type_index(t)  # ConfigError for an unknown target
        if "bootstrap" in self.methods and not self.bootstrap_replicates:
            raise ConfigError("bootstrap method requires bootstrap_replicates")
        if not isinstance(self.param_grid, dict):
            raise ConfigError(f"config key 'param_grid' must be an object of lists, "
                              f"got {self.param_grid!r}")
        object.__setattr__(self, "param_grid", dict(self.param_grid))  # not the caller's dict
        for key, values in self.param_grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"param_grid[{key!r}] must be a nonempty list")
        check_threads(self.threads)
        check_c_delta(self.c_delta, self.methods)
        check_level(self.level)
        check_budget(self.truth_budget)
        if self.truth_replications < 1:
            raise ConfigError("truth_replications must be >= 1")
        cells = expand_cells(self)  # every cell's graphon is checked before any file is written
        if "bootstrap" in self.methods:
            check_replicates(self.bootstrap_replicates)
        # what a study would ignore is refused: only a coverage replicate
        # reads c_delta, cdf runs one cell and timing one target
        if self.c_delta > 0.0 and self.study != "coverage":
            raise ConfigError(f"c_delta is read by a coverage study only, not {self.study!r}")
        if self.study == "cdf" and len(cells) > 1:
            raise ConfigError(f"a cdf study runs one cell, not {len(cells)}")
        if self.study == "timing" and len(self.targets) > 1:
            raise ConfigError(f"a timing study times one target, not {len(self.targets)}")

    @classmethod
    def from_dict(cls, obj):
        """The config of a JSON object, each key converted as `_READ` says.
        A missing or null key, or an empty list or object given to a list or
        object key, keeps its field's default."""
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        known = {f.name for f in fields(cls)} - set(_GRAPHON_FIELDS) | {"graphon"}
        if extra := set(obj) - known:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        given = dict(zip(_GRAPHON_FIELDS, _read_graphon(obj.get("graphon"),
                                                        tuple(_GRAPHON_FIELDS.values()))))
        for f in fields(cls):
            value, read = obj.get(f.name), _READ.get(f.name)
            listed = isinstance(f.default, tuple) or f.default_factory is dict
            if f.name not in given and value is not None and not (listed and value in ([], {})):
                given[f.name] = value if read is None else read(value, f.name)
        return cls(**given)


def _items(kind=None):
    """A reader of a JSON list: the tuple of its items, each converted by
    `kind` when given."""
    def read(values, key):
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"config key {key!r} must be a list, got {values!r}")
        return tuple(values if kind is None else (_convert(kind, v, key) for v in values))
    return read


# How from_dict converts a config key's JSON value; the others are taken as they are.
_READ = {
    "n_grid": _items(int),
    "methods": _items(),
    "targets": _items(),
    **dict.fromkeys(("replications", "truth_budget", "truth_replications",
                     "bootstrap_replicates", "seed", "threads"), partial(_convert, int)),
    **dict.fromkeys(("level", "c_delta"), partial(_convert, float)),
}


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    params: dict
    spec: object


def expand_cells(config):
    """Cells in deterministic order: n_grid outer, sorted param keys inner.
    A param given both in the graphon's `params` and in `param_grid` takes
    the grid's values in every cell."""
    keys = sorted(config.param_grid)
    combos = list(product(*(config.param_grid[k] for k in keys))) or [()]
    cells = []
    idx = 0
    for n in config.n_grid:
        for combo in combos:
            varied = dict(zip(keys, combo))
            spec = _law_spec(config.graphon_name, {**config.graphon_params, **varied},
                             config.rho, config.s, n)
            cells.append(Cell(index=idx, n=n, params=varied, spec=spec))
            idx += 1
    return cells


def _replicate_seed(config, cell, slot):
    return stream_key(config.seed, cell.index * (1 << 32) + slot)


@dataclass(frozen=True)
class ExperimentRow:
    study: str
    cell: int
    n: int
    rho: float
    alpha: float | None
    method: str
    target: str
    replications: int
    coverage: float
    mean_ci_length: float
    mean_estimate: float
    true_w: float
    degenerate_count: int

    def csv_record(self):
        rec = []
        for name in ROW_FIELDS:
            value = getattr(self, name)
            if value is None:
                rec.append("")
            elif isinstance(value, float):
                # float() strips numpy scalar types so repr stays plain
                rec.append(repr(float(value)))
            else:
                rec.append(str(value))
        return rec


ROW_FIELDS = tuple(f.name for f in fields(ExperimentRow))


def _truth_for(config, cell):
    truth = population_moments(
        cell.spec,
        budget=config.truth_budget,
        seed=_replicate_seed(config, cell, _TRUTH_SLOT),
    )
    return dict(zip(TARGETS, (truth.w, *truth.w_t)))


def _draw(config, cell, r):
    """(seed, network, pipeline per target) of replicate r of `cell`; a
    target degenerate on it gets None.  The network is counted once and
    studentized once per target: the pipelines are the ones kept on its
    census, so a method that reads the network again reuses them."""
    seed = _replicate_seed(config, cell, r)
    adj = sample_network(cell.spec, cell.n, seed=seed)
    pipes = {}
    for target in config.targets:
        try:
            pipes[target] = _pipeline(full_census(adj), target)
        except DegenerateError:
            pipes[target] = None
    return seed, adj, pipes


def _replicate(config, cell, r):
    """(lower, upper, estimate) per (method, target) for replicate r, None where
    the target is degenerate on it."""
    seed, adj, pipes = _draw(config, cell, r)
    delta_draw = _delta_draw(cell.n, config.c_delta, seed)
    out = dict.fromkeys(product(config.methods, config.targets))
    for target, pipe in pipes.items():
        if pipe is None:
            continue
        for method in config.methods:
            try:
                law = reference_law(adj, pipe, method, config.bootstrap_replicates, seed)
            except DegenerateError:
                continue
            lo, hi = _interval(pipe, law, config.level, delta_draw)
            out[(method, target)] = (lo, hi, pipe.estimate)
    return out


def run_coverage(config):
    """Coverage/length table over all cells; deterministic given the seed."""
    rows = []
    for cell in expand_cells(config):
        truth = _truth_for(config, cell)
        results = [_replicate(config, cell, r) for r in range(config.replications)]
        for method in config.methods:
            for target in config.targets:
                w = truth[target]
                covered = lengths = estimates = 0.0
                used = 0
                for res in results:
                    rec = res[(method, target)]
                    if rec is None:
                        continue
                    lo, hi, est = rec
                    used += 1
                    covered += 1.0 if lo <= w <= hi else 0.0
                    lengths += hi - lo
                    estimates += est
                rows.append(
                    ExperimentRow(
                        study="coverage",
                        cell=cell.index,
                        n=cell.n,
                        rho=cell.spec.rho,
                        alpha=cell.params.get("alpha"),
                        method=method,
                        target=target,
                        replications=config.replications,
                        coverage=covered / used if used else float("nan"),
                        mean_ci_length=lengths / used if used else float("nan"),
                        mean_estimate=estimates / used if used else float("nan"),
                        true_w=w,
                        degenerate_count=config.replications - used,
                    )
                )
    return rows


def _write_csv(path_or_buf, header, records):
    """Write `header`, then one line per record, to a path or an open text file."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            return _write_csv(fh, header, records)
    writer = csv.writer(path_or_buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)


def write_coverage_csv(rows, path_or_buf):
    _write_csv(path_or_buf, ROW_FIELDS, (row.csv_record() for row in rows))


def write_plot_data_csv(rows, path):
    """Long-format variant: one (cell metric) per line."""
    metrics = ("coverage", "mean_ci_length", "mean_estimate", "true_w")
    header = ("study", "cell", "n", "rho", "alpha", "method", "target", "metric", "value")
    _write_csv(path, header, (
        (row.study, row.cell, row.n, repr(float(row.rho)), "" if row.alpha is None else row.alpha,
         row.method, row.target, metric, repr(float(getattr(row, metric))))
        for row in rows for metric in metrics))


# ----------------------------------------------------------------- CDF study

CDF_GRID = np.linspace(-4.0, 4.0, 512)


def sup_distance(grid_values, truth_values):
    return float(np.max(np.abs(np.asarray(grid_values) - np.asarray(truth_values))))


@dataclass(frozen=True)
class CdfStudy:
    n: int
    truth_replications: int
    truth_used: int
    distances: dict
    grid: np.ndarray
    truth_cdf: np.ndarray
    curves: dict

    def distances_dict(self):
        return {
            "n": self.n,
            "truth_replications": self.truth_replications,
            "truth_used": self.truth_used,
            "distances": dict(self.distances),
        }


def run_cdf_study(config):
    """Sup-distance of each method's CDF approximation to the simulated truth.

    Uses the first cell of the config (a cdf-study config has only one).
    Truth is the empirical CDF of the studentized statistic over
    truth_replications simulated networks; the empirical Edgeworth and
    bootstrap approximations come from one observed network drawn from its
    own reserved stream.  A truth replicate that is degenerate for any
    target is dropped for all of them, so every target's truth CDF rests on
    the same `truth_used` draws; DegenerateError when none is left, raised
    before the population truth is computed.
    """
    cell = expand_cells(config)[0]
    kept = []  # (estimate, S_hat) per target of each kept truth replicate
    for r in range(config.truth_replications):
        pipes = _draw(config, cell, r)[2]
        if None not in pipes.values():  # a replicate counts for every target or for none
            kept.append({target: (pipe.estimate, pipe.S_hat) for target, pipe in pipes.items()})
    if not kept:
        raise DegenerateError(f"all {config.truth_replications} truth replicates at n={cell.n} "
                              "are degenerate: no truth CDF")
    truth_w = _truth_for(config, cell)

    observed_seed = _replicate_seed(config, cell, _OBSERVED_SLOT)
    observed = sample_network(cell.spec, cell.n, seed=observed_seed)
    distances = {}
    curves = {}
    truth_cdf_by_target = {}
    for target in config.targets:
        t_sorted = np.sort([(estimate - truth_w[target]) / s_hat
                            for estimate, s_hat in (rep[target] for rep in kept)])
        used = t_sorted.size
        truth_cdf = np.searchsorted(t_sorted, CDF_GRID, side="right") / used
        truth_cdf_by_target[target] = truth_cdf
        pipe = _pipeline(full_census(observed), target)
        for method in config.methods:
            law = reference_law(observed, pipe, method, config.bootstrap_replicates, observed_seed)
            curve = law.cdf(CDF_GRID)
            curves[(target, method)] = curve
            distances[f"{target}/{method}"] = sup_distance(curve, truth_cdf)

    return CdfStudy(
        n=cell.n,
        truth_replications=config.truth_replications,
        truth_used=len(kept),
        distances=distances,
        grid=CDF_GRID.copy(),
        truth_cdf=truth_cdf_by_target[config.targets[0]],
        curves=curves,
    )


def write_cdf_csv(study, path):
    _write_csv(path, ("x", "target", "method", "cdf"), (
        (repr(float(x)), target, method, repr(float(v)))
        for (target, method), values in sorted(study.curves.items())
        for x, v in zip(study.grid, values)))


# -------------------------------------------------------------------- timing


def run_timing(config):
    """Seconds per analysis per method per n (wall clock; not deterministic);
    each analysis runs on a fresh adjacency of the network (on the same
    read-only storage), so it counts it anew."""
    records = []
    for cell in expand_cells(config):
        adj = sample_network(cell.spec, cell.n, seed=_replicate_seed(config, cell, 0))
        for method in config.methods:
            t0 = time.perf_counter()
            for _ in range(config.replications):
                fresh = SignedAdjacency(adj.entries, _validated=True)
                pipe = _pipeline(full_census(fresh), config.targets[0])
                law = reference_law(fresh, pipe, method, config.bootstrap_replicates, config.seed)
                _report(fresh, pipe, config.level, method, law)
            elapsed = time.perf_counter() - t0
            records.append(
                {
                    "study": "timing",
                    "n": cell.n,
                    "method": method,
                    "replications": config.replications,
                    "total_seconds": elapsed,
                    "seconds_per_analysis": elapsed / config.replications,
                }
            )
    return records


def write_timing_csv(records, path):
    header = ("study", "n", "method", "replications", "total_seconds", "seconds_per_analysis")
    _write_csv(path, header, ([rec[f] for f in header] for rec in records))


def coverage_csv_bytes(rows):
    buf = io.StringIO()
    write_coverage_csv(rows, buf)
    return buf.getvalue().encode("utf-8")


def run_study(config, out_dir, plot_data=False):
    """Run `config.study` and write its files into `out_dir`; the paths
    written.  `out_dir` is created, if missing, only once the study has
    returned, so a failed study leaves none behind.  `plot_data` adds the
    long-format coverage CSV."""
    if plot_data and config.study != "coverage":
        raise ConfigError(f"plot data is written for a coverage study only, not {config.study!r}")
    written = []

    def path(name):
        os.makedirs(out_dir, exist_ok=True)
        written.append(os.path.join(out_dir, name))
        return written[-1]

    if config.study == "coverage":
        rows = run_coverage(config)
        write_coverage_csv(rows, path("coverage.csv"))
        if plot_data:
            write_plot_data_csv(rows, path("coverage_plot_data.csv"))
    elif config.study == "cdf":
        result = run_cdf_study(config)
        with open(path("cdf_distances.json"), "w", encoding="utf-8") as fh:
            json.dump(result.distances_dict(), fh, indent=2)
            fh.write("\n")
        write_cdf_csv(result, path("cdf_curves.csv"))
    else:
        write_timing_csv(run_timing(config), path("timing.csv"))
    return written


def load_config(path):
    """The JSON value in the file at `path`; ConfigError naming the path unless it parses."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
