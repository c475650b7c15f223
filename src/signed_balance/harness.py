"""Monte Carlo studies: coverage/length grids, CDF accuracy, timing.

A study is declared by an ExperimentConfig (usually loaded from JSON) and
expanded into cells: the cartesian product of the node-size grid and the
graphon parameter grid.  Per cell the harness computes the population truth
with the latent-triple oracle, simulates `replications` networks, and
aggregates per (method, target).  The config names its study and is checked
whole when built, every cell's graphon included; `run_study` then runs that
study and writes its files.  No study branches on the method:
`bootstrap.reference_law` gives each method's law.

Seed discipline (documented, fixed): with master seed s and cell index c,

    truth stream          key index  c * 2^32 + 0xFFFFFFFF
    replicate r network   key index  c * 2^32 + r
    observed network      key index  c * 2^32 + 0xFFFFFFFE   (cdf study)
    bootstrap replicates  master     derived key of the cell replicate

so every cell and every replicate can be re-run in isolation.  Replicates
run in order on one thread: each is counted once (`full_census` caches
the census on the adjacency), and every method reads its interval from its
target's pipeline.  The `threads` config key is accepted and checked
(>= 1) but selects nothing, so results are the same for any value.

CSV outputs have fixed headers and exclude wall-clock columns, so a given
(config, seed) produces byte-identical files; timings go to their own
table via run_timing.
"""

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from .bootstrap import check_replicates, reference_law
from .census import _type_index, full_census
from .errors import ConfigError, DegenerateError
from .graph import SignedAdjacency
from .graphon import (
    _convert,
    _params,
    check_budget,
    population_moments,
    sample_network,
    spec_from_json,
)
from .inference import (
    _delta_draw,
    _interval,
    _pipeline,
    _report,
    check_c_delta,
    check_level,
    check_threads,
)
from .rng import stream_key

METHODS = ("edgeworth", "normal", "bootstrap")
STUDIES = ("coverage", "cdf", "timing")

_TRUTH_SLOT = 0xFFFFFFFF
_OBSERVED_SLOT = 0xFFFFFFFE


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
    methods: tuple = ("edgeworth", "normal")
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
        for key, values in self.param_grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"param_grid[{key!r}] must be a nonempty list")
        check_threads(self.threads)
        check_c_delta(self.c_delta, self.methods)
        check_level(self.level)
        check_budget(self.truth_budget)
        if self.truth_replications < 1:
            raise ConfigError("truth_replications must be >= 1")
        expand_cells(self)  # every cell's graphon is checked before any file is written
        if "bootstrap" in self.methods:
            check_replicates(self.bootstrap_replicates)

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        graphon = obj.get("graphon")
        if not isinstance(graphon, dict) or "name" not in graphon:
            raise ConfigError("config needs graphon: {name, params?, rho?, s?}")
        # the four graphon fields are read from the one "graphon" object
        known = {f.name for f in fields(cls)} - {"graphon_name", "graphon_params", "rho", "s"}
        extra = set(obj) - known - {"graphon"}
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        grid = obj.get("param_grid") or {}
        if not isinstance(grid, dict):
            raise ConfigError(f"config key 'param_grid' must be an object of lists, got {grid!r}")
        return cls(
            graphon_name=graphon["name"],
            graphon_params=_params(graphon),
            rho=graphon.get("rho"),
            s=graphon.get("s"),
            param_grid=dict(grid),
            n_grid=_numbers(obj, "n_grid", int, (160,)),
            replications=_number(obj, "replications", int, 1000),
            level=_number(obj, "level", float, 0.95),
            methods=_listed(obj, "methods", ("edgeworth", "normal")),
            targets=_listed(obj, "targets", ("balanced",)),
            truth_budget=_number(obj, "truth_budget", int, 10_000_000),
            truth_replications=_number(obj, "truth_replications", int, 10_000),
            bootstrap_replicates=_number(obj, "bootstrap_replicates", int, None),
            seed=_number(obj, "seed", int, 0),
            c_delta=_number(obj, "c_delta", float, 0.0),
            threads=_number(obj, "threads", int, 1),
            study=obj.get("study", "coverage"),
        )


def _number(obj, key, kind, default):
    """obj[key] (or the default) converted by `kind`; ConfigError naming the
    key.  A missing or null key whose default is None stays None."""
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    return _convert(kind, value, key)


def _listed(obj, key, default):
    """obj[key] (or the default when missing or empty) as a tuple; ConfigError
    naming the key unless it is a list."""
    values = obj.get(key) or default
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"config key {key!r} must be a list, got {values!r}")
    return tuple(values)


def _numbers(obj, key, kind, default):
    """obj[key] (or the default when missing or empty) as a tuple of values
    converted by `kind`; ConfigError naming the key."""
    return tuple(_convert(kind, value, key) for value in _listed(obj, key, default))


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    params: dict
    spec: object


def expand_cells(config):
    """Cells in deterministic order: n_grid outer, sorted param keys inner."""
    keys = sorted(config.param_grid)
    combos = list(product(*(config.param_grid[k] for k in keys))) or [()]
    cells = []
    idx = 0
    for n in config.n_grid:
        for combo in combos:
            params = dict(config.graphon_params)
            params.update(dict(zip(keys, combo)))
            spec, _ = spec_from_json(
                {"name": config.graphon_name, "params": params, "n": n,
                 "rho": config.rho, "s": config.s}
            )
            cells.append(Cell(index=idx, n=n, params=dict(zip(keys, combo)), spec=spec))
            idx += 1
    return cells


def _cell_stream_index(cell_index, slot):
    return cell_index * (1 << 32) + slot


def _replicate_seed(config, cell, slot):
    return stream_key(config.seed, _cell_stream_index(cell.index, slot))


ROW_FIELDS = (
    "study", "cell", "n", "rho", "alpha", "method", "target", "replications",
    "coverage", "mean_ci_length", "mean_estimate", "true_w",
    "degenerate_count",
)


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
    wall_time: float  # kept on the row; deliberately not written to CSV

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


def _truth_for(config, cell):
    truth = population_moments(
        cell.spec,
        budget=config.truth_budget,
        seed=_replicate_seed(config, cell, _TRUTH_SLOT),
    )
    values = {"balanced": truth.w}
    for t in range(4):
        values[f"type{t + 1}"] = truth.w_t[t]
    return values


def _replicate(config, cell, r):
    """(lower, upper, estimate) per (method, target) for replicate r, None where
    the target is degenerate on it; the network is counted once."""
    seed = _replicate_seed(config, cell, r)
    adj = sample_network(cell.spec, cell.n, seed=seed)
    delta_draw = _delta_draw(cell.n, config.c_delta, seed)
    out = {}
    for target in config.targets:
        try:
            pipe = _pipeline(full_census(adj), target)
        except DegenerateError:
            out.update({(method, target): None for method in config.methods})
            continue
        for method in config.methods:
            try:
                law = reference_law(adj, pipe, method, config.bootstrap_replicates, seed)
            except DegenerateError:
                out[(method, target)] = None
                continue
            lo, hi = _interval(pipe, law, config.level, delta_draw)
            out[(method, target)] = (lo, hi, pipe.estimate)
    return out


def run_coverage(config):
    """Coverage/length table over all cells; deterministic given the seed."""
    rows = []
    for cell in expand_cells(config):
        t0 = time.perf_counter()
        truth = _truth_for(config, cell)
        results = [_replicate(config, cell, r) for r in range(config.replications)]
        elapsed = time.perf_counter() - t0
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
                        wall_time=elapsed,
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

    Uses the first cell of the config.  Truth is the empirical CDF of the
    studentized statistic over truth_replications simulated networks; the
    empirical Edgeworth and bootstrap approximations come from one observed
    network drawn from its own reserved stream.  A truth replicate that is
    degenerate for any target is dropped for all of them, so every target's
    truth CDF rests on the same `truth_used` draws.
    """
    cell = expand_cells(config)[0]
    truth_w = _truth_for(config, cell)
    draws = {t: [] for t in config.targets}
    dropped = 0
    for r in range(config.truth_replications):
        adj = sample_network(cell.spec, cell.n, seed=_replicate_seed(config, cell, r))
        try:
            pipes = {t: _pipeline(full_census(adj), t) for t in config.targets}
        except DegenerateError:
            dropped += 1  # a replicate counts for every target or for none
            continue
        for target, pipe in pipes.items():
            draws[target].append((pipe.estimate - truth_w[target]) / pipe.S_hat)

    observed_seed = _replicate_seed(config, cell, _OBSERVED_SLOT)
    observed = sample_network(cell.spec, cell.n, seed=observed_seed)
    distances = {}
    curves = {}
    truth_cdf_by_target = {}
    for target in config.targets:
        t_sorted = np.sort(np.asarray(draws[target]))
        used = t_sorted.size
        truth_cdf = np.searchsorted(t_sorted, CDF_GRID, side="right") / used
        truth_cdf_by_target[target] = truth_cdf
        pipe = _pipeline(full_census(observed), target)
        for method in config.methods:
            law = reference_law(observed, pipe, method, config.bootstrap_replicates, observed_seed)
            curve = law.cdf(CDF_GRID)
            curves[(target, method)] = curve
            distances[f"{target}/{method}"] = sup_distance(curve, truth_cdf)

    first_target = config.targets[0]
    return CdfStudy(
        n=cell.n,
        truth_replications=config.truth_replications,
        truth_used=config.truth_replications - dropped,
        distances=distances,
        grid=CDF_GRID.copy(),
        truth_cdf=truth_cdf_by_target[first_target],
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
    each analysis runs on a fresh copy of the network, so it counts it anew."""
    records = []
    for cell in expand_cells(config):
        adj = sample_network(cell.spec, cell.n, seed=_replicate_seed(config, cell, 0))
        for method in config.methods:
            t0 = time.perf_counter()
            for _ in range(max(config.replications, 1)):
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
                    "seconds_per_analysis": elapsed / max(config.replications, 1),
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
    """Run `config.study` and write its files into `out_dir` (created if
    missing; `plot_data` adds the long-format coverage CSV); the paths written."""
    if plot_data and config.study != "coverage":
        raise ConfigError(f"plot data is written for a coverage study only, not {config.study!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path(name):
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
