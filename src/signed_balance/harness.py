"""Monte Carlo studies: coverage/length grids, CDF accuracy, timing.

A study is declared by an ExperimentConfig (usually loaded from JSON) and
expanded into cells: the cartesian product of the node-size grid and the
graphon parameter grid.  Per cell the harness computes the population truth
with the latent-triple oracle, simulates `replications` networks, and
aggregates per (method, target).

Seed discipline (documented, fixed): with master seed s and cell index c,

    truth stream          key index  c * 2^32 + 0xFFFFFFFF
    replicate r network   key index  c * 2^32 + r
    observed network      key index  c * 2^32 + 0xFFFFFFFE   (cdf study)
    bootstrap replicates  master     derived key of the cell replicate

so every cell and every replicate can be re-run in isolation.  Replicates
run in order on one thread: each is counted once, each target's pipeline
is built once from that count, and every method reads its interval from
the pipeline.  The `threads` config key is accepted and checked (>= 1) but
selects nothing, so results are the same for any value.

CSV outputs have fixed headers and exclude wall-clock columns, so a given
(config, seed) produces byte-identical files; timings go to their own
table via run_timing.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bootstrap import bootstrap_ci, bootstrap_distribution, ci_from_draws
from .census import TARGETS, full_census
from .errors import ConfigError, DegenerateError
from .graphon import population_moments, sample_network, spec_from_json
from .inference import (
    _delta_draw,
    _interval,
    _null_coefficients,
    _pipeline,
    check_level,
    check_threads,
    confidence_interval,
    edgeworth_cdf,
    projections,
    sample_moments,
    variance_estimator,
)
from .rng import stream_key

METHODS = ("edgeworth", "normal", "bootstrap")

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

    def __post_init__(self):
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
            if t not in TARGETS:
                raise ConfigError(f"unknown target {t!r}")
        if "bootstrap" in self.methods and not self.bootstrap_replicates:
            raise ConfigError("bootstrap method requires bootstrap_replicates")
        for key, values in self.param_grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"param_grid[{key!r}] must be a nonempty list")
        check_threads(self.threads)

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        graphon = obj.get("graphon")
        if not isinstance(graphon, dict) or "name" not in graphon:
            raise ConfigError("config needs graphon: {name, params?, rho?, s?}")
        known = {
            "graphon", "param_grid", "n_grid", "replications", "level", "methods",
            "targets", "truth_budget", "truth_replications",
            "bootstrap_replicates", "seed", "c_delta", "threads", "study",
        }
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        return cls(
            graphon_name=graphon["name"],
            graphon_params=dict(graphon.get("params") or {}),
            rho=graphon.get("rho"),
            s=graphon.get("s"),
            param_grid={k: list(v) for k, v in (obj.get("param_grid") or {}).items()},
            n_grid=tuple(obj.get("n_grid") or (160,)),
            replications=int(obj.get("replications", 1000)),
            level=float(obj.get("level", 0.95)),
            methods=tuple(obj.get("methods") or ("edgeworth", "normal")),
            targets=tuple(obj.get("targets") or ("balanced",)),
            truth_budget=int(obj.get("truth_budget", 10_000_000)),
            truth_replications=int(obj.get("truth_replications", 10_000)),
            bootstrap_replicates=obj.get("bootstrap_replicates"),
            seed=int(obj.get("seed", 0)),
            c_delta=float(obj.get("c_delta", 0.0)),
            threads=int(obj.get("threads", 1)),
        )


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
    bundle = full_census(adj, with_pairs=True)
    delta_draw = _delta_draw(cell.n, config.c_delta, seed)
    out = {}
    for target in config.targets:
        try:
            pipe = _pipeline(adj, target, bundle)
        except DegenerateError:
            out.update({(method, target): None for method in config.methods})
            continue
        for method in config.methods:
            if method == "bootstrap":
                try:
                    dist = bootstrap_distribution(
                        adj, target=target, B=config.bootstrap_replicates, seed=seed,
                        observed=pipe,
                    )
                except DegenerateError:
                    out[(method, target)] = None
                    continue
                lo, hi = ci_from_draws(pipe.estimate, pipe.S_hat, dist.draws, config.level)
            else:
                lo, hi = _interval(pipe, config.level, method, delta_draw)
            out[(method, target)] = (lo, hi, pipe.estimate)
    return out


def run_coverage(config):
    """Coverage/length table over all cells; deterministic given the seed."""
    check_level(config.level)
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


def write_coverage_csv(rows, path_or_buf):
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in rows:
            writer.writerow(row.csv_record())

    if hasattr(path_or_buf, "write"):
        emit(path_or_buf)
    else:
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            emit(fh)


def write_plot_data_csv(rows, path):
    """Long-format variant: one (cell metric) per line."""
    metrics = ("coverage", "mean_ci_length", "mean_estimate", "true_w")
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ("study", "cell", "n", "rho", "alpha", "method", "target", "metric", "value")
        )
        for row in rows:
            for metric in metrics:
                writer.writerow(
                    (
                        row.study, row.cell, row.n, repr(float(row.rho)),
                        "" if row.alpha is None else row.alpha,
                        row.method, row.target, metric,
                        repr(float(getattr(row, metric))),
                    )
                )


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
    network drawn from its own reserved stream.
    """
    cell = expand_cells(config)[0]
    truth_w = _truth_for(config, cell)
    draws = {t: [] for t in config.targets}
    dropped = 0
    for r in range(config.truth_replications):
        adj = sample_network(cell.spec, cell.n, seed=_replicate_seed(config, cell, r))
        try:
            bundle = full_census(adj, with_pairs=False)
            moments = sample_moments(bundle.census)
            for target in config.targets:
                proj = projections(bundle.census, bundle.node, None, target)
                s_hat = variance_estimator(proj)
                draws[target].append(
                    (moments.estimate(target) - truth_w[target]) / s_hat
                )
        except DegenerateError:
            dropped += 1

    observed = sample_network(
        cell.spec, cell.n, seed=_replicate_seed(config, cell, _OBSERVED_SLOT)
    )
    observed_bundle = full_census(observed, with_pairs=True)
    distances = {}
    curves = {}
    truth_cdf_by_target = {}
    for target in config.targets:
        t_sorted = np.sort(np.asarray(draws[target]))
        used = t_sorted.size
        truth_cdf = np.searchsorted(t_sorted, CDF_GRID, side="right") / used
        truth_cdf_by_target[target] = truth_cdf
        pipe = _pipeline(observed, target, observed_bundle)
        ew = edgeworth_cdf(CDF_GRID, pipe.coef)
        nm = edgeworth_cdf(CDF_GRID, _null_coefficients(cell.n))
        curves[(target, "edgeworth")] = ew
        curves[(target, "normal")] = nm
        distances[f"{target}/edgeworth"] = sup_distance(ew, truth_cdf)
        distances[f"{target}/normal"] = sup_distance(nm, truth_cdf)
        if "bootstrap" in config.methods:
            dist = bootstrap_distribution(
                observed,
                target=target,
                B=config.bootstrap_replicates,
                seed=_replicate_seed(config, cell, _OBSERVED_SLOT),
                observed=pipe,
            )
            boot_sorted = np.sort(dist.draws)
            boot_cdf = np.searchsorted(boot_sorted, CDF_GRID, side="right") / boot_sorted.size
            curves[(target, "bootstrap")] = boot_cdf
            distances[f"{target}/bootstrap"] = sup_distance(boot_cdf, truth_cdf)

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
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("x", "target", "method", "cdf"))
        for (target, method), values in sorted(study.curves.items()):
            for x, v in zip(study.grid, values):
                writer.writerow((repr(float(x)), target, method, repr(float(v))))


# -------------------------------------------------------------------- timing


def run_timing(config):
    """Seconds per analysis per method per n (wall clock; not deterministic)."""
    records = []
    for cell in expand_cells(config):
        adj = sample_network(cell.spec, cell.n, seed=_replicate_seed(config, cell, 0))
        for method in config.methods:
            t0 = time.perf_counter()
            for _ in range(max(config.replications, 1)):
                if method == "bootstrap":
                    bootstrap_ci(
                        adj,
                        level=config.level,
                        target=config.targets[0],
                        B=config.bootstrap_replicates,
                        seed=config.seed,
                    )
                else:
                    confidence_interval(
                        adj, level=config.level, target=config.targets[0], method=method
                    )
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
    fields = ("study", "n", "method", "replications", "total_seconds", "seconds_per_analysis")
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for rec in records:
            writer.writerow([rec[f] for f in fields])


def coverage_csv_bytes(rows):
    buf = io.StringIO()
    write_coverage_csv(rows, buf)
    return buf.getvalue().encode("utf-8")


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return obj
