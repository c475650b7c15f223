"""Monte Carlo experiment harness."""

import importlib
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from signed_balance.errors import ConfigError, DegenerateError
from signed_balance.graph import SignedAdjacency
from signed_balance.graphon import spec_from_json
from signed_balance.harness import (
    _GRAPHON_FIELDS,
    CDF_GRID,
    ExperimentConfig,
    coverage_csv_bytes,
    expand_cells,
    load_config,
    run_cdf_study,
    run_coverage,
    run_timing,
    sup_distance,
    write_coverage_csv,
    write_plot_data_csv,
)

# the package's `census` attribute is the function of that name
census_module = importlib.import_module("signed_balance.census")
harness_module = importlib.import_module("signed_balance.harness")


def tiny_config(**over):
    base = dict(
        graphon_name="const-cos",
        n_grid=(12,),
        replications=8,
        level=0.9,
        methods=("edgeworth", "normal"),
        targets=("balanced",),
        truth_budget=2000,
        seed=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(replications=0)
    with pytest.raises(ConfigError):
        tiny_config(n_grid=())
    with pytest.raises(ConfigError):
        tiny_config(n_grid=(2,))
    with pytest.raises(ConfigError):
        tiny_config(methods=("magic",))
    with pytest.raises(ConfigError):
        tiny_config(targets=("typeX",))
    with pytest.raises(ConfigError):
        tiny_config(methods=("bootstrap",))  # needs bootstrap_replicates
    with pytest.raises(ConfigError):
        tiny_config(threads=0)
    for c_delta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="c_delta"):
            tiny_config(c_delta=c_delta)
    with pytest.raises(ConfigError, match="study"):
        tiny_config(study="wat")
    # the delta shift perturbs the Edgeworth and normal quantiles only
    with pytest.raises(ConfigError, match="c_delta"):
        tiny_config(methods=("normal", "bootstrap"), bootstrap_replicates=100, c_delta=0.5)
    tiny_config(c_delta=0.5)
    tiny_config(methods=("bootstrap",), bootstrap_replicates=100)
    assert tiny_config().study == "coverage"


def test_from_dict_rejects_unknown_keys():
    obj = {"graphon": {"name": "const-cos"}, "n_grid": [12], "surprise": 1}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(obj)


def test_from_dict_accepts_exactly_the_config_keys():
    obj = {"graphon": {"name": "const-cos"}, "study": "coverage", "param_grid": {},
           "n_grid": [12], "replications": 2, "level": 0.9, "methods": ["normal"],
           "targets": ["balanced"], "truth_budget": 2000, "truth_replications": 10,
           "bootstrap_replicates": None, "seed": 1, "c_delta": 0.5, "threads": 2}
    cfg = ExperimentConfig.from_dict(obj)
    assert (cfg.study, cfg.c_delta, cfg.threads) == ("coverage", 0.5, 2)
    # the graphon fields are read from the "graphon" object only
    for key in _GRAPHON_FIELDS:
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({**obj, key: 1})


def test_from_dict_defaults_are_the_field_defaults():
    # every default is stated once, on its ExperimentConfig field; a null key takes it too
    want = ExperimentConfig(graphon_name="const-cos")
    keys = [f.name for f in fields(ExperimentConfig)
            if f.name not in _GRAPHON_FIELDS]
    for unset in ({}, dict.fromkeys(keys)):
        got = ExperimentConfig.from_dict({"graphon": {"name": "const-cos"}, **unset})
        for f in fields(ExperimentConfig):
            value = getattr(got, f.name)
            assert (type(value), value) == (type(getattr(want, f.name)), getattr(want, f.name)), f.name


def test_config_keeps_its_own_param_grid():
    grid = {"alpha": [5]}
    cfg = ExperimentConfig.from_dict(
        {"graphon": {"name": "logistic-balance"}, "n_grid": [12], "param_grid": grid})
    grid["alpha"] = "x"
    grid["rho"] = [0.5]
    assert cfg.param_grid == {"alpha": [5]}


def test_from_dict_needs_graphon():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_grid": [12]})


@pytest.mark.parametrize("key, value", [("replications", "many"), ("level", "high"),
                                        ("seed", [1]), ("replications", 1e999),
                                        ("seed", []), ("replications", {})])
def test_from_dict_rejects_non_numeric_values(key, value):
    obj = {"graphon": {"name": "const-cos"}, "n_grid": [12], key: value}
    with pytest.raises(ConfigError, match=repr(key)):
        ExperimentConfig.from_dict(obj)


@pytest.mark.parametrize("key, value, named", [
    ("param_grid", {"alpha": "35"}, "alpha"),
    ("param_grid", {"alpha": 5}, "alpha"),
    ("param_grid", [5], "param_grid"),
    ("methods", "normal", "methods"),
    ("targets", "balanced", "targets"),
    ("graphon", {"name": "logistic-balance", "params": {"alpha": "x"}}, "alpha"),
    ("graphon", {"name": "const-cos", "rho": "abc"}, "rho"),
    ("n_grid", 0, "n_grid"),
])
def test_from_dict_rejects_malformed_lists_and_graphon_numbers(key, value, named):
    obj = {"graphon": {"name": "logistic-balance", "params": {"alpha": 5}}, "n_grid": [12],
           key: value}
    with pytest.raises(ConfigError, match=repr(named)):
        expand_cells(ExperimentConfig.from_dict(obj))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(path)


# --------------------------------------------------------------------- cells


def test_expand_cells_order_is_deterministic():
    cfg = tiny_config(
        graphon_name="logistic-balance",
        param_grid={"alpha": [50, 20]},
        n_grid=(12, 16),
    )
    cells = expand_cells(cfg)
    assert [c.index for c in cells] == [0, 1, 2, 3]
    assert [(c.n, c.params["alpha"]) for c in cells] == [
        (12, 50), (12, 20), (16, 50), (16, 20)]


def test_expand_cells_single():
    cells = expand_cells(tiny_config())
    assert len(cells) == 1
    assert cells[0].n == 12
    assert cells[0].spec.name == "const-cos"


def test_rho_and_s_overrides_match_spec_from_json():
    obj = {"graphon": {"name": "logistic-balance", "params": {"alpha": 20},
                       "rho": 0.5, "s": 0.9},
           "param_grid": {"alpha": [20, 400]}, "n_grid": [12]}
    cells = expand_cells(ExperimentConfig.from_dict(obj))
    for cell in cells:
        want, _ = spec_from_json({"name": "logistic-balance", "params": cell.params,
                                  "rho": 0.5, "s": 0.9})
        assert (cell.spec.rho, cell.spec.s, cell.spec.params) == (want.rho, want.s, want.params)
        assert cell.spec.name == want.name
    assert [c.spec.params["alpha"] for c in cells] == [20.0, 400.0]


def test_sparse_const_gets_n_injected():
    cfg = tiny_config(graphon_name="sparse-const",
                      param_grid={"k": [3.0]}, n_grid=(20,))
    cells = expand_cells(cfg)
    assert cells[0].spec.rho == pytest.approx(20 ** (-1 / 3))


# ------------------------------------------------------------------ coverage


def test_run_coverage_rows():
    rows = run_coverage(tiny_config())
    assert len(rows) == 2  # one per method
    for row in rows:
        assert 0.0 <= row.coverage <= 1.0
        assert row.mean_ci_length >= 0.0
        assert row.degenerate_count <= 8
        assert row.replications == 8
        assert row.n == 12


def test_coverage_counts_the_replicates_it_drops():
    # const-cos at rho = 0.35, n = 8: most replicates have no triangle, and on
    # those that do the bootstrap's resamples are mostly degenerate
    cfg = tiny_config(graphon_params={"rho": 0.35}, n_grid=(8,), replications=10,
                      methods=("normal", "bootstrap"), bootstrap_replicates=100)
    normal, boot = run_coverage(cfg)
    assert 0 < normal.degenerate_count < boot.degenerate_count == cfg.replications
    assert not math.isnan(normal.coverage)
    # a cell that drops every replicate has no coverage, length or estimate
    assert all(math.isnan(v) for v in (boot.coverage, boot.mean_ci_length, boot.mean_estimate))
    assert "bootstrap,balanced,10,nan,nan,nan," in coverage_csv_bytes([boot]).decode()


def test_coverage_csv_deterministic_and_thread_invariant():
    cfg = tiny_config()
    b1 = coverage_csv_bytes(run_coverage(cfg))
    b2 = coverage_csv_bytes(run_coverage(cfg))
    b3 = coverage_csv_bytes(run_coverage(tiny_config(threads=4)))
    assert b1 == b2 == b3


def test_coverage_csv_header(tmp_path):
    rows = run_coverage(tiny_config())
    path = tmp_path / "cov.csv"
    write_coverage_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("study,cell,n,rho,alpha,method,target,replications,"
                        "coverage,mean_ci_length,mean_estimate,true_w,"
                        "degenerate_count")
    assert len(lines) == 3
    assert "np.float64" not in path.read_text()


def test_plot_data_long_format(tmp_path):
    rows = run_coverage(tiny_config())
    path = tmp_path / "plot.csv"
    write_plot_data_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "study,cell,n,rho,alpha,method,target,metric,value"
    # 4 metrics per row
    assert len(lines) == 1 + 4 * len(rows)


def test_coverage_seed_changes_results():
    r1 = run_coverage(tiny_config(seed=1))
    r2 = run_coverage(tiny_config(seed=2))
    assert coverage_csv_bytes(r1) != coverage_csv_bytes(r2)


def test_bootstrap_method_in_coverage():
    cfg = tiny_config(methods=("bootstrap",), bootstrap_replicates=100,
                      n_grid=(14,), replications=4)
    rows = run_coverage(cfg)
    assert rows[0].method == "bootstrap"
    assert rows[0].replications == 4


# ----------------------------------------------------------------- cdf study


def test_cdf_study_outputs():
    cfg = tiny_config(n_grid=(16,), truth_replications=150, replications=150)
    study = run_cdf_study(cfg)
    assert study.n == 16
    assert study.truth_used <= 150
    assert set(study.curves) >= {("balanced", "edgeworth"), ("balanced", "normal")}
    for key, curve in study.curves.items():
        assert curve.shape == CDF_GRID.shape
        assert ((0 <= curve) & (curve <= 1)).all()
    for key, dist in study.distances.items():
        assert 0.0 <= dist <= 1.0
    d = study.distances_dict()
    json.dumps(d)  # serializable as-is
    assert d["n"] == 16


def test_cdf_study_reports_the_configured_methods_only():
    study = run_cdf_study(tiny_config(n_grid=(16,), truth_replications=50, methods=("normal",)))
    assert list(study.distances) == ["balanced/normal"]
    assert list(study.curves) == [("balanced", "normal")]


def test_cdf_study_counts_the_observed_network_once(monkeypatch):
    calls = []
    real = census_module._census

    def counting(a, n, draw=None):
        calls.append(draw)
        return real(a, n, draw)

    monkeypatch.setattr(census_module, "_census", counting)
    cfg = tiny_config(n_grid=(30,), truth_replications=20,
                      targets=("balanced", "type1", "type2", "type3"))
    study = run_cdf_study(cfg)
    # each of the 20 truth replicates and the observed network is counted
    # once, for all four targets
    assert calls == [None] * (20 + 1)
    assert {t for t, _ in study.curves} == set(cfg.targets)


def test_cdf_truth_draws_count_for_every_target_or_none():
    # at n = 16 some const-cos replicates have triangles but none of type 1
    cfg = tiny_config(n_grid=(16,), targets=("balanced", "type1"), truth_replications=300)
    study = run_cdf_study(cfg)
    assert study.truth_used < 300
    # the first target's truth CDF rests on exactly truth_used draws
    steps = study.truth_cdf * study.truth_used
    np.testing.assert_allclose(steps, np.round(steps), rtol=0, atol=1e-9)


# const-cos at n = 5 whose one truth replicate (seed 2) is degenerate
ALL_TRUTH_DROPPED = {"study": "cdf", "graphon": {"name": "const-cos", "params": {"rho": 0.35}},
                     "n_grid": [5], "truth_replications": 1, "seed": 2, "methods": ["normal"]}


def test_cdf_study_with_every_truth_replicate_dropped_is_degenerate(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the population truth was computed")

    # it fails before it pays for the truth
    monkeypatch.setattr(harness_module, "population_moments", refused)
    with pytest.raises(DegenerateError, match="truth replicates"):
        run_cdf_study(ExperimentConfig.from_dict(ALL_TRUTH_DROPPED))


def test_sup_distance():
    a = np.array([0.0, 0.5, 1.0])
    b = np.array([0.1, 0.4, 1.0])
    assert sup_distance(a, b) == pytest.approx(0.1)


# -------------------------------------------------------------------- timing


def test_run_timing_records(monkeypatch):
    counts = []
    real = census_module._census
    monkeypatch.setattr(census_module, "_census",
                        lambda a, n, draw=None: counts.append(n) or real(a, n, draw))
    fresh = []

    class Recorded(SignedAdjacency):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fresh.append(self)

    monkeypatch.setattr(harness_module, "SignedAdjacency", Recorded)
    recs = run_timing(tiny_config(replications=2))
    # every timed analysis counts its network: none reads another's cached census
    assert counts == [12] * (2 * 2)
    # nor another's studentization or edge counts
    assert len(fresh) == 2 * 2
    assert len({id(adj._bundle.pipelines["balanced"]) for adj in fresh}) == len(fresh)
    assert all(adj._edges is not None and adj._negatives is not None for adj in fresh)
    assert len(recs) == 2
    for rec in recs:
        assert rec["seconds_per_analysis"] > 0
        assert rec["n"] == 12
        assert rec["method"] in ("edgeworth", "normal")
