"""Monte Carlo experiment harness."""

import json

import numpy as np
import pytest

import signed_balance.harness as harness
from signed_balance.errors import ConfigError
from signed_balance.graphon import spec_from_json
from signed_balance.harness import (
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
    tiny_config(methods=("bootstrap",), bootstrap_replicates=100)


def test_from_dict_rejects_unknown_keys():
    obj = {"graphon": {"name": "const-cos"}, "n_grid": [12], "surprise": 1}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(obj)


def test_from_dict_needs_graphon():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_grid": [12]})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
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


def test_cdf_study_counts_the_observed_network_once(monkeypatch):
    calls = []
    real = harness.full_census

    def counting(adj, with_pairs=True):
        calls.append(with_pairs)
        return real(adj, with_pairs=with_pairs)

    monkeypatch.setattr(harness, "full_census", counting)
    cfg = tiny_config(n_grid=(30,), truth_replications=20,
                      targets=("balanced", "type1", "type2", "type3"))
    study = run_cdf_study(cfg)
    # the truth replicates need no pairs; only the observed network does
    assert calls.count(True) == 1
    assert calls.count(False) == 20
    assert {t for t, _ in study.curves} == set(cfg.targets)


def test_sup_distance():
    a = np.array([0.0, 0.5, 1.0])
    b = np.array([0.1, 0.4, 1.0])
    assert sup_distance(a, b) == pytest.approx(0.1)


# -------------------------------------------------------------------- timing


def test_run_timing_records():
    recs = run_timing(tiny_config(replications=2))
    assert len(recs) == 2
    for rec in recs:
        assert rec["seconds_per_analysis"] > 0
        assert rec["n"] == 12
        assert rec["method"] in ("edgeworth", "normal")
