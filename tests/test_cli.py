"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signed_balance.cli as cli
import signed_balance.harness as harness
from signed_balance.bootstrap import bootstrap_ci
from signed_balance.cli import main
from signed_balance.graph import read_edge_list
from signed_balance.graphon import builtin_spec, sample_network

# the package's `census` attribute is the function of that name
census_module = importlib.import_module("signed_balance.census")
ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "const-cos", "params": {}, "n": 30}))
    return str(path)


@pytest.fixture
def edges_file(tmp_path, spec_file, capsys):
    out = tmp_path / "net.edges"
    code, _, _ = run_cli(
        ["simulate", "--spec", spec_file, "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    return str(out)


def test_version(capsys):
    code, out, _ = run_cli(["version"], capsys)
    assert code == 0
    assert out.strip() == "0.1.0"


def test_simulate_reports_summary(tmp_path, spec_file, capsys):
    out = tmp_path / "n.edges"
    code, stdout, _ = run_cli(
        ["simulate", "--spec", spec_file, "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    d = json.loads(stdout)
    assert d["n"] == 30 and d["seed"] == 1
    assert out.exists()


def test_simulate_n_flag_overrides_spec(tmp_path, spec_file, capsys):
    out = tmp_path / "n.edges"
    code, stdout, _ = run_cli(
        ["simulate", "--spec", spec_file, "--n", "12", "--seed", "1",
         "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(stdout)["n"] == 12


@pytest.mark.parametrize("params, law_n", [({"k": 3}, 50), ({"k": 3, "n": 1000}, 1000)])
def test_simulate_n_flag_reaches_the_law_n_param(tmp_path, params, law_n, capsys):
    # --n replaces the spec's n, so sparse-const draws at rho = 50^(-1/3)
    # unless the spec gives the law's n param itself
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "sparse-const", "params": params, "n": 1000}))
    code, stdout, _ = run_cli(["simulate", "--spec", str(path), "--n", "50", "--seed", "0",
                               "--out", str(tmp_path / "n.edges")], capsys)
    assert code == 0
    want = sample_network(builtin_spec("sparse-const", {"k": 3, "n": law_n}), 50, seed=0)
    assert json.loads(stdout)["edges"] == want.edge_count()


def test_simulate_bad_json_names_the_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    code, _, err = run_cli(
        ["simulate", "--spec", str(spec), "--out", str(tmp_path / "n.edges")], capsys)
    assert code == 1
    assert err.startswith(f"error: {spec} is not valid JSON")


def test_simulate_deterministic(tmp_path, spec_file, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    run_cli(["simulate", "--spec", spec_file, "--seed", "5", "--out", str(a)], capsys)
    run_cli(["simulate", "--spec", spec_file, "--seed", "5", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_census_json(edges_file, capsys):
    code, out, _ = run_cli(["census", "--in", edges_file], capsys)
    assert code == 0
    d = json.loads(out)
    assert list(d) == ["n", "total", "c1", "c2", "c3", "c4", "balanced"]
    assert d["balanced"] == d["c1"] + d["c3"]


def test_census_pretty_is_not_json(edges_file, capsys):
    code, out, _ = run_cli(["census", "--in", edges_file, "--pretty"], capsys)
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "balanced" in out


def test_ci_pretty_nests_the_p_values_and_baselines(edges_file, capsys):
    report = json.loads(run_cli(["ci", "--in", edges_file], capsys)[1])
    code, out, _ = run_cli(["ci", "--in", edges_file, "--pretty"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["target", report["target"]]
    for key in ("p_values", "baselines"):
        at = lines.index(f"{key}:")
        nested = lines[at + 1:at + 1 + len(report[key])]
        assert [line.split() for line in nested] == [[k, str(v)] for k, v in report[key].items()]
        assert all(line.startswith("  ") for line in nested)


def test_ci_fields(edges_file, capsys):
    code, out, _ = run_cli(["ci", "--in", edges_file, "--level", "0.9"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["level"] == 0.9
    assert d["method"] == "edgeworth"
    assert d["ci_lower"] < d["estimate"] < d["ci_upper"]
    assert set(d["p_values"]) == {"baseline50", "adjusted"}


def test_ci_type2_uses_quarter_baseline(edges_file, capsys):
    code, out, _ = run_cli(
        ["ci", "--in", edges_file, "--target", "type2"], capsys)
    assert code == 0
    assert set(json.loads(out)["p_values"]) == {"baseline25", "adjusted"}


def test_ci_bootstrap_with_draws(tmp_path, edges_file, capsys):
    draws = tmp_path / "draws.csv"
    code, out, _ = run_cli(
        ["ci", "--in", edges_file, "--method", "bootstrap",
         "--replicates", "120", "--seed", "2", "--threads", "1",
         "--draws-out", str(draws)], capsys)
    assert code == 0
    assert json.loads(out)["method"] == "bootstrap"
    lines = draws.read_text().splitlines()
    assert lines[0] == "t_star" and len(lines) > 100


def test_ci_bootstrap_draws_and_report_come_from_one_distribution(
        tmp_path, edges_file, capsys, monkeypatch):
    real = cli.bootstrap_distribution
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "bootstrap_distribution", counted)
    draws = tmp_path / "draws.csv"
    code, out, _ = run_cli(
        ["ci", "--in", edges_file, "--method", "bootstrap", "--replicates", "120",
         "--seed", "2", "--threads", "1", "--draws-out", str(draws)], capsys)
    assert code == 0
    assert len(calls) == 1
    adj = read_edge_list(edges_file)
    assert json.loads(out) == bootstrap_ci(adj, B=120, seed=2, threads=1).to_dict()
    want = real(adj, B=120, seed=2, threads=1).draws
    assert draws.read_text().splitlines()[1:] == [repr(float(v)) for v in want]


def test_ci_bootstrap_bad_level_exits_before_resampling(edges_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "bootstrap_distribution", None)  # must not be reached
    code, _, err = run_cli(
        ["ci", "--in", edges_file, "--method", "bootstrap", "--level", "1.5"], capsys)
    assert code == 1
    assert "level" in err


def test_test_subcommand_numeric_null(edges_file, capsys):
    code, out, _ = run_cli(
        ["test", "--in", edges_file, "--null", "0.5", "--alt", "two-sided"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["null_value"] == 0.5
    assert 0.0 <= d["p_value"] <= 1.0
    assert d["null_name"] == "0.5"


def test_test_subcommand_adjusted_null(edges_file, capsys):
    code, out, _ = run_cli(
        ["test", "--in", edges_file, "--null", "adjusted"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["null_name"] == "adjusted"
    assert 0.0 < d["null_value"] < 1.0


def test_test_rejects_garbage_null(edges_file, capsys):
    code, _, err = run_cli(["test", "--in", edges_file, "--null", "half"], capsys)
    assert code == 1
    assert "null" in err


@pytest.mark.parametrize("null", ["nan", "inf", "1e400", "--null=-inf"])
def test_test_rejects_non_finite_null(edges_file, null, capsys):
    flag = [null] if null.startswith("--") else ["--null", null]
    code, out, err = run_cli(["test", "--in", edges_file, *flag], capsys)
    assert code == 1
    assert err.startswith("error:") and "null value" in err and out == ""


@pytest.mark.parametrize("c_delta", ["-1", "nan", "inf"])
def test_ci_rejects_bad_c_delta(edges_file, c_delta, capsys):
    code, out, err = run_cli(["ci", "--in", edges_file, "--c-delta", c_delta], capsys)
    assert code == 1
    assert err.startswith("error:") and "c_delta" in err and out == ""


@pytest.mark.parametrize("flags, named", [
    (["--method", "bootstrap", "--c-delta", "0.5"], "c_delta"),
    (["--method", "bootstrap", "--c-delta", "-5"], "c_delta"),
    (["--draws-out", "DRAWS"], "--draws-out"),
    (["--method", "normal", "--draws-out", "DRAWS"], "--draws-out"),
])
def test_ci_refuses_flags_its_method_ignores(tmp_path, edges_file, flags, named, capsys,
                                            monkeypatch):
    monkeypatch.setattr(cli, "read_edge_list", None)  # refused before the file is read
    draws = tmp_path / "draws.csv"
    flags = [str(draws) if f == "DRAWS" else f for f in flags]
    code, out, err = run_cli(["ci", "--in", edges_file, *flags], capsys)
    assert code == 1
    assert err.startswith("error:") and named in err and out == ""
    assert not draws.exists()


def test_mc_coverage(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "study": "coverage",
        "graphon": {"name": "const-cos"},
        "n_grid": [12],
        "replications": 5,
        "methods": ["normal"],
        "targets": ["balanced"],
        "truth_budget": 2000,
        "seed": 8,
    }))
    outdir = tmp_path / "runs" / "results"  # created with its parent
    code, out, _ = run_cli(
        ["mc", "--config", str(cfg), "--out", str(outdir), "--plot-data"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["study"] == "coverage"
    assert (outdir / "coverage.csv").exists()
    assert (outdir / "coverage_plot_data.csv").exists()


@pytest.mark.parametrize("study, files", [
    ("cdf", ["cdf_distances.json", "cdf_curves.csv"]), ("timing", ["timing.csv"])])
def test_mc_cdf_and_timing_studies(tmp_path, study, files, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "study": study, "graphon": {"name": "const-cos"}, "n_grid": [12], "replications": 2,
        "truth_replications": 20, "truth_budget": 2000, "methods": ["normal"], "seed": 8,
    }))
    outdir = tmp_path / "results"
    code, out, _ = run_cli(["mc", "--config", str(cfg), "--out", str(outdir)], capsys)
    assert code == 0
    assert json.loads(out) == {"study": study, "written": [str(outdir / f) for f in files]}
    assert sorted(p.name for p in outdir.iterdir()) == sorted(files)


def test_mc_cdf_study_with_every_truth_replicate_dropped_exits_3(tmp_path, capsys):
    # const-cos at n = 5 whose one truth replicate (seed 2) is degenerate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "study": "cdf", "graphon": {"name": "const-cos", "params": {"rho": 0.35}}, "n_grid": [5],
        "truth_replications": 1, "seed": 2, "methods": ["normal"]}))
    outdir = tmp_path / "results"
    code, out, err = run_cli(["mc", "--config", str(cfg), "--out", str(outdir)], capsys)
    assert code == 3
    assert err.startswith("error:") and "truth replicates" in err and out == ""
    assert not outdir.exists()


@pytest.mark.parametrize("study", ["cdf", "timing"])
def test_mc_refuses_plot_data_outside_a_coverage_study(tmp_path, study, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": study, "graphon": {"name": "const-cos"},
                               "n_grid": [12], "truth_budget": 2000}))
    outdir = tmp_path / "results"
    code, out, err = run_cli(
        ["mc", "--config", str(cfg), "--out", str(outdir), "--plot-data"], capsys)
    assert code == 1
    assert err.startswith("error:") and "plot data" in err and out == ""
    assert not outdir.exists()


@pytest.mark.parametrize("over, want", [
    ({"level": 1.5}, 1),
    ({"truth_budget": 10}, 1),
    ({"methods": ["bootstrap"], "bootstrap_replicates": 5}, 1),
    ({"methods": ["bootstrap"], "bootstrap_replicates": 100, "c_delta": 0.5}, 1),
    ({"graphon": {"name": "nope"}}, 1),
    ({"graphon": {"name": "const-cos", "rho": 2}}, 2),
    ({"graphon": {"name": "logistic-balance"}, "param_grid": {"alpha": ["x"]}}, 1),
    ({"study": "cdf", "truth_replications": 0}, 1),
    ({"study": "cdf", "n_grid": [12, 16]}, 1),
    ({"study": "timing", "targets": ["balanced", "type1"]}, 1),
    ({"study": "cdf", "c_delta": 0.5}, 1),
])
def test_mc_checks_the_whole_config_before_creating_out(tmp_path, over, want, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graphon": {"name": "const-cos"}, "n_grid": [12],
                               "replications": 2, "truth_budget": 2000, **over}))
    outdir = tmp_path / "results"
    code, out, err = run_cli(["mc", "--config", str(cfg), "--out", str(outdir)], capsys)
    assert code == want
    assert err.startswith("error:") and out == ""
    assert not outdir.exists()


def test_mc_unknown_study(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": "wat", "graphon": {"name": "const-cos"}}))
    outdir = tmp_path / "results"
    code, _, err = run_cli(["mc", "--config", str(cfg), "--out", str(outdir)], capsys)
    assert code == 1
    assert "study" in err
    assert not outdir.exists()


@pytest.mark.parametrize("content", ["[1, 2]", '"x"', "null"])
def test_mc_non_object_config(tmp_path, content, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    outdir = tmp_path / "results"
    code, out, err = run_cli(
        ["mc", "--config", str(cfg), "--out", str(outdir), "--threads", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "object" in err and out == ""
    assert not outdir.exists()


def test_mc_threads_flag_replaces_a_checked_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    outdir = tmp_path / "results"
    for in_config, flag, want in [(0, "1", 1), (1, "0", 1), (3, "2", 0)]:
        cfg.write_text(json.dumps({
            "graphon": {"name": "const-cos"}, "n_grid": [12], "replications": 2,
            "methods": ["normal"], "truth_budget": 2000, "threads": in_config}))
        code, _, err = run_cli(
            ["mc", "--config", str(cfg), "--out", str(outdir), "--threads", flag], capsys)
        assert code == want, (in_config, flag)
        if want:
            assert err.startswith("error:") and "threads" in err


@pytest.mark.parametrize("c_delta", ["-1.0", "NaN", "Infinity"])
def test_mc_refuses_bad_c_delta_before_the_truth(tmp_path, c_delta, capsys, monkeypatch):
    monkeypatch.setattr(harness, "population_moments", None)  # must not be reached
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"graphon": {"name": "const-cos"}, "n_grid": [12], "c_delta": %s}' % c_delta)
    outdir = tmp_path / "results"
    code, _, err = run_cli(["mc", "--config", str(cfg), "--out", str(outdir)], capsys)
    assert code == 1
    assert err.startswith("error:") and "c_delta" in err
    assert not outdir.exists()


def test_mc_non_numeric_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key, value, named in [
        ("replications", "many", "replications"), ("n_grid", ["a"], "n_grid"),
        ("n_grid", 5, "n_grid"), ("bootstrap_replicates", "x", "bootstrap_replicates"),
        ("param_grid", {"alpha": "35"}, "alpha"), ("methods", "bootstrap", "methods"),
        ("graphon", {"name": "logistic-balance", "params": {"alpha": "x"}}, "alpha"),
        ("graphon", {"name": "const-cos", "rho": "abc"}, "rho"),
    ]:
        obj = {"graphon": {"name": "const-cos"}, "methods": ["bootstrap"],
               "bootstrap_replicates": 50, key: value}
        cfg.write_text(json.dumps(obj))
        code, _, err = run_cli(["mc", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error:") and repr(named) in err


@pytest.mark.parametrize("spec, key", [
    ({"name": "logistic-balance", "params": {"alpha": "x"}, "n": 12}, "alpha"),
    ({"name": "const-cos", "rho": "abc", "n": 12}, "rho"),
    ({"name": "const-cos", "n": "abc"}, "n"),
    ({"name": "sparse-const", "params": {"k": 3}, "n": "abc"}, "n"),
])
def test_simulate_non_numeric_spec_value(tmp_path, spec, key, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(
        ["simulate", "--spec", str(path), "--out", str(tmp_path / "n.edges")], capsys)
    assert code == 1
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("spec, key", [
    ({"name": "const-cos", "params": "abc", "n": 12}, "params"),
    ({"name": "const-cos", "params": [["rho", 0.5]], "n": 12}, "params"),
    ({"name": "const-cos", "n": 12.9}, "n"),
    ({"name": "sparse-const", "params": {"k": 3, "n": 12.5}, "n": 12}, "n"),
    ({"name": "const-cos", "n": 12.0}, None),  # an integral float is that integer
    # a key no law reads, rho given twice, and rho on a law whose rho comes from k and n
    ({"name": "const-cos", "rhoo": 0.05, "n": 30}, "rhoo"),
    ({"name": "const-cos", "params": {"rho": 0.3}, "rho": 0.05, "n": 30}, "rho"),
    ({"name": "sparse-const", "params": {"k": 3}, "rho": 0.5, "n": 30}, "rho"),
    # params that are neither an object nor null
    ({"name": "const-cos", "params": 0, "n": 12}, "params"),
    ({"name": "const-cos", "params": False, "n": 12}, "params"),
    ({"name": "const-cos", "params": "", "n": 12}, "params"),
    ({"name": "const-cos", "params": [], "n": 12}, "params"),
])
def test_simulate_refuses_non_object_params_and_fractional_integers(tmp_path, spec, key, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        ["simulate", "--spec", str(path), "--out", str(tmp_path / "n.edges")], capsys)
    if key is None:
        assert code == 0 and json.loads(out)["n"] == 12
    else:
        assert code == 1
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "n.edges").exists()


@pytest.mark.parametrize("graphon, over, key", [
    ({"name": "const-cos", "rho": 0.5}, {"param_grid": {"rho": [0.3, 0.9]}}, "rho"),
    ({"name": "const-cos", "params": {"rho": 0.3}, "rho": 0.5}, {}, "rho"),
    ({"name": "sparse-const", "params": {"k": 3}, "n": 999}, {}, "n"),
    ({"name": "const-cos", "rhoo": 0.05}, {}, "rhoo"),
])
def test_mc_refuses_a_graphon_key_it_would_ignore(tmp_path, graphon, over, key, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graphon": graphon, "n_grid": [12], "replications": 2,
                               "truth_budget": 2000, **over}))
    outdir = tmp_path / "results"
    code, out, err = run_cli(["mc", "--config", str(cfg), "--out", str(outdir)], capsys)
    assert code == 1
    assert err.startswith("error:") and repr(key) in err and out == ""
    assert not outdir.exists()


def test_mc_refuses_non_object_params_and_fractional_integers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cases = [("graphon", {"name": "const-cos", "params": p}, "params") for p in ("abc", [])] + [
        (key, value, key) for key, value in [
            ("n_grid", [12.9]), ("replications", 8.5), ("seed", 1.5), ("truth_budget", 2000.5),
            ("truth_replications", 10.5), ("bootstrap_replicates", 100.5), ("threads", 1.5)]
    ] + [("graphon", {"name": "sparse-const", "params": {"k": 3, "n": 12.5}}, "n")]
    for key, value, named in cases:
        obj = {"graphon": {"name": "const-cos"}, "n_grid": [12], "replications": 2,
               "truth_budget": 2000, key: value}
        cfg.write_text(json.dumps(obj))
        code, _, err = run_cli(["mc", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 1, (key, value)
        assert err.startswith("error:") and repr(named) in err, (key, err)


# ---------------------------------------------------------------------- flags

TARGETS = ["balanced", "type1", "type2", "type3", "type4"]

# subcommand -> ({option string: default}, {dest: choices})
FLAGS = {
    "simulate": ({"--spec": None, "--n": None, "--seed": 0, "--out": None, "--pretty": False},
                 {}),
    "census": ({"--in": None, "--pretty": False}, {}),
    "ci": ({"--in": None, "--level": 0.95, "--target": "balanced", "--method": "edgeworth",
            "--replicates": 1000, "--c-delta": 0.0, "--seed": 0, "--threads": None,
            "--draws-out": None, "--pretty": False},
           {"target": TARGETS, "method": ["edgeworth", "normal", "bootstrap"]}),
    "test": ({"--in": None, "--null": None, "--alt": "greater", "--target": "balanced",
              "--method": "edgeworth", "--pretty": False},
             {"alt": ["greater", "less", "two-sided"], "target": TARGETS,
              "method": ["edgeworth", "normal"]}),
    "mc": ({"--config": None, "--out": None, "--plot-data": False, "--threads": None,
            "--pretty": False}, {}),
    "version": ({}, {}),
}


def test_subcommand_flags_are_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAGS)
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        flags = {opt: a.default for a in actions for opt in a.option_strings}
        choices = {a.dest: list(a.choices) for a in actions if a.choices is not None}
        assert (flags, choices) == FLAGS[name], name


# ----------------------------------------------------------------- exit codes


def test_exit_usage_on_bad_flag(capsys):
    assert run_cli(["census", "--nope"], capsys)[0] == 1


def test_exit_usage_on_missing_subcommand(capsys):
    assert run_cli([], capsys)[0] == 1


def test_exit_usage_on_unknown_subcommand(capsys):
    assert run_cli(["fly"], capsys)[0] == 1


def test_exit_data_on_missing_file(capsys):
    code, _, err = run_cli(["census", "--in", "/nonexistent/x.edges"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["census", "ci"])
def test_exit_data_on_directory_input(tmp_path, command, capsys):
    code, out, err = run_cli([command, "--in", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("command", ["census", "ci"])
def test_exit_data_on_non_utf8_input(tmp_path, command, capsys):
    bad = tmp_path / "latin1.edges"
    bad.write_bytes(b"a b +1\nb c -1\nc\xe9 a +1\n")
    code, out, err = run_cli([command, "--in", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error: line 3:") and "UTF-8" in err and out == ""


@pytest.mark.parametrize("command", ["census", "ci"])
def test_exit_data_on_overlong_node_count(tmp_path, command, capsys):
    bad = tmp_path / "huge.edges"
    bad.write_text("a b +1\n# nodes: " + "7" * 5000 + "\n")
    code, out, err = run_cli([command, "--in", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error: line 2:") and "5000 digits" in err and out == ""


def test_census_of_a_huge_declared_node_set(tmp_path, capsys):
    # 2M nodes and one edge: the canonical ids are never listed
    path = tmp_path / "huge.edges"
    path.write_text("# nodes: 2000000\n0000003 1999999 -1\n")
    code, out, _ = run_cli(["census", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 2000000, "total": 0, "c1": 0, "c2": 0, "c3": 0, "c4": 0,
                               "balanced": 0}


def test_exit_data_on_conflicting_edge(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b +1\nb a -1\n")
    assert run_cli(["census", "--in", str(bad)], capsys)[0] == 2


def test_exit_data_on_census_exactness_error(edges_file, capsys, monkeypatch):
    # feed the census's exactness check a non-integral trace
    real = census_module._type_counts
    monkeypatch.setattr(
        census_module, "_type_counts", lambda traces: real([t + 0.5 for t in traces]))
    code, out, err = run_cli(["census", "--in", edges_file], capsys)
    assert code == 2
    assert err.startswith("error:") and "exact" in err
    assert out == ""


def test_exit_degenerate_on_one_triangle(tmp_path, capsys):
    tri = tmp_path / "tri.edges"
    tri.write_text("a b +1\nb c +1\na c +1\n")
    code, _, err = run_cli(["ci", "--in", str(tri)], capsys)
    assert code == 3
    assert "error:" in err


def test_exit_degenerate_on_no_triangles(tmp_path, capsys):
    path = tmp_path / "path.edges"
    path.write_text("a b +1\nb c +1\n")
    assert run_cli(["ci", "--in", str(path)], capsys)[0] == 3
    two = tmp_path / "two.edges"  # fewer than 3 nodes
    two.write_text("a b -1\n")
    assert run_cli(["ci", "--in", str(two)], capsys)[0] == 3
    assert run_cli(["test", "--in", str(two), "--null", "0.5"], capsys)[0] == 3


def _run_module(*args):
    """`python -m signed_balance.cli` with src/ on PYTHONPATH, as test_demos runs the demos."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "signed_balance.cli", *args],
                          env=env, capture_output=True, text=True)


def test_console_script_help_exits_zero():
    proc = _run_module("--help")
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_console_script_usage_error_exit_one():
    proc = _run_module("census")
    assert proc.returncode == 1
