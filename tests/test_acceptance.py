"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE k: PASS/FAIL (...)` line before asserting,
so the verdict and the measured numbers survive in the captured output.
All tolerances, seeds, and scales are pinned here, not tuned to the run.

Two checks assert the strongest claim the method can meet at the pinned
scale, because a stronger clause would fail for the exact answer too:

* criterion 6 asks that the empirical Edgeworth CDF be closer to the
  simulated truth than the normal CDF, and within the 95% DKW band of it.
  A clause on the gap d_n - d_e cannot be asked for: by the triangle
  inequality the gap is at most sup|G - Phi|, the size of the correction
  itself (about 0.012 at n=160), which is below twice the DKW band
  (0.027) at N=10^4 truth replications.
* criterion 9 checks exact size at a non-degenerate null (logistic-balance,
  alpha=20, against its population w). The sign-fair generator (alpha=0)
  has xi1 = 0, where the studentized test is conservative, so
  there it is only required to stay valid (rate <= 0.07).
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from signed_balance.bootstrap import bootstrap_ci
from signed_balance.census import full_census
from signed_balance.cli import main as cli_main
from signed_balance.errors import DegenerateError
from signed_balance.graph import SignedAdjacency, read_edge_list
from signed_balance.graphon import builtin_spec, population_moments, sample_network
from signed_balance.harness import (
    ExperimentConfig,
    coverage_csv_bytes,
    run_cdf_study,
    run_coverage,
)
from signed_balance.inference import (
    balance_test,
    baselines,
    confidence_interval,
    edgeworth_coefficients,
    projections,
    sample_moments,
    variance_estimator,
)
from signed_balance.rng import stream_key

from _reference import ref_full, ref_inference

# ------------------------------------------------------- pinned parameters

SUITE_SEED = 20260825       # suite generator seed, fixed before measuring
REL_TOL = 1e-12             # criteria 2-4 relative tolerance
EDGE_GRID = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
SIGN_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
GRAPHS_PER_CELL = 14        # 6 x 6 x 14 = 504 >= 500 instances
MASTER_SEED = 0             # all Monte Carlo experiments below
CDF_TRUTH_N = 10_000        # criterion 6 truth replications
DKW_DELTA = 0.05            # 95% DKW band
COVERAGE_REPS = 2_000       # criterion 7
COVERAGE_BAND = (0.93, 0.97)
ALPHA_ENDPOINTS = {20: 0.590, 400: 0.926}   # criterion 8, +/- 0.02
SIZE_REPS = 10_000          # criterion 9
SIZE_BAND = (0.03, 0.07)
POWER_FLOOR = 0.99
TRUTH_BUDGET = 10_000_000


VERDICTS = []


def report(num, ok, details):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({details})"
    VERDICTS.append(line)
    print(line)


def _rel_err(got, want):
    scale = max(abs(want), 1e-300)
    return abs(got - want) / scale


@pytest.fixture(scope="module")
def suite():
    """>=500 random signed graphs, n <= 12, across density/sign grids,
    with single-pass enumeration oracles attached."""
    rng = np.random.default_rng(SUITE_SEED)
    instances = []
    for p_edge in EDGE_GRID:
        for p_neg in SIGN_GRID:
            for _ in range(GRAPHS_PER_CELL):
                n = int(rng.integers(4, 13))
                mat = np.zeros((n, n), dtype=np.int8)
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < p_edge:
                            mat[i, j] = -1 if rng.random() < p_neg else 1
                            mat[j, i] = mat[i, j]
                instances.append((mat, ref_full(mat)))
    assert len(instances) >= 500
    return instances


def _production_pieces(mat):
    adj = SignedAdjacency(mat)
    bundle = full_census(adj, with_pairs=True)
    moments = sample_moments(bundle.census)
    proj = projections(bundle.census, bundle.node, bundle.pair, "balanced")
    return adj, bundle, moments, proj


def test_criterion_01_census_oracle_equivalence(suite):
    t0 = time.perf_counter()
    checked = 0
    for mat, ref in suite:
        bundle = full_census(SignedAdjacency(mat), with_pairs=True)
        c = bundle.census
        want = ref["census"]
        assert (c.total, c.c1, c.c2, c.c3, c.c4, c.balanced) == (
            want["total"], want["c1"], want["c2"], want["c3"], want["c4"],
            want["balanced"])
        np.testing.assert_array_equal(bundle.node.triangles, ref["node"]["total"])
        np.testing.assert_array_equal(bundle.node.balanced, ref["node"]["balanced"])
        np.testing.assert_array_equal(bundle.pair.triangles, ref["pair"]["total"])
        np.testing.assert_array_equal(bundle.pair.balanced, ref["pair"]["balanced"])
        for t in range(4):
            np.testing.assert_array_equal(bundle.node.by_type[t], ref["node"][t])
            np.testing.assert_array_equal(bundle.pair.by_type[t], ref["pair"][t])
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 500 and elapsed < 10.0
    report(1, ok, f"{checked} graphs exact, {elapsed:.1f}s")
    assert checked >= 500
    assert elapsed < 10.0


def test_criterion_02_inference_oracle_equivalence(suite):
    t0 = time.perf_counter()
    compared = 0
    worst = 0.0
    for mat, counts in suite:
        if counts["census"]["total"] == 0:
            continue
        try:
            adj, bundle, moments, proj = _production_pieces(mat)
            s_hat = variance_estimator(proj)
            coef = edgeworth_coefficients(proj)
        except DegenerateError:
            continue
        want = ref_inference(mat, counts=counts)
        # rel_tol covers well-scaled values; abs_tol only matters when a
        # signed reduction cancels to ~0, where relative error is meaningless
        scalars = [
            (proj.U, want["U"]),
            (proj.V, want["V"]),
            (s_hat, want["s_hat"]),
            (coef.a_hat, want["a_hat"]),
            (coef.b_hat, want["b_hat"]),
            (coef.c_hat, want["c_hat"]),
        ]
        for got, exp in scalars:
            assert math.isclose(got, exp, rel_tol=REL_TOL, abs_tol=REL_TOL)
            worst = max(worst, abs(got - exp) / max(abs(exp), 1.0))
        np.testing.assert_allclose(proj.q1, want["q1"], rtol=REL_TOL, atol=REL_TOL)
        np.testing.assert_allclose(proj.p1, want["p1"], rtol=REL_TOL, atol=REL_TOL)
        np.testing.assert_allclose(proj.q2, want["q2"], rtol=REL_TOL, atol=REL_TOL)
        compared += 1
    elapsed = time.perf_counter() - t0
    ok = compared >= 200 and worst < REL_TOL and elapsed < 30.0
    report(2, ok, f"{compared} instances, worst discrepancy {worst:.2e}, {elapsed:.1f}s")
    assert compared >= 200
    assert elapsed < 30.0


def test_criterion_03_variance_identity(suite):
    checked = 0
    worst = 0.0
    for mat, counts in suite:
        if counts["census"]["total"] == 0:
            continue
        try:
            adj, bundle, moments, proj = _production_pieces(mat)
            variance_estimator(proj)
        except DegenerateError:
            continue
        n = proj.n
        c2 = math.comb(n - 1, 2)
        bracket = (proj.node_target / proj.V
                   - proj.U * proj.node_total / proj.V**2) / c2
        ns2_bracket = 9.0 * float(bracket @ bracket) / n
        ns2 = 9.0 * proj.xi1_sq
        worst = max(worst, _rel_err(ns2_bracket, ns2))
        assert _rel_err(ns2_bracket, ns2) < REL_TOL
        checked += 1
    ok = checked >= 200 and worst < REL_TOL
    report(3, ok, f"{checked} instances, worst rel err {worst:.2e}")
    assert checked >= 200


def test_criterion_04_ci_length_identity(suite):
    z = norm.ppf(0.975)
    checked = 0
    worst = 0.0
    for mat, counts in suite:
        if counts["census"]["total"] == 0:
            continue
        adj = SignedAdjacency(mat)
        try:
            for method in ("edgeworth", "normal"):
                rep = confidence_interval(adj, level=0.95, method=method)
                length = rep.ci_upper - rep.ci_lower
                worst = max(worst, _rel_err(length, 2 * z * rep.S_hat))
                assert _rel_err(length, 2 * z * rep.S_hat) < REL_TOL
        except DegenerateError:
            continue
        checked += 1
    ok = checked >= 200 and worst < REL_TOL
    report(4, ok, f"{checked} instances x 2 methods, worst rel err {worst:.2e}")
    assert checked >= 200


def test_criterion_05_baseline_arithmetic():
    b22 = baselines(0.22)["adjusted_balanced"]
    b50 = baselines(0.5)["adjusted_balanced"]
    ok = abs(b22 - 0.587) <= 1e-3 and b50 == 0.5
    report(5, ok, f"adjusted(0.22)={b22:.6f}, adjusted(0.5)={b50!r}")
    assert abs(b22 - 0.587) <= 1e-3
    assert b50 == 0.5


def test_criterion_06_cdf_accuracy():
    cfg = ExperimentConfig(
        graphon_name="const-cos",
        n_grid=(160,),
        replications=COVERAGE_REPS,
        truth_replications=CDF_TRUTH_N,
        methods=("edgeworth", "normal"),
        targets=("balanced",),
        truth_budget=TRUTH_BUDGET,
        seed=MASTER_SEED,
    )
    t0 = time.perf_counter()
    study = run_cdf_study(cfg)
    elapsed = time.perf_counter() - t0
    d_e = study.distances["balanced/edgeworth"]
    d_n = study.distances["balanced/normal"]
    # d_n - d_e <= sup|G - Phi|, so a gap clause is capped by the correction
    correction = float(np.max(np.abs(study.curves[("balanced", "edgeworth")]
                                     - study.curves[("balanced", "normal")])))
    # DKW: the empirical truth CDF lies within eps of the exact one w.p. 1-delta
    eps = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * study.truth_used))
    closer = d_e < d_n
    within_band = d_e <= eps
    ok = closer and within_band and elapsed < 1800
    report(6, ok,
           f"sup-dist edgeworth d_e={d_e:.5f} vs normal d_n={d_n:.5f}, "
           f"DKW eps={eps:.5f}, sup|G-Phi|={correction:.5f}, "
           f"N={study.truth_used}, {elapsed:.0f}s")
    assert closer, (
        f"empirical Edgeworth CDF (d_e={d_e:.5f}) should be closer to the "
        f"truth than the normal CDF (d_n={d_n:.5f})"
    )
    assert within_band, (
        f"empirical Edgeworth CDF is {d_e:.5f} from the truth, outside the "
        f"{1 - DKW_DELTA:.0%} DKW band eps={eps:.5f} at N={study.truth_used}"
    )
    assert elapsed < 1800


def test_criterion_07_coverage():
    cfg = ExperimentConfig(
        graphon_name="const-cos",
        n_grid=(40, 160),
        replications=COVERAGE_REPS,
        level=0.95,
        methods=("edgeworth", "normal"),
        targets=("balanced",),
        truth_budget=TRUTH_BUDGET,
        seed=MASTER_SEED,
    )
    t0 = time.perf_counter()
    rows = run_coverage(cfg)
    elapsed = time.perf_counter() - t0
    by_key = {(row.n, row.method): row.coverage for row in rows}
    cov160 = by_key[(160, "edgeworth")]
    cov40_e = by_key[(40, "edgeworth")]
    cov40_n = by_key[(40, "normal")]
    in_band = COVERAGE_BAND[0] <= cov160 <= COVERAGE_BAND[1]
    ordered = cov40_e >= cov40_n
    ok = in_band and ordered and elapsed < 1200
    report(7, ok,
           f"edgeworth n=160 coverage {cov160:.4f} in {COVERAGE_BAND}, "
           f"n=40 edgeworth {cov40_e:.4f} >= normal {cov40_n:.4f}, "
           f"{COVERAGE_REPS} reps, {elapsed:.0f}s")
    assert in_band
    assert ordered
    assert elapsed < 1200


def test_criterion_08_degree_of_balance_truth_curve():
    values = {}
    for alpha in (20, 50, 100, 200, 400):
        spec = builtin_spec("logistic-balance", {"alpha": alpha})
        values[alpha] = population_moments(
            spec, budget=2_000_000, seed=MASTER_SEED).w
    ok = all(abs(values[a] - want) <= 0.02
             for a, want in ALPHA_ENDPOINTS.items())
    report(8, ok,
           f"w(20)={values[20]:.4f} (want 0.590+/-0.02), "
           f"w(400)={values[400]:.4f} (want 0.926+/-0.02)")
    for alpha, want in ALPHA_ENDPOINTS.items():
        assert abs(values[alpha] - want) <= 0.02


def _rejection_rate(alpha, null_value, stream_index, reps):
    spec = builtin_spec("logistic-balance", {"alpha": alpha})
    reject = 0
    used = 0
    for r in range(reps):
        adj = sample_network(spec, 160, seed=stream_key(MASTER_SEED, stream_index + r))
        try:
            res = balance_test(adj, null_value, alternative="greater")
        except DegenerateError:
            continue
        used += 1
        if res.p_value < 0.05:
            reject += 1
    return reject / used, used


def test_criterion_09_test_calibration():
    t0 = time.perf_counter()
    # exact size needs xi1 > 0: test alpha=20 against its own population w
    null_w = population_moments(
        builtin_spec("logistic-balance", {"alpha": 20}),
        budget=TRUTH_BUDGET, seed=MASTER_SEED).w
    size, used_size = _rejection_rate(20.0, null_w, 2 * SIZE_REPS, SIZE_REPS)
    # alpha=0 is sign-fair, so xi1 = 0 and the test is conservative there
    fair, used_fair = _rejection_rate(0.0, 0.5, 0, SIZE_REPS)
    power, used_power = _rejection_rate(400.0, 0.5, SIZE_REPS, SIZE_REPS)
    elapsed = time.perf_counter() - t0
    size_ok = SIZE_BAND[0] <= size <= SIZE_BAND[1]
    fair_ok = fair <= SIZE_BAND[1]
    power_ok = power >= POWER_FLOOR
    ok = size_ok and fair_ok and power_ok
    report(9, ok,
           f"size at alpha=20 vs w={null_w:.4f}: {size:.4f} "
           f"(want {SIZE_BAND}, n_used={used_size}), "
           f"rate at alpha=0 vs 0.5: {fair:.4f} (want <= {SIZE_BAND[1]}, "
           f"n_used={used_fair}), "
           f"power at alpha=400: {power:.4f} (want >= {POWER_FLOOR}), {elapsed:.0f}s")
    assert size_ok, (
        f"rejection rate {size:.4f} at the non-degenerate null alpha=20, "
        f"w={null_w:.4f}, is outside the {SIZE_BAND} band"
    )
    assert fair_ok, (
        f"rejection rate {fair:.4f} at the sign-fair null alpha=0 exceeds "
        f"{SIZE_BAND[1]}: the test is no longer valid where xi1 = 0"
    )
    assert power_ok, f"power {power:.4f} at alpha=400 is below {POWER_FLOOR}"


def test_criterion_10_determinism(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "const-cos", "params": {}, "n": 40}))
    out_a = tmp_path / "a.edges"
    out_b = tmp_path / "b.edges"

    # simulate -> analyze, twice
    assert cli_main(["simulate", "--spec", str(spec_path), "--seed", "11",
                     "--out", str(out_a)]) == 0
    assert cli_main(["simulate", "--spec", str(spec_path), "--seed", "11",
                     "--out", str(out_b)]) == 0
    capsys.readouterr()
    sim_same = out_a.read_bytes() == out_b.read_bytes()

    assert cli_main(["ci", "--in", str(out_a), "--seed", "5"]) == 0
    ci_1 = capsys.readouterr().out
    assert cli_main(["ci", "--in", str(out_a), "--seed", "5"]) == 0
    ci_2 = capsys.readouterr().out
    ci_same = ci_1 == ci_2

    # thread-count invariance; floor at 2 so a single-core box still
    # exercises the pool
    adj_cores = max(2, os.cpu_count() or 1)
    adj = read_edge_list(out_a)
    boot_1 = bootstrap_ci(adj, B=200, seed=3, threads=1).to_dict()
    boot_all = bootstrap_ci(adj, B=200, seed=3, threads=adj_cores).to_dict()
    boot_same = boot_1 == boot_all

    # mc pipeline, twice and across thread counts
    def cov_bytes(threads):
        cfg = ExperimentConfig(
            graphon_name="const-cos",
            n_grid=(14,),
            replications=10,
            methods=("edgeworth", "normal"),
            targets=("balanced",),
            truth_budget=2000,
            seed=21,
            threads=threads,
        )
        return coverage_csv_bytes(run_coverage(cfg))

    mc_1 = cov_bytes(1)
    mc_2 = cov_bytes(1)
    mc_all = cov_bytes(adj_cores)
    mc_same = mc_1 == mc_2 == mc_all

    ok = sim_same and ci_same and boot_same and mc_same
    report(10, ok,
           f"simulate bytes {sim_same}, ci stdout {ci_same}, "
           f"bootstrap threads(1 vs {adj_cores}) {boot_same}, mc csv {mc_same}")
    assert sim_same
    assert ci_same
    assert boot_same
    assert mc_same
