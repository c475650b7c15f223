"""Moments, projections, variance, Edgeworth machinery, CIs, and tests."""

import importlib
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from signed_balance.bootstrap import bootstrap_ci, bootstrap_distribution
from signed_balance.census import census, full_census
from signed_balance.errors import (
    ConfigError,
    DegenerateVarianceError,
    NoTriangleError,
)
from signed_balance.graph import SignedAdjacency, parse_edge_list
from signed_balance.inference import (
    adjusted_null,
    balance_test,
    baselines,
    confidence_interval,
    cornish_fisher_quantile,
    edgeworth_cdf,
    edgeworth_coefficients,
    projections,
    sample_moments,
    variance_estimator,
)

from _reference import densify, on_storage, random_signed_matrix, ref_inference

# the package's `census` attribute is the function of that name
census_module = importlib.import_module("signed_balance.census")
inference_module = importlib.import_module("signed_balance.inference")

Z975 = norm.ppf(0.975)


def _pipeline(mat, target="balanced"):
    adj = SignedAdjacency(mat)
    bundle = full_census(adj, with_pairs=True)
    moments = sample_moments(bundle.census)
    proj = projections(bundle.census, bundle.node, bundle.pair, target=target)
    return moments, proj


def suite_instances():
    """Random instances with at least a handful of triangles."""
    rng = np.random.default_rng(2024)
    out = []
    while len(out) < 10:
        n = int(rng.integers(8, 14))
        mat = random_signed_matrix(rng, n, p_edge=rng.uniform(0.5, 0.9),
                                   p_neg=rng.uniform(0.2, 0.8))
        if census(SignedAdjacency(mat)).total >= 5:
            out.append(mat)
    return out


SUITE = suite_instances()


# ------------------------------------------------------------------- moments


def test_single_triangle_moments():
    adj = parse_edge_list("a b +1\nb c +1\na c +1\n")
    m = sample_moments(census(adj))
    assert m.U_hat == 1.0 and m.V_hat == 1.0 and m.ratio == 1.0


def test_k4_all_negative_moments():
    mat = -np.ones((4, 4), dtype=np.int8)
    np.fill_diagonal(mat, 0)
    m = sample_moments(census(SignedAdjacency(mat)))
    assert m.V_hat == 1.0
    assert m.U_hat == 0.0 and m.ratio == 0.0


def test_moments_no_triangles_raises():
    adj = parse_edge_list("a b +1\nb c +1\n")
    with pytest.raises(NoTriangleError):
        sample_moments(census(adj))


def test_moments_tiny_graph_raises():
    adj = parse_edge_list("a b +1\n")
    with pytest.raises(NoTriangleError):
        sample_moments(census(adj))


# --------------------------------------------------- projections and variance


@pytest.mark.parametrize("idx", range(len(SUITE)))
def test_projections_match_reference(idx):
    mat = SUITE[idx]
    _, proj = _pipeline(mat)
    want = ref_inference(mat)
    assert proj.U == pytest.approx(want["U"], rel=1e-12)
    assert proj.V == pytest.approx(want["V"], rel=1e-12)
    np.testing.assert_allclose(proj.q1, want["q1"], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(proj.p1, want["p1"], rtol=1e-12, atol=1e-14)
    assert proj.xi1_sq == pytest.approx(want["xi1_sq"], rel=1e-12)


@pytest.mark.parametrize("target", ["type1", "type2", "type3", "type4"])
def test_projections_match_reference_per_type(target):
    mat = SUITE[1]
    ref = ref_inference(mat, target=target)
    _, proj = _pipeline(mat, target=target)
    np.testing.assert_allclose(proj.q1, ref["q1"], rtol=1e-12, atol=1e-14)
    assert proj.xi1_sq == pytest.approx(ref["xi1_sq"], rel=1e-12)


@pytest.mark.parametrize("idx", range(len(SUITE)))
def test_variance_matches_reference(idx):
    mat = SUITE[idx]
    _, proj = _pipeline(mat)
    s_hat = variance_estimator(proj)
    want = ref_inference(mat)
    assert s_hat == pytest.approx(want["s_hat"], rel=1e-12)
    # n * S^2 == 9 * xi1^2
    n = mat.shape[0]
    assert n * s_hat**2 == pytest.approx(9 * proj.xi1_sq, rel=1e-12)


def test_variance_degenerate_raises():
    mat = np.ones((4, 4), dtype=np.int8)  # complete all-positive: q1 == 0
    np.fill_diagonal(mat, 0)
    _, proj = _pipeline(mat)
    with pytest.raises(DegenerateVarianceError):
        variance_estimator(proj)


def test_q2_centering_sums_to_zero():
    # sum_j q2(i, j) == 0 row-wise is not an identity, but the full sum
    # over ordered pairs vanishes up to rounding
    _, proj = _pipeline(SUITE[2])
    q2 = proj.q2
    assert abs(q2.sum()) < 1e-7
    np.testing.assert_allclose(q2, q2.T, rtol=0, atol=1e-12)


# ------------------------------------------------------ Edgeworth coefficients


@pytest.mark.parametrize("idx", range(len(SUITE)))
def test_coefficients_match_reference(idx):
    mat = SUITE[idx]
    _, proj = _pipeline(mat)
    coef = edgeworth_coefficients(proj)
    want = ref_inference(mat)
    assert coef.a_hat == pytest.approx(want["a_hat"], rel=1e-12)
    assert coef.b_hat == pytest.approx(want["b_hat"], rel=1e-12)
    assert coef.c_hat == pytest.approx(want["c_hat"], rel=1e-12)


def test_coefficients_match_reference_per_type():
    mat = SUITE[3]
    for target in ("type2", "type3"):
        _, proj = _pipeline(mat, target=target)
        coef = edgeworth_coefficients(proj)
        want = ref_inference(mat, target=target)
        assert coef.a_hat == pytest.approx(want["a_hat"], rel=1e-12)
        assert coef.b_hat == pytest.approx(want["b_hat"], rel=1e-12)
        assert coef.c_hat == pytest.approx(want["c_hat"], rel=1e-12)


def test_sparse_inference_matches_dense():
    mat = SUITE[4]
    adj_sparse = on_storage(sp.csr_matrix(mat), "sparse")
    bundle = full_census(adj_sparse, with_pairs=True)
    proj = projections(bundle.census, bundle.node, bundle.pair, target="balanced")
    coef = edgeworth_coefficients(proj)
    want = ref_inference(mat)
    assert coef.a_hat == pytest.approx(want["a_hat"], rel=1e-12)
    assert coef.b_hat == pytest.approx(want["b_hat"], rel=1e-12)
    assert variance_estimator(proj) == pytest.approx(want["s_hat"], rel=1e-12)


TYPE_TARGETS = ("type1", "type2", "type3", "type4")


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("target", TYPE_TARGETS)
def test_per_type_coefficients_match_reference_on_both_paths(target, path):
    mat = SUITE[5]
    bundle = full_census(on_storage(mat, path))
    proj = projections(bundle.census, bundle.node, bundle.pair, target=target)
    coef = edgeworth_coefficients(proj)
    want = ref_inference(mat, target=target)
    assert variance_estimator(proj) == pytest.approx(want["s_hat"], rel=1e-12)
    assert coef.a_hat == pytest.approx(want["a_hat"], rel=1e-12)
    assert coef.b_hat == pytest.approx(want["b_hat"], rel=1e-12)
    assert coef.c_hat == pytest.approx(want["c_hat"], rel=1e-12)


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("target", ("balanced",) + TYPE_TARGETS)
def test_lazy_quadratic_form_equals_materialised(target, path):
    # q' W q read from the census products equals the form built from the
    # materialised int64 pair matrices
    mat = random_signed_matrix(np.random.default_rng(41), 60)
    bundle = full_census(on_storage(mat, path))
    proj = projections(bundle.census, bundle.node, bundle.pair, target=target)
    q = proj.q1
    total, counts = bundle.pair.quadratic(target, q)
    # the projections and the form used only the target's own pair counts
    assert "types" not in vars(bundle.pair)
    tt = densify(bundle.pair.triangles).astype(np.float64)
    pt = densify(bundle.pair.for_target(target)).astype(np.float64)
    assert total == pytest.approx(q @ tt @ q, rel=1e-13)
    assert counts == pytest.approx(q @ pt @ q, rel=1e-13)


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_analyses_of_one_adjacency_share_one_census(path, monkeypatch):
    calls = []
    real = census_module._census

    def counting(a, n, draw=None):
        calls.append(draw is None)
        return real(a, n, draw)

    def analyses(adj_of):
        """Every report of one network, each from `adj_of()`, as JSON bytes."""
        return [json.dumps(d).encode() for d in (
            full_census(adj_of()).census.to_dict(),
            confidence_interval(adj_of(), level=0.9).to_dict(),
            confidence_interval(adj_of(), target="type2", method="normal").to_dict(),
            balance_test(adj_of(), 0.5, alternative="greater").to_dict(),
            balance_test(adj_of(), 0.2, target="type2").to_dict(),
            bootstrap_distribution(adj_of(), target="type2", B=100, seed=4).draws.tolist(),
            bootstrap_ci(adj_of(), B=100, seed=4).to_dict(),
        )]

    mat = random_signed_matrix(np.random.default_rng(43), 30)
    monkeypatch.setattr(census_module, "_census", counting)
    adj = on_storage(mat, path)
    shared = analyses(lambda: adj)
    assert calls.count(True) == 1  # the observed network; replicates have a draw
    assert calls.count(False) == 200
    calls.clear()
    fresh = analyses(lambda: on_storage(mat, path))
    assert calls.count(True) == 7
    assert shared == fresh


def _count_calls(monkeypatch, names):
    """Wrap each named inference function so it counts its calls; the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(inference_module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(inference_module, name, counting)
    return calls


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_analyses_of_one_adjacency_share_one_studentization(path, monkeypatch):
    calls = _count_calls(monkeypatch,
                         ("projections", "variance_estimator", "edgeworth_coefficients"))
    adj = on_storage(random_signed_matrix(np.random.default_rng(47), 30), path)
    confidence_interval(adj)
    assert calls == dict.fromkeys(calls, 1)
    confidence_interval(adj, level=0.8, method="normal")
    balance_test(adj, 0.5)
    balance_test(adj, 0.2, alternative="less", method="normal")
    assert calls == dict.fromkeys(calls, 1)
    balance_test(adj, 0.2, target="type3")  # another target is studentized once more
    assert calls == dict.fromkeys(calls, 2)
    assert set(full_census(adj).pipelines) == {"balanced", "type3"}


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_memoized_reports_equal_fresh_reports(path):
    mat = random_signed_matrix(np.random.default_rng(53), 30)
    adj = on_storage(mat, path)

    def reports(adj_of):
        """Every target's reports, each from `adj_of()`, as JSON bytes."""
        return [json.dumps(r.to_dict()).encode() for target in census_module.TARGETS for r in (
            confidence_interval(adj_of(), target=target),
            confidence_interval(adj_of(), level=0.8, target=target, method="normal"),
            balance_test(adj_of(), 0.3, alternative="two-sided", target=target),
        )]

    first = reports(lambda: adj)
    assert first == reports(lambda: adj) == reports(lambda: on_storage(mat, path))


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_census_without_pairs_neither_reads_nor_fills_the_memo(path):
    mat = random_signed_matrix(np.random.default_rng(59), 30)
    adj = on_storage(mat, path)
    bare = full_census(adj, with_pairs=False)
    inference_module._pipeline(bare, "balanced")
    assert bare.pipelines == {} and full_census(adj).pipelines == {}
    rep = confidence_interval(adj)
    want = confidence_interval(on_storage(mat, path))
    assert (rep.a_hat, rep.b_hat, rep.c_hat) == (want.a_hat, want.b_hat, want.c_hat)
    # the memo is full now, yet a census without pairs still builds its own
    with pytest.raises(ConfigError, match="pair projection"):
        inference_module._pipeline(full_census(adj, with_pairs=False), "balanced").coef


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("case", ["no-triangle", "zero-variance"])
def test_degenerate_network_raises_on_every_call(case, path, monkeypatch):
    calls = _count_calls(monkeypatch, ("projections",))
    if case == "no-triangle":
        mat, error = np.zeros((6, 6), dtype=np.int8), NoTriangleError
    else:
        mat, error = np.ones((6, 6), dtype=np.int8), DegenerateVarianceError
        np.fill_diagonal(mat, 0)
    adj = on_storage(mat, path)
    for k in range(1, 4):
        with pytest.raises(error):
            confidence_interval(adj)
        with pytest.raises(error):
            balance_test(adj, 0.5)
        assert calls["projections"] == 2 * k
    assert full_census(adj).pipelines == {}


def test_bootstrap_studentizes_the_observed_network_once(monkeypatch):
    observed = []
    real = inference_module.projections

    def counting(census, node, pair, target="balanced"):
        observed.append(pair is not None)  # a replicate's census has no pairs
        return real(census, node, pair, target)

    monkeypatch.setattr(inference_module, "projections", counting)
    adj = SignedAdjacency(random_signed_matrix(np.random.default_rng(61), 30))
    bootstrap_ci(adj, B=100, seed=2)
    assert observed.count(True) == 1 and observed.count(False) == 100
    confidence_interval(adj)
    assert observed.count(True) == 1


# --------------------------------------------------------------- CDF/quantile


def test_cdf_reduces_to_normal_with_zero_coefficients():
    from signed_balance.inference import EdgeworthCoefficients

    coef = EdgeworthCoefficients(a_hat=0.0, b_hat=0.0, c_hat=0.0, n=50)
    x = np.linspace(-4, 4, 101)
    np.testing.assert_allclose(edgeworth_cdf(x, coef), norm.cdf(x), rtol=0, atol=1e-15)


def test_cdf_is_clamped_to_unit_interval():
    from signed_balance.inference import EdgeworthCoefficients

    coef = EdgeworthCoefficients(a_hat=25.0, b_hat=-18.0, c_hat=9.0, n=9)
    x = np.linspace(-8, 8, 401)
    vals = edgeworth_cdf(x, coef)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert edgeworth_cdf(-30.0, coef) == 0.0
    assert edgeworth_cdf(30.0, coef) == 1.0


def test_c_term_alone():
    # only c nonzero: G(x) = Phi(x) - 3c x^2 phi(x)/sqrt(n), q = z + 3c z^2/sqrt(n)
    from signed_balance.inference import EdgeworthCoefficients

    c, n = 0.1, 64
    coef = EdgeworthCoefficients(a_hat=0.0, b_hat=0.0, c_hat=c, n=n)
    for x in (-2.0, -0.5, 0.8, 1.7):
        want = norm.cdf(x) - 3.0 * c * x * x * norm.pdf(x) / math.sqrt(n)
        assert edgeworth_cdf(x, coef) == pytest.approx(want, rel=1e-12, abs=1e-15)
    for alpha in (0.025, 0.2, 0.9, 0.975):
        z = norm.ppf(alpha)
        want = z + 3.0 * c * z * z / math.sqrt(n)
        assert cornish_fisher_quantile(alpha, coef) == pytest.approx(want, rel=1e-12)


def test_quantile_normal_case():
    from signed_balance.inference import EdgeworthCoefficients

    coef = EdgeworthCoefficients(a_hat=0.0, b_hat=0.0, c_hat=0.0, n=50)
    assert cornish_fisher_quantile(0.975, coef) == pytest.approx(1.959964, abs=1e-6)
    assert cornish_fisher_quantile(0.5, coef) == pytest.approx(0.0, abs=1e-12)


def test_zero_coefficients_are_the_normal_law():
    from signed_balance.inference import EdgeworthCoefficients

    law = EdgeworthCoefficients(a_hat=0.0, b_hat=0.0, c_hat=0.0, n=50)
    assert law.quantile(0.975) == ndtri(0.975)
    assert law.tails(1.0) == (ndtr(1.0), 1.0 - ndtr(1.0))


def test_quantile_spread_is_coefficient_free():
    """q(1-a/2) - q(a/2) depends only on the x^2-free part, giving 2*z."""
    from signed_balance.inference import EdgeworthCoefficients

    rng = np.random.default_rng(5)
    for _ in range(20):
        coef = EdgeworthCoefficients(
            a_hat=float(rng.normal()), b_hat=float(rng.normal()),
            c_hat=float(rng.normal()), n=int(rng.integers(10, 500)),
        )
        for alpha in (0.1, 0.05, 0.01):
            spread = cornish_fisher_quantile(1 - alpha / 2, coef) - \
                cornish_fisher_quantile(alpha / 2, coef)
            z = norm.ppf(1 - alpha / 2)
            assert spread == pytest.approx(2 * z, rel=1e-12)


def test_quantile_rejects_bad_level():
    from signed_balance.inference import EdgeworthCoefficients

    coef = EdgeworthCoefficients(0.0, 0.0, 0.0, 20)
    with pytest.raises(ConfigError):
        cornish_fisher_quantile(0.0, coef)
    with pytest.raises(ConfigError):
        cornish_fisher_quantile(1.0, coef)


# ------------------------------------------------------------------ baselines


def test_baseline_values():
    b = baselines(0.22)
    assert b["baseline50"] == 0.5
    assert b["baseline25"] == 0.25
    assert b["adjusted_balanced"] == pytest.approx(0.587808, abs=1e-9)
    assert baselines(0.5)["adjusted_balanced"] == 0.5
    assert baselines(0.0)["adjusted_balanced"] == 1.0


def test_adjusted_type_components_sum_to_one():
    for s in (0.1, 0.22, 0.37, 0.5, 0.9):
        b = baselines(s)
        total = sum(b[f"adjusted_type{t}"] for t in (1, 2, 3, 4))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert b["adjusted_balanced"] == pytest.approx(
            b["adjusted_type1"] + b["adjusted_type3"], rel=1e-12)


def test_adjusted_null_dispatch():
    assert adjusted_null("balanced", 0.5) == 0.5
    assert adjusted_null("type1", 0.5) == pytest.approx(1 / 8)
    assert adjusted_null("type2", 0.5) == pytest.approx(3 / 8)
    with pytest.raises(ConfigError):
        adjusted_null("nope", 0.5)


# --------------------------------------------------------- confidence_interval


def report_for(mat, **kw):
    return confidence_interval(SignedAdjacency(mat), **kw)


def test_report_json_fields_exact():
    rep = report_for(SUITE[0], level=0.95)
    d = rep.to_dict()
    assert list(d) == [
        "target", "n", "U_hat", "V_hat", "estimate", "S_hat",
        "a_hat", "b_hat", "c_hat", "c_delta", "delta_draw",
        "level", "ci_lower", "ci_upper", "method", "p_values", "baselines",
    ]
    assert d["method"] == "edgeworth"
    assert set(d["baselines"]) == {
        "baseline50", "baseline25", "adjusted_balanced",
        "adjusted_type1", "adjusted_type2", "adjusted_type3", "adjusted_type4",
    }


def test_ci_length_identity_both_methods():
    for mat in SUITE[:5]:
        for method in ("edgeworth", "normal"):
            rep = report_for(mat, level=0.95, method=method)
            length = rep.ci_upper - rep.ci_lower
            want = 2 * Z975 * rep.S_hat
            assert length == pytest.approx(want, rel=1e-12)


def test_ci_contains_estimate():
    rep = report_for(SUITE[0], level=0.95)
    assert rep.ci_lower <= rep.estimate <= rep.ci_upper


def test_normal_method_is_symmetric():
    rep = report_for(SUITE[0], level=0.9, method="normal")
    lower_gap = rep.estimate - rep.ci_lower
    upper_gap = rep.ci_upper - rep.estimate
    assert lower_gap == pytest.approx(upper_gap, rel=1e-12)


def test_edgeworth_center_shift_matches_coefficients():
    # edgeworth interval = normal interval shifted by the CF correction
    rep_e = report_for(SUITE[1], level=0.95, method="edgeworth")
    rep_n = report_for(SUITE[1], level=0.95, method="normal")
    assert rep_e.ci_upper - rep_e.ci_lower == pytest.approx(
        rep_n.ci_upper - rep_n.ci_lower, rel=1e-12)
    if abs(rep_e.a_hat) + abs(rep_e.b_hat) + abs(rep_e.c_hat) > 1e-8:
        assert rep_e.ci_lower != pytest.approx(rep_n.ci_lower, abs=1e-15)


def test_level_outside_unit_interval_rejected():
    with pytest.raises(ConfigError):
        report_for(SUITE[0], level=1.0)
    with pytest.raises(ConfigError):
        report_for(SUITE[0], level=0.0)


def test_all_positive_complete_graph_degenerate():
    mat = np.ones((6, 6), dtype=np.int8)
    np.fill_diagonal(mat, 0)
    with pytest.raises(DegenerateVarianceError):
        report_for(mat)


def test_delta_perturbation_seeded_and_recorded():
    rep0 = report_for(SUITE[0], level=0.95, c_delta=0.5, seed=9)
    rep1 = report_for(SUITE[0], level=0.95, c_delta=0.5, seed=9)
    rep2 = report_for(SUITE[0], level=0.95, c_delta=0.5, seed=10)
    assert rep0.delta_draw == rep1.delta_draw != 0.0
    assert rep0.delta_draw != rep2.delta_draw
    assert rep0.c_delta == 0.5
    # draw scale follows sqrt(c * log(n) / n)
    n = SUITE[0].shape[0]
    draws = [report_for(SUITE[0], c_delta=2.0, seed=s).delta_draw
             for s in range(300)]
    want_sd = math.sqrt(2.0 * math.log(n) / n)
    assert np.std(draws) == pytest.approx(want_sd, rel=0.15)


def test_delta_disabled_by_default():
    rep = report_for(SUITE[0])
    assert rep.c_delta == 0.0 and rep.delta_draw == 0.0


@pytest.mark.parametrize("c_delta", [-2.0, float("nan"), float("inf")])
def test_c_delta_must_be_finite_and_nonnegative(c_delta):
    with pytest.raises(ConfigError, match="c_delta"):
        report_for(SUITE[0], c_delta=c_delta)


def test_per_type_targets_run():
    for target in ("type1", "type2", "type3", "type4"):
        rep = report_for(SUITE[5], target=target)
        assert rep.target == target
        assert 0 <= rep.estimate <= 1


def test_unknown_target_rejected():
    with pytest.raises(ConfigError):
        report_for(SUITE[0], target="type5")


# --------------------------------------------------------------- balance_test


def test_pvalue_tail_conventions():
    adj = SignedAdjacency(SUITE[0])
    null = 0.5
    greater = balance_test(adj, null, alternative="greater")
    less = balance_test(adj, null, alternative="less")
    two = balance_test(adj, null, alternative="two-sided")
    assert greater.p_value + less.p_value == pytest.approx(1.0, rel=1e-12)
    assert two.p_value == pytest.approx(
        min(1.0, 2 * min(greater.p_value, less.p_value)), rel=1e-12)
    assert greater.statistic == less.statistic == two.statistic


def test_pvalue_normal_method_matches_phi():
    adj = SignedAdjacency(SUITE[0])
    res = balance_test(adj, 0.5, alternative="greater", method="normal")
    assert res.p_value == pytest.approx(1 - norm.cdf(res.statistic), rel=1e-12)


def test_test_result_dict_fields():
    adj = SignedAdjacency(SUITE[0])
    d = balance_test(adj, 0.4, alternative="two-sided").to_dict()
    assert list(d) == [
        "target", "n", "estimate", "S_hat", "null_value",
        "alternative", "statistic", "p_value", "method",
    ]


def test_statistic_is_studentized():
    adj = SignedAdjacency(SUITE[0])
    rep = confidence_interval(adj)
    res = balance_test(adj, 0.4)
    assert res.statistic == pytest.approx((rep.estimate - 0.4) / rep.S_hat, rel=1e-12)


@pytest.mark.parametrize("null", [float("nan"), float("inf"), float("-inf"), "1e400"])
def test_non_finite_null_rejected(null):
    with pytest.raises(ConfigError, match="null value"):
        balance_test(SignedAdjacency(SUITE[0]), null)


def test_extreme_null_gives_extreme_pvalues():
    adj = SignedAdjacency(SUITE[0])
    assert balance_test(adj, 0.9999, alternative="greater").p_value > 0.99
    assert balance_test(adj, 0.9999, alternative="less").p_value < 0.01
