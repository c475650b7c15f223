"""Graphon sampling and population moments."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from signed_balance.errors import ConfigError, GraphonRangeError, NoTriangleError
from signed_balance.graph import validate
from signed_balance.graphon import (
    BUILTIN_NAMES,
    GraphonSpec,
    builtin_spec,
    population_moments,
    sample_network,
    spec_from_json,
)

from _reference import ref_balanced_probability, ref_type_probability


def _ones(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {"const-cos", "logistic-balance", "sparse-const"}


def test_const_cos_values():
    spec = builtin_spec("const-cos", {})
    assert spec.edge_probability(0.3, 0.7) == pytest.approx(0.8)
    # sign law at the origin
    assert spec.negative_probability(0.0, 0.0) == pytest.approx(2 / 3 + 0.3, abs=1e-12)


def test_logistic_balance_values():
    spec = builtin_spec("logistic-balance", {"alpha": 0.0})
    assert spec.negative_probability(0.9, 0.1) == pytest.approx(0.5)
    steep = builtin_spec("logistic-balance", {"alpha": 1e4})
    # same block: strongly positive edge
    assert steep.negative_probability(1.0, 1.0) < 1e-12


def test_sparse_const_rho():
    spec = builtin_spec("sparse-const", {"k": 3, "n": 160})
    assert spec.rho == pytest.approx(160 ** (-1 / 3))
    assert spec.edge_probability(0.5, 0.5) == pytest.approx(160 ** (-1 / 3))


def test_builtin_unknown_name_and_params():
    with pytest.raises(ConfigError):
        builtin_spec("nope", {})
    with pytest.raises(ConfigError):
        builtin_spec("const-cos", {"beta": 1})
    with pytest.raises(ConfigError):
        builtin_spec("logistic-balance", {})  # alpha required


def test_spec_from_json_roundtrip():
    spec, n = spec_from_json({"name": "const-cos", "params": {}, "n": 40})
    assert n == 40
    assert spec.name == "const-cos"
    spec2, _ = spec_from_json({"name": "logistic-balance",
                               "params": {"alpha": 50}, "n": 10})
    assert spec2.params["alpha"] == 50


def test_spec_rejects_asymmetric_graphon():
    def lopsided(x, y):
        return np.asarray(0.3 * np.asarray(x) + 0.6 * np.asarray(y) * 0)

    with pytest.raises(GraphonRangeError):
        GraphonSpec(F=lambda x, y: np.asarray(x) * 0.0 + np.asarray(y) * 1.0,
                    G=_zeros, rho=1.0, s=1.0)


def test_spec_rejects_out_of_range_probability():
    with pytest.raises(GraphonRangeError):
        GraphonSpec(F=_ones, G=_ones, rho=1.5, s=1.0)


def test_all_positive_complete_graph():
    spec = GraphonSpec(F=_ones, G=_zeros, rho=1.0, s=1.0)
    adj = sample_network(spec, 4, seed=0)
    assert adj.edge_count() == 6
    assert adj.negative_count() == 0


def test_empty_graph():
    spec = GraphonSpec(F=_zeros, G=_zeros, rho=1.0, s=1.0)
    adj = sample_network(spec, 8, seed=0)
    assert adj.edge_count() == 0


def test_rho_and_s_ranges_enforced():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(GraphonRangeError):
            GraphonSpec(F=_ones, G=_zeros, rho=bad, s=1.0)
        with pytest.raises(GraphonRangeError):
            GraphonSpec(F=_ones, G=_zeros, rho=1.0, s=bad)


def test_sample_is_valid_and_deterministic():
    spec = builtin_spec("const-cos", {})
    a = sample_network(spec, 25, seed=3)
    b = sample_network(spec, 25, seed=3)
    c = sample_network(spec, 25, seed=4)
    validate(a)
    assert a == b
    assert a != c


def test_sample_returns_latent_optionally():
    spec = builtin_spec("const-cos", {})
    adj, latent = sample_network(spec, 10, seed=1, return_latent=True)
    assert latent.shape == (10,)
    assert ((0 <= latent) & (latent <= 1)).all()
    # same seed without the flag gives the same network
    assert adj == sample_network(spec, 10, seed=1)


def test_edge_proportion_matches_rho():
    """Constant F: edge count is Binomial(C(n,2), rho)."""
    spec = builtin_spec("const-cos", {})
    n, reps = 40, 200
    pairs = n * (n - 1) // 2
    props = [sample_network(spec, n, seed=s).edge_count() / pairs
             for s in range(reps)]
    se = math.sqrt(0.8 * 0.2 / (pairs * reps))
    assert np.mean(props) == pytest.approx(0.8, abs=4 * se)


def test_sparse_storage_kicks_in():
    spec = builtin_spec("const-cos", {})
    adj = sample_network(spec, 30, seed=0, dense_threshold=10)
    assert not adj.is_dense
    dense = sample_network(spec, 30, seed=0)
    assert dense.is_dense
    assert adj == dense  # same entries either way


SAMPLER_GOLDEN = Path(__file__).parent / "golden" / "sampler_sha256.json"
SAMPLER_CASES = [
    (name, params, n, None)
    for name, params in (("logistic-balance", {"alpha": 20.0}),
                         ("logistic-balance", {"alpha": 400.0}),
                         ("const-cos", {}))
    for n in (3, 40, 160)
] + [("const-cos", {}, 40, 10)]  # sparse storage


def _sample_digest(name, params, n, dense_threshold, seed=17):
    adj, latent = sample_network(builtin_spec(name, params), n, seed=seed,
                                 return_latent=True, dense_threshold=dense_threshold)
    entries = adj.to_dense().astype(np.int8, copy=False)
    return {
        "dense": adj.is_dense,
        "entries": hashlib.sha256(np.ascontiguousarray(entries).tobytes()).hexdigest(),
        "latent": hashlib.sha256(latent.astype("<f8").tobytes()).hexdigest(),
    }


def _case_key(name, params, n, dense_threshold):
    return f"{name} {json.dumps(params, sort_keys=True)} n={n} dense_threshold={dense_threshold}"


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=lambda c: _case_key(*c))
def test_sampler_bytes_are_pinned(case):
    # any change to the draw order, the pair layout or the sign coding breaks replays
    golden = json.loads(SAMPLER_GOLDEN.read_text())["digests"]
    assert _sample_digest(*case) == golden[_case_key(*case)]


# ------------------------------------------------------- population moments


def test_population_moments_all_positive():
    spec = GraphonSpec(F=_ones, G=_zeros, rho=0.7, s=1.0)
    pm = population_moments(spec, budget=2000, seed=0)
    assert pm.w == pytest.approx(1.0, abs=1e-12)
    assert pm.w_t[0] == pytest.approx(1.0, abs=1e-12)
    assert pm.w_t[1] == pm.w_t[2] == pm.w_t[3] == 0.0


def test_population_moments_fair_coin_signs():
    half = lambda x, y: np.full_like(np.asarray(x, dtype=float), 0.5)
    spec = GraphonSpec(F=_ones, G=half, rho=0.9, s=1.0)
    pm = population_moments(spec, budget=5000, seed=1)
    assert pm.w == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(pm.w_t, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-12)


def test_population_moments_budget_guard():
    spec = builtin_spec("const-cos", {})
    with pytest.raises(ConfigError):
        population_moments(spec, budget=999)


def test_population_moments_degenerate_v():
    spec = GraphonSpec(F=_zeros, G=_zeros, rho=1.0, s=1.0)
    with pytest.raises(NoTriangleError):
        population_moments(spec, budget=2000)


def test_population_moments_deterministic():
    spec = builtin_spec("const-cos", {})
    a = population_moments(spec, budget=20000, seed=5)
    b = population_moments(spec, budget=20000, seed=5)
    assert a.w == b.w and a.v == b.v
    assert a.to_dict() == b.to_dict()


def test_population_w_identity():
    spec = builtin_spec("const-cos", {})
    pm = population_moments(spec, budget=50000, seed=2)
    assert pm.w == pytest.approx(pm.w_t[0] + pm.w_t[2], abs=1e-12)
    assert sum(pm.w_t) == pytest.approx(1.0, abs=1e-12)
    assert pm.u == pytest.approx(pm.w * pm.v, rel=1e-12)


def test_population_se_shrinks_with_budget():
    spec = builtin_spec("const-cos", {})
    small = population_moments(spec, budget=2000, seed=3)
    big = population_moments(spec, budget=200000, seed=3)
    assert big.mc_se["w"] < small.mc_se["w"]


def test_balanced_probability_identity():
    """(1 + prod(1-2s)) / 2 equals enumeration over 8 sign patterns."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        s1, s2, s3 = rng.random(3)
        closed = (1 + (1 - 2 * s1) * (1 - 2 * s2) * (1 - 2 * s3)) / 2
        assert abs(closed - ref_balanced_probability(s1, s2, s3)) < 1e-12


def test_type_probability_identities():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = rng.random(3)
        t1 = (1 - s[0]) * (1 - s[1]) * (1 - s[2])
        t4 = s[0] * s[1] * s[2]
        assert abs(t1 - ref_type_probability(*s, 1)) < 1e-12
        assert abs(t4 - ref_type_probability(*s, 4)) < 1e-12
        # types 2 and 3 from the reference enumeration sum with 1 and 4 to 1
        total = sum(ref_type_probability(*s, t) for t in (1, 2, 3, 4))
        assert abs(total - 1.0) < 1e-12


def test_logistic_grid_is_monotone():
    # stronger alpha pushes the balanced share up
    values = []
    for alpha in (20, 400):
        spec = builtin_spec("logistic-balance", {"alpha": alpha})
        values.append(population_moments(spec, budget=200000, seed=0).w)
    assert values[0] < values[1]
