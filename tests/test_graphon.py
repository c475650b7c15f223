"""Graphon sampling and population moments."""

import hashlib
import importlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from signed_balance.errors import ConfigError, GraphonRangeError, NoTriangleError
from signed_balance.graph import validate
from signed_balance.graphon import (
    _CHUNK,
    _LAWS,
    BUILTIN_NAMES,
    GraphonSpec,
    builtin_spec,
    population_moments,
    sample_network,
    spec_from_json,
)

from _reference import dense_up_to, ref_balanced_probability, ref_type_probability

graphon_module = importlib.import_module("signed_balance.graphon")
ROOT = Path(__file__).resolve().parents[1]


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


def test_every_law_builds_from_its_required_params_and_round_trips():
    for name, (declared, _, _) in _LAWS.items():
        required = {key: kind(3) for key, (kind, default) in declared.items() if default is None}
        spec = builtin_spec(name, required)
        assert list(spec.params) == list(declared), name
        again, _ = spec_from_json({"name": name, "params": spec.params})
        assert (again.params, again.rho, again.s) == (spec.params, spec.rho, spec.s), name
    # README's law table lists exactly the table's laws
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("**Graphon spec**")[1]
    table = section.split("\n\n| name |", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"^\| `([\w-]+)` \|", table, re.M)) == BUILTIN_NAMES


def test_spec_from_json_probes_one_spec_and_records_the_rho_in_force(monkeypatch):
    probes = []
    real = graphon_module._probe_points
    monkeypatch.setattr(graphon_module, "_probe_points", lambda: probes.append(1) or real())
    spec, _ = spec_from_json({"name": "logistic-balance", "params": {"alpha": 5},
                              "rho": 0.5, "s": 0.9})
    assert len(probes) == 1
    assert (spec.rho, spec.s, spec.params) == (0.5, 0.9, {"alpha": 5.0, "rho": 0.5})


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
    with dense_up_to(10):
        adj = sample_network(spec, 30, seed=0)
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


def _sample_digest(name, params, n, threshold, seed=17):
    with dense_up_to(threshold):
        adj, latent = sample_network(builtin_spec(name, params), n, seed=seed, return_latent=True)
    entries = adj.to_dense().astype(np.int8, copy=False)
    return {
        "dense": adj.is_dense,
        "entries": hashlib.sha256(np.ascontiguousarray(entries).tobytes()).hexdigest(),
        "latent": hashlib.sha256(latent.astype("<f8").tobytes()).hexdigest(),
    }


def _case_key(name, params, n, threshold):
    # a golden file key; its `dense_threshold` is the DENSE_THRESHOLD of the draw
    return f"{name} {json.dumps(params, sort_keys=True)} n={n} dense_threshold={threshold}"


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=lambda c: _case_key(*c))
def test_sampler_bytes_are_pinned(case):
    # any change to the draw order, the pair layout or the sign coding breaks replays
    golden = json.loads(SAMPLER_GOLDEN.read_text())["digests"]
    assert _sample_digest(*case) == golden[_case_key(*case)]


@pytest.mark.parametrize("chunk", [1, 1000])
@pytest.mark.parametrize("threshold", [None, 10])
def test_sampler_draws_the_same_bytes_in_row_blocks(monkeypatch, chunk, threshold):
    # the pairs are evaluated in row blocks of about _CHUNK pairs; the draw
    # equals the one-block draw on both storages
    spec = builtin_spec("logistic-balance", {"alpha": 20.0})
    with dense_up_to(threshold):
        for n in (1, 2, 3, 47, 182):
            monkeypatch.setattr(graphon_module, "_CHUNK", n * n)
            assert len(graphon_module._row_blocks(n)) == 2  # one block
            whole, x = sample_network(spec, n, seed=9, return_latent=True)
            monkeypatch.setattr(graphon_module, "_CHUNK", chunk)
            blocks = graphon_module._row_blocks(n)
            assert blocks[0] == 0 and blocks[-1] == n and (np.diff(blocks) > 0).all()
            got, y = sample_network(spec, n, seed=9, return_latent=True)
            assert got.is_dense == whole.is_dense == (threshold is None or n <= threshold)
            assert got == whole and np.array_equal(x, y)
            np.testing.assert_array_equal(got.to_dense(), whole.to_dense())


def _pair_band(x_a, x_b, inside, outside):
    """A symmetric law that is `inside` only at the latent pair (x_a, x_b),
    which no probe point hits, and `outside` elsewhere."""
    def law(x, y):
        near_a, near_b = np.abs(x - x_a) < 1e-12, np.abs(y - x_b) < 1e-12
        swap = (np.abs(x - x_b) < 1e-12) & (np.abs(y - x_a) < 1e-12)
        return np.where((near_a & near_b) | swap, inside, outside)

    return law


@pytest.mark.parametrize("which", ["F", "G"])
def test_sampler_checks_the_range_past_the_first_block(monkeypatch, which):
    # the latents of nodes 30 and 35 meet in row 30, past the first block
    monkeypatch.setattr(graphon_module, "_CHUNK", 100)
    n, seed = 40, 6
    assert graphon_module._row_blocks(n)[1] <= 30
    _, x = sample_network(builtin_spec("const-cos"), n, seed=seed, return_latent=True)
    label = r"rho\*F" if which == "F" else r"s\*G"
    for inside, shown in [(1.5, "0.5, 1.5"), (math.nan, "nan, nan"),
                          (math.inf, "0.5, inf"), (-math.inf, "-inf, 0.5")]:
        law = _pair_band(x[30], x[35], inside, 0.5)
        spec = GraphonSpec(F=law if which == "F" else _ones, G=law if which == "G" else _ones,
                           rho=1.0, s=1.0)
        with pytest.raises(GraphonRangeError,
                           match=label + r" left \[0,1\] \(range \[" + shown + r"\]\)"):
            sample_network(spec, n, seed=seed)


def test_sampler_peak_memory_is_bounded():
    # n = 2000: the boolean edge vector, the int8 matrix and the copy of its
    # transpose, and one row block's temporaries, where the C(n,2)-long
    # float64 latents, uniforms and probabilities peaked at 82 MiB
    spec = builtin_spec("const-cos", {})
    tracemalloc.start()
    try:
        adj = sample_network(spec, 2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.is_dense and adj.n == 2000
    assert peak <= 16 * 2**20


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


def test_population_moments_peak_memory_is_bounded():
    # one chunk's buffers, whatever the budget
    spec = builtin_spec("logistic-balance", {"alpha": 20})
    peaks = []
    for budget in (10**6, 2**21 + 24581):
        tracemalloc.start()
        try:
            population_moments(spec, budget=budget, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 6 * 2**20
    assert peaks[1] <= peaks[0] + 2**18


@pytest.mark.parametrize("length", [1, 8191, 8192, 8193, 10**6])
def test_block_sums_equal_the_whole_column_einsum(length):
    # population_moments sums each batch in _BLOCK-long blocks, in order,
    # with the 2D einsum forms below; its bytes are those of the 1D einsum
    # over each whole batch-length column only while these agree
    block = graphon_module._BLOCK
    assert block == 2**13 and _CHUNK % block == 0
    rng = np.random.default_rng(length)
    cols = rng.uniform(size=(6, length + 3))[:, 3:]  # rows neither aligned nor adjacent
    whole_sums = [np.einsum("i->", col) for col in cols]
    whole_sumsq = [np.einsum("i,i->", col, col) for col in cols]
    whole_cross = [np.einsum("i,i->", col, cols[0]) for col in cols[1:]]
    sums, sumsq, cross = np.zeros(6), np.zeros(6), np.zeros(5)
    for k in range(0, length, block):
        b = cols[:, k:k + block]
        sums += np.einsum("ij->i", b)
        sumsq += np.einsum("ij,ij->i", b, b)
        cross += np.einsum("ij,j->i", b[1:], b[0])
    assert sums.tolist() == whole_sums
    assert sumsq.tolist() == whole_sumsq
    assert cross.tolist() == whole_cross


def _band_sign_law(x, y):
    # out of [0,1] only where min(x, y) is within 1e-5 of 0.618..., which no
    # probe point hits
    near = np.abs(np.minimum(x, y) - 0.6180339887) < 1e-5
    return np.where(near, 1.5, 0.5)


def test_population_moments_checks_the_range_past_the_first_chunk():
    spec = GraphonSpec(F=_ones, G=_band_sign_law, rho=1.0, s=1.0)
    # at seed 4 the band is first hit in the fourth chunk
    population_moments(spec, budget=3 * _CHUNK, seed=4)
    with pytest.raises(GraphonRangeError, match=r"s\*G left \[0,1\] \(range \[0.5, 1.5\]\)"):
        population_moments(spec, budget=4 * _CHUNK, seed=4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("which", ["F", "G"])
def test_population_moments_rejects_a_non_finite_probability(which, bad):
    # the law is `bad` only in the band of the triples the fourth chunk draws
    def law(x, y):
        return np.where(_band_sign_law(x, y) > 1.0, bad, 0.5)

    spec = GraphonSpec(F=law if which == "F" else _ones, G=law if which == "G" else _ones,
                       rho=1.0, s=1.0)
    label = r"rho\*F" if which == "F" else r"s\*G"
    with pytest.raises(GraphonRangeError, match=label + r" left \[0,1\]"):
        population_moments(spec, budget=4 * _CHUNK, seed=4)


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
