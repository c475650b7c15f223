"""Node-resampling bootstrap comparator."""

import importlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from signed_balance.bootstrap import (
    BootstrapDistribution,
    bootstrap_ci,
    bootstrap_distribution,
    resample_network,
)
from signed_balance.census import census, full_census
from signed_balance.errors import CensusExactnessError, ConfigError, DegenerateBootstrapError
from signed_balance.graph import SignedAdjacency, validate
from signed_balance.graphon import builtin_spec, sample_network
from signed_balance.inference import _interval, _p_value

from _reference import dense_up_to, on_storage, random_signed_matrix

# the package's `census` attribute is the function of that name
census_module = importlib.import_module("signed_balance.census")
bootstrap_module = importlib.import_module("signed_balance.bootstrap")


def observed(n=30, seed=1):
    spec = builtin_spec("const-cos", {})
    return sample_network(spec, n, seed=seed)


def test_resample_keeps_node_count_and_validity():
    adj = observed()
    boot = resample_network(adj, seed=0)
    assert boot.n == adj.n
    validate(boot)


def test_resample_deterministic():
    adj = observed()
    a = resample_network(adj, seed=5)
    b = resample_network(adj, seed=5)
    c = resample_network(adj, seed=6)
    assert a == b
    assert a != c


def test_resample_explicit_indices():
    """Identity indices reproduce the source."""
    adj = observed()
    boot = resample_network(adj, indices=np.arange(adj.n))
    assert boot == adj


def test_resample_duplicate_indices_zero_their_edges():
    # all indices equal: every pair maps to the same source node -> empty graph
    adj = observed()
    boot = resample_network(adj, indices=np.zeros(adj.n, dtype=int))
    assert boot.edge_count() == 0


def test_resample_rejects_tiny_source():
    mat = np.zeros((2, 2), dtype=np.int8)
    with pytest.raises(ConfigError):
        resample_network(SignedAdjacency(mat))


def test_distribution_shape_and_determinism():
    adj = observed()
    d1 = bootstrap_distribution(adj, B=150, seed=3)
    d2 = bootstrap_distribution(adj, B=150, seed=3)
    assert d1.B == 150
    assert len(d1.draws) + d1.degenerate_count == 150
    np.testing.assert_array_equal(d1.draws, d2.draws)


def test_distribution_thread_count_invariant():
    adj = observed()
    seq = bootstrap_distribution(adj, B=120, seed=3, threads=1)
    par = bootstrap_distribution(adj, B=120, seed=3, threads=4)
    np.testing.assert_array_equal(seq.draws, par.draws)


def test_b_floor_enforced():
    with pytest.raises(ConfigError):
        bootstrap_distribution(observed(), B=99)


def test_mostly_degenerate_resamples_raise():
    # two disjoint triangles, one balanced and one not: the source network
    # is analyzable, but a resample is non-degenerate only when both
    # triangles survive, which is rare under node resampling
    mat = np.zeros((8, 8), dtype=np.int8)
    for u, v in ((0, 1), (1, 2), (0, 2)):
        mat[u, v] = mat[v, u] = 1
    for u, v in ((3, 4), (4, 5), (3, 5)):
        mat[u, v] = mat[v, u] = -1
    with pytest.raises(DegenerateBootstrapError):
        bootstrap_distribution(SignedAdjacency(mat), B=100, seed=0)


def test_save_csv_format(tmp_path):
    d = bootstrap_distribution(observed(), B=110, seed=1)
    path = tmp_path / "draws.csv"
    d.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_star"
    assert len(lines) == 1 + len(d.draws)
    back = np.array([float(v) for v in lines[1:]])
    np.testing.assert_array_equal(back, d.draws)


def draws_law(draws):
    return BootstrapDistribution(draws=np.asarray(draws, dtype=np.float64), B=len(draws),
                                 seed=0, target="balanced", degenerate_count=0)


def test_ci_from_draws_orientation():
    draws = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pipe = SimpleNamespace(estimate=0.5, S_hat=0.1)
    lo, hi = _interval(pipe, draws_law(draws), level=0.5)
    assert lo < hi
    # upper draw quantile sets the lower bound
    assert lo == pytest.approx(0.5 - np.quantile(draws, 0.75) * 0.1)


def test_bootstrap_tails_count_a_tie_in_both():
    law = draws_law([-1.0, 0.0, 0.0, 0.0, 1.0])
    assert law.tails(0.0) == (0.8, 0.8)
    assert _p_value(0.0, law, "two-sided") == 1.0


def test_bootstrap_cdf_is_the_right_continuous_step_function():
    draws = bootstrap_distribution(observed(), B=120, seed=3).draws
    grid = np.concatenate([np.linspace(-4.0, 4.0, 33), draws[:10]])
    # P(T* <= x), counted draw by draw: a draw equal to x is in
    want = (draws[None, :] <= grid[:, None]).sum(axis=1) / draws.size
    np.testing.assert_array_equal(draws_law(draws).cdf(grid), want)


def test_bootstrap_ci_report():
    adj = observed(n=40, seed=2)
    rep = bootstrap_ci(adj, level=0.95, B=200, seed=4)
    d = rep.to_dict()
    assert d["method"] == "bootstrap"
    assert d["ci_lower"] < d["estimate"] < d["ci_upper"]
    assert list(d)[:6] == ["target", "n", "U_hat", "V_hat", "estimate", "S_hat"]
    assert set(d["p_values"]) == {"baseline50", "adjusted"}


def test_bootstrap_ci_deterministic_across_threads():
    adj = observed(n=25, seed=9)
    r1 = bootstrap_ci(adj, B=150, seed=7, threads=1).to_dict()
    r2 = bootstrap_ci(adj, B=150, seed=7, threads=3).to_dict()
    assert r1 == r2


def test_bootstrap_interval_reasonable_against_truth():
    """On a moderate network the bootstrap CI sits near the plug-in ratio."""
    adj = observed(n=50, seed=12)
    est = census(adj).balanced / census(adj).total
    rep = bootstrap_ci(adj, B=300, seed=0)
    assert rep.ci_lower < est < rep.ci_upper
    assert rep.ci_upper - rep.ci_lower < 0.5


def test_per_type_bootstrap_runs():
    adj = observed(n=35, seed=3)
    rep = bootstrap_ci(adj, target="type4", B=120, seed=1)
    assert rep.target == "type4"


# ------------------------------------------- replicates from multiplicities


def _draws(n, rng):
    """Random node draws plus the edge cases: identity, all equal, one node
    repeated."""
    repeated = np.arange(n)
    repeated[: n // 2] = 1
    return [rng.integers(0, n, size=n) for _ in range(6)] + [
        np.arange(n), np.full(n, n - 1), repeated]


def _assert_replicate_matches(adj, idx):
    got = census_module._resampled_bundle(census_module._storage(adj), idx)
    want = full_census(resample_network(adj, indices=idx), with_pairs=False)
    assert got.census.to_dict() == want.census.to_dict()
    assert got.pair is None
    for attr in ("triangles", "balanced"):
        np.testing.assert_array_equal(getattr(got.node, attr), getattr(want.node, attr))
    for k in range(1, 5):
        np.testing.assert_array_equal(got.node.for_target(f"type{k}"),
                                      want.node.for_target(f"type{k}"))
    np.testing.assert_array_equal(np.array(got.node.by_type), np.array(want.node.by_type))


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_replicate_census_equals_the_resampled_network(storage):
    rng = np.random.default_rng(8)
    for n, p_edge in ((30, 0.5), (25, 0.9)):
        mat = random_signed_matrix(rng, n, p_edge=p_edge)
        adj = on_storage(mat, storage)
        assert adj.is_dense == (storage == "dense")
        for idx in _draws(n, rng):
            _assert_replicate_matches(adj, idx)


@pytest.mark.parametrize("p_edge", [0.05, 0.5])
def test_replicate_census_with_a_node_drawn_128_times(p_edge):
    # the multiplicities weight every sparse product in int64: in the int8
    # of the storage a count of 128 or more would wrap; the listing runs on
    # the triangle-poor network, the encoded product on the other
    rng = np.random.default_rng(12)
    n = 200
    adj = on_storage(random_signed_matrix(rng, n, p_edge=p_edge), "sparse")
    assert not adj.is_dense and adj.entries.dtype == np.int8
    idx = rng.integers(0, n, size=n)
    idx[:130] = np.argmax(full_census(adj).node.triangles)  # a node on triangles, 130 times
    _assert_replicate_matches(adj, idx)


def test_replicate_census_in_small_row_blocks(monkeypatch):
    rng = np.random.default_rng(9)
    adj = on_storage(random_signed_matrix(rng, 40, p_edge=0.5), "sparse")
    monkeypatch.setattr(census_module, "_BLOCK_ROWS", 7)
    for idx in _draws(40, rng):
        _assert_replicate_matches(adj, idx)


@pytest.mark.parametrize("entries", [1, 50])
def test_replicate_census_in_small_cast_blocks(monkeypatch, entries):
    # dense row sums cast one row, or two or three rows, to float64 at a time
    rng = np.random.default_rng(13)
    adj = on_storage(random_signed_matrix(rng, 30, p_edge=0.5), "dense")
    monkeypatch.setattr(census_module, "_CAST_ENTRIES", entries)
    for idx in _draws(30, rng):
        _assert_replicate_matches(adj, idx)


def test_dense_replicate_row_sums_peak_memory_is_bounded():
    # n = 2000, |S| = 1256: the int16 pair matrix is cast to float64 in row
    # blocks of about 1 MiB; the whole cast peaked at 12.1 MiB
    adj = sample_network(builtin_spec("const-cos", {}), 2000, seed=3)
    draw = census_module._Draw(np.random.default_rng(1).integers(0, 2000, 2000))
    sub = census_module._storage(adj).take(draw.nodes, axis=0).take(draw.nodes, axis=1)
    pair = census_module.PairProjection(sub, draw)
    assert pair.mm.dtype == np.int16 and len(sub) > 1000
    whole = (pair.mm.astype(np.float64) @ draw.counts).astype(np.int64)[draw.where]
    tracemalloc.start()
    try:
        rows = pair.rows(pair.mm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(rows, whole)
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("threshold", [None, 2])
def test_replicate_census_of_three_nodes(threshold):
    mat = np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 0]], dtype=np.int8)
    with dense_up_to(threshold):
        adj = SignedAdjacency(mat)
    for idx in ([0, 1, 2], [2, 0, 1], [0, 0, 1], [1, 1, 1], [2, 1, 2]):
        _assert_replicate_matches(adj, np.array(idx))


def test_listed_replicate_census_equals_the_resampled_network(monkeypatch):
    # a triangle-poor network, whose replicates the census counts by listing
    rng = np.random.default_rng(10)
    mat = random_signed_matrix(rng, 60, p_edge=0.08)
    adj = on_storage(mat, "sparse")
    storage = census_module._storage(adj)
    idx = rng.integers(0, 60, size=60)
    want = full_census(resample_network(adj, indices=idx), with_pairs=False)
    triangles = census_module._Triangles(storage[np.unique(idx)][:, np.unique(idx)])
    assert 0 < triangles.count <= triangles.edges

    def refused(*args):
        raise AssertionError("the encoded product ran")

    monkeypatch.setattr(census_module, "_encoded_squares", refused)
    got = census_module._resampled_bundle(storage, idx)
    assert got.census.to_dict() == want.census.to_dict()
    for attr in ("triangles", "balanced"):
        np.testing.assert_array_equal(getattr(got.node, attr), getattr(want.node, attr))
    np.testing.assert_array_equal(np.array(got.node.by_type), np.array(want.node.by_type))


def test_replicate_digit_width_reads_weighted_degrees(monkeypatch):
    # K5 drawn as node 0 four times and node 1 once: node 1 has degree 1 on
    # the drawn nodes but degree 4 in the resampled network, which needs
    # 3-bit digits.  The two drawn nodes hold no triangle, so the census
    # would list them; the encoded product is called directly.
    mat = np.ones((5, 5), dtype=np.int8) - np.eye(5, dtype=np.int8)
    storage = census_module._storage(on_storage(mat, "sparse"))
    draw = census_module._Draw(np.array([0, 0, 0, 0, 1]))
    sub = storage[draw.nodes][:, draw.nodes]
    w = draw.counts.astype(sub.dtype)
    monkeypatch.setattr(census_module, "_DIGIT_BITS", 3)
    census_module._encoded_squares(sub, w)
    monkeypatch.setattr(census_module, "_DIGIT_BITS", 2)
    with pytest.raises(CensusExactnessError, match="degree"):
        census_module._encoded_squares(sub, w)


def test_distribution_builds_no_resampled_network(monkeypatch):
    calls = {"resample": 0, "census": 0}
    real = census_module._census

    def resample(*args, **kwargs):
        calls["resample"] += 1
        return resample_network(*args, **kwargs)

    def counting(a, n, draw=None):
        calls["census"] += draw is None
        return real(a, n, draw)

    monkeypatch.setattr(bootstrap_module, "resample_network", resample)
    monkeypatch.setattr(census_module, "_census", counting)
    dist = bootstrap_distribution(observed(), B=150, seed=2)
    assert len(dist.draws) + dist.degenerate_count == 150
    # only the observed network is counted whole; replicates are drawn from it
    assert calls == {"resample": 0, "census": 1}
