"""Report bytes pinned against recorded digests.

golden/reports_sha256.json holds the SHA-256 of `json.dumps` of each report
below, taken on one const-cos n = 40 draw on both storage paths, on a
sparse-const n = 300 draw with far fewer triangles than edges and on a
sparse const-cos n = 300 draw with a quarter as many, plus the
distances of a two-target cdf study, the bootstrap draws of every
per-type target on the n = 40 and sparse-const draws, and the population
truth of each builtin graphon at budgets around the truth loop's chunk and
batch lengths.  A change that keeps every output byte passes unchanged;
one that means to change an output re-records the file with
`PYTHONPATH=src python tests/test_reports_golden.py > tests/golden/reports_sha256.json`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from signed_balance.bootstrap import bootstrap_ci, bootstrap_distribution
from signed_balance.census import full_census
from signed_balance.graphon import builtin_spec, population_moments, sample_network
from signed_balance.harness import ExperimentConfig, run_cdf_study
from signed_balance.inference import balance_test, confidence_interval

from _reference import STORAGE, dense_up_to

GOLDEN = Path(__file__).parent / "golden" / "reports_sha256.json"

CASES = (
    [("ci", method, target, c_delta)
     for method in ("edgeworth", "normal")
     for target in ("balanced", "type2", "type4")
     for c_delta in (0.0, 0.7)]
    + [("test", alternative, method)
       for alternative in ("greater", "less", "two-sided")
       for method in ("edgeworth", "normal")]
    + [("bootstrap",)]
)

# a sparse-const draw with 57 triangles on 1038 edges, counted by listing
# them; every target holds a triangle on it
POOR_CASES = (
    [("ci", method, target, 0.0)
     for method in ("edgeworth", "normal")
     for target in ("balanced", "type1", "type2", "type3", "type4")]
    + [("test", "two-sided", "edgeworth")]
)

# a const-cos rho = 0.05 draw with 497 triangles on 2169 edges, also listed:
# its pair rows hold enough entries that its bytes move with the order its
# float sums run in (see census._quad)
RICH_CASE = ("ci", "edgeworth", "balanced", 0.0)

# both targets have nonzero variance on every truth replicate
CDF_CONFIG = ExperimentConfig(
    graphon_name="const-cos", n_grid=(40,), replications=1, truth_budget=2000,
    truth_replications=200, methods=("edgeworth", "normal", "bootstrap"),
    bootstrap_replicates=100, targets=("balanced", "type2"), seed=4,
)


# bootstrap draws: each per-type target on the const-cos n = 40 draw and on
# the triangle-poor one (weighted listed replicates), and a small sparse
# network whose replicates partly drop (no triangle or zero variance)
DRAW_CASES = [(storage, target) for storage in (*STORAGE, "poor-sparse")
              for target in ("type1", "type2", "type3", "type4")] + [
    ("small-sparse", "balanced"), ("poor-sparse", "balanced")]


# budgets: below, at and above graphon's 2^14-triple chunk, two batches of
# 2^20 with a short last one, and three batches whose last holds several
# 2^13-triple blocks and a short one, so that a change to the per-batch
# grouping of the sums moves bytes
TRUTH_SPECS = {
    "logistic-balance alpha=0": ("logistic-balance", {"alpha": 0}),
    "logistic-balance alpha=20": ("logistic-balance", {"alpha": 20}),
    "logistic-balance alpha=400": ("logistic-balance", {"alpha": 400}),
    "const-cos": ("const-cos", {}),
    "sparse-const k=1.5 n=300": ("sparse-const", {"k": 1.5, "n": 300}),
}
TRUTH_CASES = [(spec, budget) for spec in TRUTH_SPECS
               for budget in (1000, 2**14 - 1, 2**14, 2**14 + 1, 2**20 + 7, 2**21 + 24581)]


def _truth(spec, budget):
    name, params = TRUTH_SPECS[spec]
    return population_moments(builtin_spec(name, params), budget=budget, seed=11).to_dict()


def _network(storage):
    with dense_up_to(STORAGE.get(storage, 0)):  # every draw but "dense" is sparse
        if storage == "poor-sparse":
            return sample_network(builtin_spec("sparse-const", {"k": 1.5, "n": 300}), 300, seed=2)
        if storage == "rich-sparse":
            return sample_network(builtin_spec("const-cos", {"rho": 0.05}), 300, seed=1)
        return sample_network(builtin_spec("const-cos", {}), 40, seed=23)


def _report(adj, case):
    kind, *args = case
    if kind == "ci":
        method, target, c_delta = args
        return confidence_interval(adj, level=0.9, target=target, method=method,
                                   c_delta=c_delta, seed=5)
    if kind == "test":
        alternative, method = args
        return balance_test(adj, 0.5, alternative=alternative, method=method)
    return bootstrap_ci(adj, level=0.9, B=200, seed=3)


def _draws(storage, target):
    if storage == "small-sparse":
        with dense_up_to(5):
            adj = sample_network(builtin_spec("const-cos", {}), 12, seed=1)
    else:
        adj = _network(storage)
    dist = bootstrap_distribution(adj, target=target, B=200, seed=3)
    return adj, {"degenerate_count": dist.degenerate_count, "draws": dist.draws.tolist()}


def _key(storage, case):
    return " ".join([storage, *map(str, case)])


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def _golden():
    return json.loads(GOLDEN.read_text())["digests"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(map(str, c)))
@pytest.mark.parametrize("storage", STORAGE)
def test_report_bytes_are_pinned(storage, case):
    adj = _network(storage)
    assert adj.is_dense == (storage == "dense")
    assert _digest(_report(adj, case).to_dict()) == _golden()[_key(storage, case)]


@pytest.mark.parametrize("case", POOR_CASES, ids=lambda c: " ".join(map(str, c)))
def test_triangle_poor_report_bytes_are_pinned(case):
    adj = _network("poor-sparse")
    census = full_census(adj).census
    assert not adj.is_dense and 0 < census.total <= adj.edge_count() // 10
    assert _digest(_report(adj, case).to_dict()) == _golden()[_key("poor-sparse", case)]


def test_triangle_richer_listed_report_bytes_are_pinned():
    adj = _network("rich-sparse")
    census = full_census(adj).census
    assert not adj.is_dense and adj.edge_count() // 10 < census.total <= adj.edge_count()
    assert _digest(_report(adj, RICH_CASE).to_dict()) == _golden()[_key("rich-sparse", RICH_CASE)]


@pytest.mark.parametrize("storage, target", DRAW_CASES, ids=[" ".join(c) for c in DRAW_CASES])
def test_bootstrap_draws_are_pinned(storage, target):
    adj, draws = _draws(storage, target)
    assert adj.is_dense == (storage == "dense")
    if storage == "small-sparse":
        assert 0 < draws["degenerate_count"] < 100
    assert _digest(draws) == _golden()[_key("draws " + storage, (target,))]


def test_cdf_study_distances_are_pinned():
    study = run_cdf_study(CDF_CONFIG)
    assert study.truth_used == CDF_CONFIG.truth_replications
    assert _digest(study.distances_dict()) == _golden()["cdf study"]


@pytest.mark.parametrize("spec, budget", TRUTH_CASES,
                         ids=[f"{spec} {budget}" for spec, budget in TRUTH_CASES])
def test_population_truth_bytes_are_pinned(spec, budget):
    assert _digest(_truth(spec, budget)) == _golden()[f"truth {spec} {budget}"]


def _pinned():
    """Each key the tests above read, with a call that makes the object
    its digest is taken of."""
    pinned = {}
    for s in STORAGE:
        for c in CASES:
            pinned[_key(s, c)] = lambda s=s, c=c: _report(_network(s), c).to_dict()
    for c in POOR_CASES:
        pinned[_key("poor-sparse", c)] = lambda c=c: _report(_network("poor-sparse"), c).to_dict()
    pinned[_key("rich-sparse", RICH_CASE)] = (
        lambda: _report(_network("rich-sparse"), RICH_CASE).to_dict())
    pinned["cdf study"] = lambda: run_cdf_study(CDF_CONFIG).distances_dict()
    for s, t in DRAW_CASES:
        pinned[_key("draws " + s, (t,))] = lambda s=s, t=t: _draws(s, t)[1]
    for spec, budget in TRUTH_CASES:
        pinned[f"truth {spec} {budget}"] = lambda spec=spec, budget=budget: _truth(spec, budget)
    return pinned


def test_golden_file_holds_exactly_the_keys_the_tests_read():
    assert sorted(_golden()) == sorted(_pinned())


if __name__ == "__main__":
    digests = {key: _digest(make()) for key, make in _pinned().items()}
    print(json.dumps({
        "description": "SHA-256 of json.dumps of each report (see test_reports_golden.py)",
        "digests": digests,
    }, indent=2))
