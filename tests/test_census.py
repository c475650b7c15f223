"""Triangle census and projections against exhaustive enumeration."""

import importlib
import json
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from signed_balance.bootstrap import resample_network
from signed_balance.census import _exact, _type_counts, census, full_census
from signed_balance.errors import CensusExactnessError, SignedBalanceError
from signed_balance.graph import SignedAdjacency, parse_edge_list
from signed_balance.graphon import builtin_spec, sample_network
from signed_balance.inference import confidence_interval, edgeworth_coefficients, projections

from _reference import (
    dense_up_to,
    densify,
    on_storage,
    random_signed_matrix,
    ref_census,
    ref_full,
)

# the package's `census` attribute is the function of that name
census_module = importlib.import_module("signed_balance.census")


def test_single_positive_triangle():
    adj = parse_edge_list("a b +1\nb c +1\na c +1\n")
    c = census(adj)
    assert (c.total, c.c1, c.c2, c.c3, c.c4) == (1, 1, 0, 0, 0)
    assert c.balanced == 1


def test_single_all_negative_triangle():
    adj = parse_edge_list("a b -1\nb c -1\na c -1\n")
    c = census(adj)
    assert (c.c1, c.c2, c.c3, c.c4) == (0, 0, 0, 1)
    assert c.balanced == 0  # three negatives is unbalanced


def test_one_negative_edge_triangle():
    adj = parse_edge_list("a b -1\nb c +1\na c +1\n")
    c = census(adj)
    assert c.c2 == 1 and c.balanced == 0


def test_two_negative_edges_triangle():
    adj = parse_edge_list("a b -1\nb c -1\na c +1\n")
    c = census(adj)
    assert c.c3 == 1 and c.balanced == 1


def test_k4_all_negative():
    mat = -np.ones((4, 4), dtype=np.int8)
    np.fill_diagonal(mat, 0)
    c = census(SignedAdjacency(mat))
    assert c.total == 4 and c.c4 == 4 and c.balanced == 0


def test_no_triangles_on_a_path():
    adj = parse_edge_list("a b +1\nb c +1\nc d -1\n")
    assert census(adj).total == 0


def test_to_dict_keys():
    adj = parse_edge_list("a b +1\nb c +1\na c +1\n")
    d = census(adj).to_dict()
    assert list(d) == ["n", "total", "c1", "c2", "c3", "c4", "balanced"]


def test_by_type_and_balanced_identities():
    rng = np.random.default_rng(0)
    mat = random_signed_matrix(rng, 10)
    c = census(SignedAdjacency(mat))
    assert sum(c.by_type) == c.total
    assert c.balanced == c.c1 + c.c3


@pytest.mark.parametrize("seed", range(12))
def test_matrix_census_equals_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    mat = random_signed_matrix(rng, n, p_edge=rng.uniform(0.3, 0.9),
                               p_neg=rng.uniform(0.1, 0.9))
    want = ref_census(mat)
    got = census(SignedAdjacency(mat))
    assert got.total == want["total"]
    assert (got.c1, got.c2, got.c3, got.c4) == (
        want["c1"], want["c2"], want["c3"], want["c4"])


# the sparse kernels, each forced; the listing is whole below _BLOCK_ROWS nodes
SPARSE_KERNELS = {
    "encoded": census_module._encoded_squares,
    "listed": lambda a, w=None: census_module._Triangles(a).squares(w),
}


@pytest.mark.parametrize("seed", range(6))
def test_node_and_pair_projections_equal_enumeration(monkeypatch, seed):
    # on dense storage, then on sparse storage by each kernel; the per-type
    # pair counts are float32 when dense and float64 when sparse
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 12))
    mat = random_signed_matrix(rng, n)
    want = ref_full(mat)
    for path in ("dense", *SPARSE_KERNELS):
        if path in SPARSE_KERNELS:
            monkeypatch.setattr(census_module, "_sparse_squares", SPARSE_KERNELS[path])
        bundle = full_census(on_storage(mat, "dense" if path == "dense" else "sparse"))
        for kind in ("total", "balanced"):
            attr = "triangles" if kind == "total" else kind
            np.testing.assert_array_equal(getattr(bundle.node, attr), want["node"][kind])
            np.testing.assert_array_equal(densify(getattr(bundle.pair, attr)), want["pair"][kind])
        for t in range(4):
            np.testing.assert_array_equal(bundle.node.by_type[t], want["node"][t])
            np.testing.assert_array_equal(densify(bundle.pair.by_type[t]), want["pair"][t])
            pairs = bundle.pair.type_pairs(t)
            assert pairs.dtype == (np.float32 if path == "dense" else np.float64)
            np.testing.assert_array_equal(densify(pairs), want["pair"][t])


def test_sparse_path_matches_dense():
    rng = np.random.default_rng(7)
    mat = random_signed_matrix(rng, 30, p_edge=0.2)
    dense = SignedAdjacency(mat)
    sparse = on_storage(sp.csr_matrix(mat), "sparse")
    assert not sparse.is_dense
    cd = full_census(dense, with_pairs=True)
    cs = full_census(sparse, with_pairs=True)
    assert cd.census.to_dict() == cs.census.to_dict()
    np.testing.assert_array_equal(cd.node.balanced, cs.node.balanced)
    np.testing.assert_array_equal(
        densify(cd.pair.triangles), densify(cs.pair.triangles))
    for t in range(4):
        np.testing.assert_array_equal(
            densify(cd.pair.by_type[t]), densify(cs.pair.by_type[t]))


def test_projection_row_sums_triple_count():
    # each triangle contributes 3 node slots, so the node counts sum to 3*total
    rng = np.random.default_rng(3)
    mat = random_signed_matrix(rng, 12)
    bundle = full_census(SignedAdjacency(mat), with_pairs=True)
    assert bundle.node.triangles.sum() == 3 * bundle.census.total
    assert bundle.node.balanced.sum() == 3 * bundle.census.balanced
    # and 3 pair slots, each stored symmetrically
    assert densify(bundle.pair.triangles).sum() == 6 * bundle.census.total


def test_census_matches_ref_full():
    rng = np.random.default_rng(11)
    mat = random_signed_matrix(rng, 9)
    want = ref_full(mat)
    fast = full_census(SignedAdjacency(mat), with_pairs=True)
    got = fast.census.to_dict()
    assert got.pop("n") == 9
    assert got == want["census"]
    np.testing.assert_array_equal(fast.node.triangles, want["node"]["total"])
    np.testing.assert_array_equal(densify(fast.pair.balanced), want["pair"]["balanced"])


def test_census_on_empty_graph():
    c = census(SignedAdjacency(np.zeros((5, 5), dtype=np.int8)))
    assert c.total == 0 and c.balanced == 0


# ------------------------------------------------- closed forms at n = 300
# Here 6 * total = n(n-1)(n-2) > 2^24.  These regular graphs have equal,
# even row sums, so even a float32 reduction would add them exactly; the
# irregular network further down is the one that exposes it.

N_CLOSED = 300
FACTION = 120  # nodes 0..119 against 120..299


def _complete(sign):
    mat = np.full((N_CLOSED, N_CLOSED), sign, dtype=np.int8)
    np.fill_diagonal(mat, 0)
    return mat


def _two_factions():
    side = np.arange(N_CLOSED) < FACTION
    mat = np.where(side[:, None] == side[None, :], 1, -1).astype(np.int8)
    np.fill_diagonal(mat, 0)
    return mat


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("sign, slot", [(1, 0), (-1, 3)])
def test_complete_graph_closed_form(sign, slot, path):
    adj = on_storage(_complete(sign), path)
    bundle = full_census(adj)
    want = [0, 0, 0, 0]
    want[slot] = comb(N_CLOSED, 3)
    assert 6 * want[slot] > 2**24
    assert bundle.census.by_type == tuple(want)
    assert bundle.census.total == want[slot]
    per_node = comb(N_CLOSED - 1, 2)
    np.testing.assert_array_equal(bundle.node.triangles, per_node)
    np.testing.assert_array_equal(bundle.node.balanced, per_node if sign > 0 else 0)
    np.testing.assert_array_equal(bundle.node.by_type[slot], per_node)
    off = 1 - np.eye(N_CLOSED, dtype=np.int64)
    np.testing.assert_array_equal(densify(bundle.pair.triangles), (N_CLOSED - 2) * off)
    np.testing.assert_array_equal(densify(bundle.pair.by_type[slot]), (N_CLOSED - 2) * off)


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_two_faction_complete_graph_closed_form(path):
    adj = on_storage(_two_factions(), path)
    small, big = FACTION, N_CLOSED - FACTION
    bundle = full_census(adj)
    c1 = comb(small, 3) + comb(big, 3)
    c3 = comb(small, 2) * big + comb(big, 2) * small
    assert bundle.census.by_type == (c1, 0, c3, 0)
    assert bundle.census.balanced == bundle.census.total == comb(N_CLOSED, 3)

    per_node = comb(N_CLOSED - 1, 2)
    own = np.where(np.arange(N_CLOSED) < FACTION, small, big)
    np.testing.assert_array_equal(bundle.node.triangles, per_node)
    np.testing.assert_array_equal(bundle.node.balanced, per_node)
    np.testing.assert_array_equal(bundle.node.by_type[0], (own - 1) * (own - 2) // 2)
    np.testing.assert_array_equal(bundle.node.by_type[2], per_node - (own - 1) * (own - 2) // 2)

    # an edge inside a faction closes type 1 triangles through its own
    # faction and type 3 ones through the other; an edge across closes
    # n - 2 triangles of type 3
    mat = _two_factions()
    inside = mat == 1
    want1 = np.where(inside, own[:, None] - 2, 0)
    want3 = np.where(inside, N_CLOSED - own[:, None], np.where(mat == -1, N_CLOSED - 2, 0))
    np.testing.assert_array_equal(densify(bundle.pair.by_type[0]), want1)
    np.testing.assert_array_equal(densify(bundle.pair.by_type[2]), want3)
    np.testing.assert_array_equal(densify(bundle.pair.balanced), want1 + want3)
    for t in (1, 3):
        assert not densify(bundle.pair.by_type[t]).any()


def _assert_same_arrays(got, want):
    """The same CSR arrays: the row blocks change nothing the product stores."""
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


def test_sparse_products_are_the_same_in_row_blocks(monkeypatch):
    mat = random_signed_matrix(np.random.default_rng(3), 40, p_edge=0.4)
    adj = on_storage(sp.csr_matrix(mat), "sparse")
    a = sp.csr_array(adj.entries, dtype=np.int64)
    m = abs(a)
    draw = census_module._Draw(np.random.default_rng(4).integers(0, 40, size=40))
    sub = a[draw.nodes][:, draw.nodes]
    for block_rows in (7, 4096):  # 6 blocks, the last short; one block
        monkeypatch.setattr(census_module, "_BLOCK_ROWS", block_rows)
        pairs = census_module.PairProjection(census_module._storage(adj))
        _assert_same_arrays(pairs.mm, (m * (m @ m)).sorted_indices())
        _assert_same_arrays(pairs.aa, (a * (a @ a)).sorted_indices())
        # the third product against M o (P W P) formed whole, unweighted and
        # for one draw
        for pairs in (pairs, census_module.PairProjection(sub, draw)):
            w, pos = pairs._w, (pairs.a > 0).astype(np.float64)
            whole = census_module.PairProjection(pairs.a, pairs.draw)
            whole.pp = abs(pairs.a) * (pos @ (pos if w is None else census_module._scale_rows(w, pos)))
            _assert_same_arrays(pairs.pp, whole.pp.sorted_indices())
            for k in range(4):
                _assert_same_matrix(pairs.type_pairs(k), whole.type_pairs(k))


def _count_products(monkeypatch):
    """The row counts of every sparse product formed from here on."""
    rows, matmul = [], sp.csr_array.__matmul__
    monkeypatch.setattr(sp.csr_array, "__matmul__",
                        lambda x, y: rows.append(x.shape[0]) or matmul(x, y))
    return rows


def test_a_row_block_that_stores_nothing_forms_no_product(monkeypatch):
    # one edge on 2M nodes: of its 489 row blocks, only the one with the
    # edge's oriented row holds an entry, and a block product costs O(n)
    adj = parse_edge_list("# nodes: 2000000\n0000003 1999999 -1\n")
    assert -(-adj.n // census_module._BLOCK_ROWS) == 489
    rows = _count_products(monkeypatch)
    assert full_census(adj).census.total == 0
    assert rows == [census_module._BLOCK_ROWS]


def test_skipped_row_blocks_keep_the_stacked_product(monkeypatch):
    # edges among nodes 0..5 and 35..39 alone: in blocks of 7 rows, the
    # four blocks between store nothing and are formed empty
    rng = np.random.default_rng(8)
    mat = np.zeros((40, 40), dtype=np.int8)
    for part in (slice(0, 6), slice(35, 40)):
        mat[part, part] = random_signed_matrix(rng, 5 if part.start else 6, p_edge=0.9)
    monkeypatch.setattr(census_module, "_BLOCK_ROWS", 7)
    a = census_module._storage(on_storage(mat, "sparse"))
    wide = a.astype(np.int64)
    rows = _count_products(monkeypatch)
    got = census_module._masked(a, wide, wide)
    assert rows == [7, 5]
    assert got.shape == (40, 40) and got.dtype == np.int64
    _assert_same_matrix(got, a * (wide @ wide))
    assert full_census(on_storage(mat, "sparse")).census.to_dict() == {
        "n": 40, **ref_full(mat)["census"]}


def test_encoded_product_refuses_degrees_past_its_digit_width(monkeypatch):
    # degree 4 needs 3-bit digits, so a 2-bit limit refuses the network; K5
    # has as many triangles as edges, so the census would list them, and the
    # encoded product is called directly
    mat = _complete(-1)[:5, :5]
    a = census_module._storage(on_storage(sp.csr_matrix(mat), "sparse"))
    monkeypatch.setattr(census_module, "_DIGIT_BITS", 3)
    mm, aa = census_module._encoded_squares(a)
    traces = (mm.sum(), (mm * a).sum(), (aa * a).sum(), aa.sum())
    assert _type_counts(traces)[3] == comb(5, 3)
    monkeypatch.setattr(census_module, "_DIGIT_BITS", 2)
    with pytest.raises(CensusExactnessError, match="degree"):
        census_module._encoded_squares(a)


def test_dense_matches_sparse_past_float32_range():
    # irregular row sums whose totals pass 2^25, where float32 spacing is 4:
    # a float32 reduction would round the traces and fail the exactness
    # check or the comparison
    mat = random_signed_matrix(np.random.default_rng(0), 600, p_edge=0.9)
    dense, sparse = (full_census(on_storage(mat, path)) for path in ("dense", "sparse"))
    assert 6 * dense.census.total > 2**25
    assert dense.census == sparse.census
    np.testing.assert_array_equal(dense.node.triangles, sparse.node.triangles)
    np.testing.assert_array_equal(dense.node.balanced, sparse.node.balanced)
    for t in range(4):
        np.testing.assert_array_equal(dense.node.by_type[t], sparse.node.by_type[t])


# ------------------------------------------------ triangle listing (T <= m)


def _sparse_signed(rng, n, p_edge, p_neg=0.4):
    """int64 CSR storage of a random signed network, drawn without an n x n table."""
    upper = sp.triu(sp.random(n, n, density=p_edge, format="csr", random_state=rng), k=1)
    upper.data = np.where(rng.random(upper.nnz) < p_neg, -1, 1)
    return sp.csr_array(upper + upper.T, dtype=np.int64)


def _assert_same_matrix(got, want):
    """Equal as matrices, each in its own row order."""
    assert got.nnz == want.nnz and (got != want).nnz == 0


def _row_steps(x):
    """The steps between consecutive stored column indices within each row."""
    rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    return np.diff(x.indices)[np.diff(rows) == 0]


def _assert_listing_matches_encoded(a, w=None):
    triangles = census_module._Triangles(a)
    got, want = triangles.squares(w), census_module._encoded_squares(a, w)
    for g, e in zip(got, want):
        _assert_same_matrix(g, e)
    return triangles


def _shuffle_rows(x, rng):
    """x as a CSR matrix with each row's stored entries in a random order."""
    rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    order = np.lexsort((rng.random(x.nnz), rows))
    return sp.csr_matrix((x.data[order], x.indices[order], x.indptr), shape=x.shape)


def _assert_same_bundle(got, want):
    """The census, node arrays and pair matrices of two bundles agree."""
    assert got.census == want.census
    for attr in ("triangles", "balanced"):
        np.testing.assert_array_equal(getattr(got.node, attr), getattr(want.node, attr))
        np.testing.assert_array_equal(densify(getattr(got.pair, attr)),
                                      densify(getattr(want.pair, attr)))
    for t in range(4):
        np.testing.assert_array_equal(got.node.by_type[t], want.node.by_type[t])
        np.testing.assert_array_equal(densify(got.pair.by_type[t]),
                                      densify(want.pair.by_type[t]))


# p_edge keeps the expected triangles below a fifth of the edges
@pytest.mark.parametrize("n, p_edge", [(30, 0.15), (500, 0.03), (3000, 0.008)])
def test_listing_matches_the_encoded_product(n, p_edge):
    rng = np.random.default_rng(n)
    a = _sparse_signed(rng, n, p_edge)
    triangles = _assert_listing_matches_encoded(a)
    assert 0 < triangles.count <= triangles.edges == a.nnz // 2
    # a bootstrap draw: the submatrix on the drawn nodes, weighted by their counts
    for _ in range(2):
        draw = census_module._Draw(rng.integers(0, n, size=n))
        sub = a[draw.nodes][:, draw.nodes]
        _assert_listing_matches_encoded(sub, draw.counts.astype(np.int64))
    # a submatrix in shuffled node order, whose rows are not sorted: the
    # adjacency stores them sorted, and counts them as the same rows sorted
    s = rng.permutation(n)[: 2 * n // 3]
    sub = a[s][:, s]
    assert not sub.has_sorted_indices
    adj = on_storage(sub, "sparse")
    assert adj.entries.has_sorted_indices
    storage = census_module._storage(adj)
    _assert_listing_matches_encoded(storage)
    _assert_listing_matches_encoded(storage, rng.integers(1, 4, size=len(s)))
    _assert_same_bundle(full_census(adj),
                        full_census(on_storage(sub.sorted_indices(), "sparse")))


def _from_edges(n, edges):
    mat = np.zeros((n, n), dtype=np.int64)
    for i, j, sign in edges:
        mat[i, j] = mat[j, i] = sign
    return sp.csr_array(mat)


# (n, edges, triangles)
SMALL_NETWORKS = {
    "no-edges": (6, [], 0),
    "one-node": (1, [], 0),
    "n-2": (2, [(0, 1, -1)], 0),
    "path": (5, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1)], 0),
    "one-triangle": (3, [(0, 1, 1), (1, 2, -1), (0, 2, -1)], 1),
    "triangle-and-tail": (6, [(0, 4, 1), (4, 5, -1), (0, 5, 1), (5, 1, -1), (1, 2, 1)], 1),
    # K5: T = m = 10, the largest T the census lists
    "k5": (5, [(i, j, 1 - 2 * ((i + j) % 2)) for i in range(5) for j in range(i + 1, 5)], 10),
}


@pytest.mark.parametrize("name", SMALL_NETWORKS)
def test_listing_matches_the_encoded_product_on_small_networks(name):
    n, edges, count = SMALL_NETWORKS[name]
    a = _from_edges(n, edges)
    triangles = _assert_listing_matches_encoded(a)
    assert (triangles.count, triangles.edges) == (count, len(edges))
    _assert_listing_matches_encoded(a, np.arange(1, n + 1, dtype=np.int64))


# Networks whose rows of the encoded product B B are reached in different
# column orders.  Node 3 closes the triangle (1, 2, 3) and holds the pendant
# node 0: its row is reached as 3, 2, 1.  In the second network node 4 takes
# that place and node 1 holds the pendant node 3, so row 4 is reached as
# 4, 2, 3, 1.  The listing's values must equal the product's at every row
# block size, from one row per block to all of them in one.
ROW_ORDER_NETWORKS = {
    "rising": [(3, 0, 1), (3, 1, 1), (3, 2, -1), (1, 2, 1)],
    "first-largest-falling": [(4, 0, 1), (4, 1, 1), (4, 2, -1), (1, 2, 1), (1, 3, 1)],
}


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
@pytest.mark.parametrize("name", ROW_ORDER_NETWORKS)
def test_listing_matches_the_encoded_product_in_row_blocks(monkeypatch, name, block_rows):
    a = _from_edges(5, ROW_ORDER_NETWORKS[name])
    monkeypatch.setattr(census_module, "_BLOCK_ROWS", block_rows)
    _assert_listing_matches_encoded(a)
    _assert_listing_matches_encoded(a, np.array([2, 1, 3, 1, 2], dtype=np.int64))


def _encoded_refused(*args):
    raise AssertionError("the encoded product ran")


def test_sparse_census_lists_triangles_when_they_are_no_more_than_edges(monkeypatch):
    poor = _sparse_signed(np.random.default_rng(1), 60, 0.1)
    k5 = _from_edges(*SMALL_NETWORKS["k5"][:2])  # T = m = 10
    k6 = sp.csr_array(_complete(1)[:6, :6], dtype=np.int64)
    real = census_module._encoded_squares
    monkeypatch.setattr(census_module, "_encoded_squares", _encoded_refused)
    census_module._sparse_squares(poor)
    census_module._sparse_squares(k5)
    with pytest.raises(AssertionError, match="encoded product ran"):
        census_module._sparse_squares(k6)  # 20 triangles, 15 edges
    monkeypatch.setattr(census_module, "_encoded_squares", real)
    for a in (poor, k5, k6):
        for got, want in zip(census_module._sparse_squares(a), real(a)):
            _assert_same_matrix(got, want)


def test_listing_pre_pass_stops_once_the_triangles_pass_the_edges(monkeypatch):
    # a forced-sparse network with about 15 triangles per edge, in row blocks
    # of 7: the first block of L o (L L) already counts more triangles than
    # edges, so the pre-pass forms that block alone, and the encoded product
    # then forms all ceil(60 / 7) = 9 blocks of its own
    monkeypatch.setattr(census_module, "_BLOCK_ROWS", 7)
    real = census_module._blocks
    formed = []

    def counted(*args):
        formed.append(0)
        for block in real(*args):
            formed[-1] += 1
            yield block

    mat = random_signed_matrix(np.random.default_rng(6), 60, p_edge=0.9)
    a = census_module._storage(on_storage(mat, "sparse"))
    edges, count = a.nnz // 2, int(census_module._encoded_squares(a)[0].sum()) // 6
    assert count > 10 * edges
    monkeypatch.setattr(census_module, "_blocks", counted)
    stopped = census_module._Triangles(a)
    assert formed == [1] and stopped.edges == edges < stopped.count < count
    del formed[:]
    listed = {target: json.dumps(confidence_interval(on_storage(mat, "sparse"), target=target)
                                 .to_dict()) for target in ("balanced", "type2")}
    assert formed[:2] == [1, 9]
    monkeypatch.setattr(census_module, "_sparse_squares", census_module._encoded_squares)
    for target, report in listed.items():
        adj = on_storage(mat, "sparse")
        assert json.dumps(confidence_interval(adj, target=target).to_dict()) == report


# const-cos draws (rho, n, seed) whose triangles are about a quarter of their edges
LISTED_DRAWS = [(0.05, 300, 1), (0.04, 400, 0)]


@pytest.mark.parametrize("rho, n, seed", LISTED_DRAWS)
def test_listed_reports_equal_the_encoded_product_reports(monkeypatch, rho, n, seed):
    # float sums over the pair matrices run in `_quad`'s one order whichever
    # kernel formed them, so the T <= m split moves no report byte
    def reports():
        out = {}
        for target in census_module.TARGETS:
            with dense_up_to(10):
                adj = sample_network(builtin_spec("const-cos", {"rho": rho}), n, seed=seed)
            out[target] = json.dumps(confidence_interval(adj, target=target).to_dict())
        return out

    with dense_up_to(10):
        adj = sample_network(builtin_spec("const-cos", {"rho": rho}), n, seed=seed)
    assert not adj.is_dense and 0 < full_census(adj).census.total <= adj.edge_count()
    listed = reports()
    monkeypatch.setattr(census_module, "_sparse_squares", census_module._encoded_squares)
    assert reports() == listed


def _csr_parts(x):
    return [getattr(x, part).copy() for part in ("indptr", "indices", "data")]


def test_sparse_quadratic_form_sums_in_one_row_order(monkeypatch):
    # x' S x of every pair matrix, listed and from the encoded product, is
    # the same bits as that of S with each row's entries shuffled, and
    # neither S nor the shuffled copy is written
    rng = np.random.default_rng(9)
    a = census_module._storage(on_storage(_sparse_signed(rng, 500, 0.03), "sparse"))
    listed = census_module.PairProjection(a)
    monkeypatch.setattr(census_module, "_sparse_squares", census_module._encoded_squares)
    encoded = census_module.PairProjection(a)
    x = rng.standard_normal(a.shape[0])
    quads = []
    for pairs in (listed, encoded):
        for s in (pairs.mm, pairs.aa, *(pairs.type_pairs(k) for k in range(4))):
            shuffled = _shuffle_rows(s, rng)
            assert not shuffled.has_sorted_indices
            before = _csr_parts(s) + _csr_parts(shuffled)
            quads.append(census_module._quad(s, x))
            assert census_module._quad(shuffled, x) == quads[-1]
            for got, want in zip(_csr_parts(s) + _csr_parts(shuffled), before):
                np.testing.assert_array_equal(got, want)
    assert quads[:6] == quads[6:]


@pytest.mark.parametrize("weighted", [False, True])
def test_pair_totals_leave_an_unsorted_operand_as_it_was(weighted):
    rng = np.random.default_rng(10)
    mat = random_signed_matrix(rng, 30, p_edge=0.3)
    a = census_module._storage(on_storage(sp.csr_matrix(mat), "sparse"))
    draw, counts = None, np.ones(30, dtype=np.int64)
    if weighted:
        draw = census_module._Draw(rng.integers(0, 30, size=30))
        s = draw.nodes
        a, mat, counts = a[s][:, s], mat[np.ix_(s, s)], draw.counts
    pairs = census_module.PairProjection(a, draw)
    x = sp.csr_array(_shuffle_rows(pairs.mm, rng))
    assert not x.has_sorted_indices
    parts, dense = _csr_parts(x), x.toarray()
    assert pairs.total(x) == counts @ dense @ counts
    assert pairs.signed_total(x) == counts @ (dense * mat) @ counts
    for got, want in zip(_csr_parts(x), parts):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_listed_census_equals_enumeration(monkeypatch, seed):
    # triangle-poor networks: every count below comes from the listing
    monkeypatch.setattr(census_module, "_encoded_squares", _encoded_refused)
    rng = np.random.default_rng(200 + seed)
    mat = random_signed_matrix(rng, 40, p_edge=0.1, p_neg=rng.uniform(0.2, 0.8))
    adj = on_storage(sp.csr_matrix(mat), "sparse")
    want = ref_full(mat)
    assert 0 < want["census"]["total"] <= adj.edge_count() // 3
    bundle = full_census(adj)
    got = bundle.census.to_dict()
    assert got.pop("n") == 40
    assert got == want["census"]
    np.testing.assert_array_equal(bundle.node.triangles, want["node"]["total"])
    np.testing.assert_array_equal(bundle.node.balanced, want["node"]["balanced"])
    np.testing.assert_array_equal(densify(bundle.pair.triangles), want["pair"]["total"])
    np.testing.assert_array_equal(densify(bundle.pair.balanced), want["pair"]["balanced"])
    for t in range(4):
        np.testing.assert_array_equal(bundle.node.by_type[t], want["node"][t])
        np.testing.assert_array_equal(densify(bundle.pair.by_type[t]), want["pair"][t])


# ------------------------------------------------------ sorted CSR storage


def _sorted_storage_sources():
    rng = np.random.default_rng(21)
    mat = random_signed_matrix(rng, 30, p_edge=0.3)
    csr = SignedAdjacency(sp.csr_matrix(mat))
    edges = [f"{i} {j} {mat[i, j]:+d}" for i, j in zip(*np.nonzero(np.triu(mat, 1)))]
    nodes = np.flatnonzero(np.bincount(rng.integers(0, 30, size=30), minlength=30))
    return {
        "parse": lambda: parse_edge_list("\n".join(edges[::-1])).entries,
        "sample": lambda: sample_network(builtin_spec("const-cos"), 40, seed=3).entries,
        "resample": lambda: resample_network(csr, seed=4).entries,
        "row-shuffled": lambda: SignedAdjacency(_shuffle_rows(sp.csr_matrix(mat), rng)).entries,
        # a bootstrap replicate's submatrix on its sorted distinct nodes
        "replicate": lambda: census_module._storage(csr)[nodes][:, nodes],
    }


@pytest.mark.parametrize("source", ["parse", "sample", "resample", "row-shuffled", "replicate"])
def test_sparse_storage_has_sorted_rows(storage_threshold, source):
    # the listing reads L and the edge ids off this order
    storage_threshold(10)
    x = _sorted_storage_sources()[source]()
    assert sp.issparse(x) and x.nnz
    assert x.has_sorted_indices and (_row_steps(x) > 0).all()


def test_reversed_rows_csr_input_counts_as_dense():
    mat = np.zeros((4, 4), dtype=np.int8)
    for (i, j), sign in zip([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], [1, 1, 1, 1, -1]):
        mat[i, j] = mat[j, i] = sign
    c = sp.csr_matrix(mat)
    falling = np.lexsort((-c.indices, np.repeat(np.arange(4), np.diff(c.indptr))))
    x = sp.csr_matrix((c.data[falling], c.indices[falling], c.indptr), shape=(4, 4))
    assert not x.has_sorted_indices
    indices, data = x.indices.copy(), x.data.copy()
    sparse, dense = on_storage(x, "sparse"), SignedAdjacency(mat)
    assert not sparse.is_dense and dense.is_dense
    _assert_same_bundle(full_census(sparse), full_census(dense))
    report = [json.dumps(confidence_interval(adj).to_dict()) for adj in (sparse, dense)]
    assert report[0] == report[1]
    # the caller's arrays are left as they were, and writeable
    np.testing.assert_array_equal(x.indices, indices)
    np.testing.assert_array_equal(x.data, data)
    assert x.indices.flags.writeable and x.data.flags.writeable


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_row_shuffled_sparse_census_equals_enumeration(data):
    n = data.draw(st.integers(1, 12), label="n")
    pairs = n * (n - 1) // 2
    upper = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=pairs, max_size=pairs))
    w = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n), label="w")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    mat = np.zeros((n, n), dtype=np.int8)
    mat[np.triu_indices(n, 1)] = upper
    mat += mat.T
    adj = on_storage(_shuffle_rows(sp.csr_matrix(mat), np.random.default_rng(seed)), "sparse")
    assert not adj.is_dense
    want = ref_full(mat)
    bundle = full_census(adj)
    got = bundle.census.to_dict()
    assert got.pop("n") == n
    assert got == want["census"]
    for kind, node, pair in (("total", bundle.node.triangles, bundle.pair.triangles),
                             ("balanced", bundle.node.balanced, bundle.pair.balanced)):
        np.testing.assert_array_equal(node, want["node"][kind])
        np.testing.assert_array_equal(densify(pair), want["pair"][kind])
    for t in range(4):
        np.testing.assert_array_equal(bundle.node.by_type[t], want["node"][t])
        np.testing.assert_array_equal(densify(bundle.pair.by_type[t]), want["pair"][t])
    storage = census_module._storage(adj)
    _assert_listing_matches_encoded(storage)
    _assert_listing_matches_encoded(storage, np.array(w, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 7, 64, 301])
def test_dense_square_by_syrk_equals_gemm(n):
    # x @ x.T of one buffer goes to BLAS syrk; y a copy keeps the GEMM
    rng = np.random.default_rng(n)
    full = np.triu(rng.choice([-1.0, 1.0], size=(n, n)).astype(np.float32), 1)
    for a in (full + full.T, random_signed_matrix(rng, n).astype(np.float32)):
        for x in (a, abs(a)):
            gemm = x @ x.copy()
            np.testing.assert_array_equal(census_module._masked(np.ones_like(x), x, x), gemm)
            np.testing.assert_array_equal(census_module._masked(abs(a), x, x), abs(a) * gemm)


def test_pair_counts_take_the_narrowest_integer_type_that_holds_n():
    types = [census_module._count_type(n) for n in (3, 127, 128, 32767, 32768)]
    assert types == [np.int8, np.int8, np.int16, np.int16, np.int32]


@pytest.mark.parametrize("n", [127, 128])
@pytest.mark.parametrize("sign, slot", [(1, 0), (-1, 3)])
def test_dense_pair_counts_at_the_edge_of_their_integer_type(n, sign, slot):
    # M o M^2 and A o A^2 hold +-(n - 2) in int8 up to 127 nodes; the
    # balanced and per-type counts add two of them, 2(n - 2) = 250 at
    # n = 127, which int8 would wrap
    mat = np.full((n, n), sign, dtype=np.int8)
    np.fill_diagonal(mat, 0)
    adj = on_storage(mat, "dense")
    pair = full_census(adj).pair
    assert pair.a is adj.entries
    assert pair.mm.dtype == pair.aa.dtype == (np.int8 if n < 128 else np.int16)
    off = (n - 2) * (1 - np.eye(n, dtype=np.int64))
    np.testing.assert_array_equal(pair.triangles, off)
    np.testing.assert_array_equal(pair.balanced, off if sign > 0 else 0 * off)
    for k in range(4):
        np.testing.assert_array_equal(pair.by_type[k], off if k == slot else 0 * off)
    x = np.linspace(-1.0, 1.0, n)
    total = float(x @ off @ x)
    assert pair.quadratic("balanced", x) == pytest.approx((total, total if sign > 0 else 0.0))


def test_dense_census_peak_memory_is_bounded():
    # n = 2000: one float32 product and its float32 operand live at a time,
    # and the bundle keeps M o M^2 and A o A^2 in int16 beside the
    # adjacency's own int8 storage; float32 copies of the storage, M and
    # both products peaked at 76.4 MiB and kept 61.1 MiB
    adj = sample_network(builtin_spec("const-cos", {}), 2000, seed=3)
    tracemalloc.start()
    try:
        bundle = full_census(adj)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.pair.a is adj.entries and bundle.pair.mm.dtype == np.int16
    assert peak <= 48 * 2**20
    assert kept <= 20 * 2**20


# ------------------------------------------------------------ exactness guard


def test_non_integral_trace_raises_typed_error():
    # one positive triangle gives traces (6, 6, 6, 6); perturb the first
    assert _type_counts([6, 6, 6, 6]) == [1, 0, 0, 0]
    with pytest.raises(CensusExactnessError):
        _type_counts([6.5, 6, 6, 6])
    with pytest.raises(CensusExactnessError):
        _type_counts([6, 6, 6, 12])  # integral, but no census has these traces
    assert issubclass(CensusExactnessError, SignedBalanceError)


def test_odd_node_row_sum_raises_typed_error():
    np.testing.assert_array_equal(_exact(np.array([2, 4, 0]), 2), [1, 2, 0])
    with pytest.raises(CensusExactnessError):
        _exact(np.array([2, 3, 0]), 2)


# ------------------------------------------------------------------ cache


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_cached_census_lives_as_long_as_its_adjacency(path):
    adj = on_storage(random_signed_matrix(np.random.default_rng(12), 20), path)
    bundle = full_census(adj, with_pairs=True)
    assert bundle.pair is not None and full_census(adj) is bundle
    # without pairs after a with-pairs call: the same counts, no pair projection
    bare = full_census(adj, with_pairs=False)
    assert bare.pair is None
    assert bare.census is bundle.census and bare.node is bundle.node
    assert full_census(adj).pair is bundle.pair
    ref = weakref.ref(bundle)
    del bundle, bare
    assert ref() is not None  # held by the adjacency
    del adj
    assert ref() is None


def _sparse_network_of_270k_edges():
    adj = SignedAdjacency(_sparse_signed(np.random.default_rng(0), 20000, 1.35e-3))
    assert not adj.is_dense and 260_000 < adj.edge_count() < 280_000
    return adj


def test_third_product_peak_memory_is_bounded():
    # about 270k edges on 20000 nodes: P^2 formed whole holds about n d^2 / 4
    # entries, while its row blocks keep the peak near the masked result.
    # The census and type 2's pair counts peak at 43.9 MiB; formed from a
    # non-square third product M o (M A), quarter-weighted sums of it and
    # float masks over a cached support, they peaked at 87.5 MiB
    adj = _sparse_network_of_270k_edges()
    tracemalloc.start()
    try:
        full_census(adj).pair.type_pairs(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_listed_census_peak_memory_is_bounded():
    # the same network holds about 3300 triangles: the listing writes its two
    # products on the edges of those triangles, with no array over every edge
    # or stored entry past the ones that orient the edges, and the traces
    # read the signs at those edges, with no int64 copy of the storage
    adj = _sparse_network_of_270k_edges()
    tracemalloc.start()
    try:
        bundle = full_census(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < bundle.census.total <= adj.edge_count()
    assert peak <= 16 * 2**20


def test_sparse_storage_build_peak_memory_is_bounded():
    # the same network's edges as the parser hands them over (int64 pairs
    # in (lo, hi) order, int8 signs): the upper CSR matrix is built straight
    # from the pairs and stored as U + U^T, with no COO matrix or int64 copy
    adj = _sparse_network_of_270k_edges()
    upper = sp.triu(adj.entries, k=1, format="csr")
    lo = np.repeat(np.arange(adj.n, dtype=np.int64), np.diff(upper.indptr))
    hi, sign = upper.indices.astype(np.int64), upper.data.astype(np.int8)
    del upper
    tracemalloc.start()
    try:
        got = SignedAdjacency._from_edges(adj.n, None, lo, hi, sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not got.is_dense and got.edge_count() == adj.edge_count()
    assert (got.entries != adj.entries).nnz == 0
    assert peak <= 9 * 2**20


# --------------------------------------------------------------- laziness


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_balanced_target_forms_no_pair_matrix(path):
    rng = np.random.default_rng(5)
    adj = on_storage(random_signed_matrix(rng, 30), path)
    bundle = full_census(adj)
    proj = projections(bundle.census, bundle.node, bundle.pair, "balanced")
    edgeworth_coefficients(proj)
    # neither a third product nor any pair count matrix has been formed
    kept = {"a", "draw", "_w", "mm", "aa", "_types"}
    assert set(vars(bundle.pair)) == kept and not bundle.pair._types
    # a per-type target forms the third product and its own type's pair
    # counts alone, once for nodes and pairs, and caches no int64 view
    assert bundle.node.for_target("type2").dtype == bundle.pair.for_target("type2").dtype == np.int64
    assert set(vars(bundle.pair)) == kept | {"pp"} and set(bundle.pair._types) == {1}


def test_per_type_pair_read_keeps_memory_bounded():
    # n = 2000: reading type 2's pair counts keeps M o P^2 in int16 and the
    # type's float32 counts, 6 n^2 bytes (22.9 MiB); forming and caching all
    # four types in float32 and in int64, with a third product and the
    # support beside them, kept 202 MiB
    adj = sample_network(builtin_spec("const-cos", {}), 2000, seed=3)
    pair = full_census(adj).pair
    tracemalloc.start()
    try:
        pair.for_target("type2")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pair.pp.dtype == np.int16 and set(pair._types) == {1}
    assert kept <= 32 * 2**20
