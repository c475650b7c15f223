"""Slow, independent reference implementations used as test oracles.

Everything here is written the dumb way on purpose: explicit loops over
node triples, scalar arithmetic, no linear algebra.  The production code
must agree with these to float precision on small inputs.

The storage helpers at the end build an adjacency on a named storage, for
the tests that run one check on both.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

import signed_balance.graph as graph


def ref_census(mat):
    """Triangle counts by number of negative edges, via triple enumeration."""
    n = mat.shape[0]
    counts = {"total": 0, "c1": 0, "c2": 0, "c3": 0, "c4": 0}
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = mat[i, j], mat[j, k], mat[i, k]
        if a == 0 or b == 0 or c == 0:
            continue
        counts["total"] += 1
        neg = int(a < 0) + int(b < 0) + int(c < 0)
        counts[f"c{neg + 1}"] += 1
    counts["balanced"] = counts["c1"] + counts["c3"]
    return counts


def ref_node_counts(mat, kind):
    """Per-node triangle participation counts.

    kind is "total", "balanced", or 0..3 for the per-type counts.
    """
    n = mat.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = mat[i, j], mat[j, k], mat[i, k]
        if a == 0 or b == 0 or c == 0:
            continue
        neg = int(a < 0) + int(b < 0) + int(c < 0)
        hit = (
            kind == "total"
            or (kind == "balanced" and neg in (0, 2))
            or kind == neg
        )
        if hit:
            out[i] += 1
            out[j] += 1
            out[k] += 1
    return out


def ref_pair_counts(mat, kind):
    n = mat.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = mat[i, j], mat[j, k], mat[i, k]
        if a == 0 or b == 0 or c == 0:
            continue
        neg = int(a < 0) + int(b < 0) + int(c < 0)
        hit = (
            kind == "total"
            or (kind == "balanced" and neg in (0, 2))
            or kind == neg
        )
        if hit:
            for u, v in ((i, j), (j, k), (i, k)):
                out[u, v] += 1
                out[v, u] += 1
    return out


def ref_full(mat):
    """Everything criterion-one needs from a single pass over the triples."""
    n = mat.shape[0]
    census = {"total": 0, "c1": 0, "c2": 0, "c3": 0, "c4": 0}
    kinds = ["total", "balanced", 0, 1, 2, 3]
    node = {k: np.zeros(n, dtype=np.int64) for k in kinds}
    pair = {k: np.zeros((n, n), dtype=np.int64) for k in kinds}
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = mat[i, j], mat[j, k], mat[i, k]
        if a == 0 or b == 0 or c == 0:
            continue
        neg = int(a < 0) + int(b < 0) + int(c < 0)
        census["total"] += 1
        census[f"c{neg + 1}"] += 1
        hits = ["total", neg] + (["balanced"] if neg in (0, 2) else [])
        for kind in hits:
            for v in (i, j, k):
                node[kind][v] += 1
            for u, v in ((i, j), (j, k), (i, k)):
                pair[kind][u, v] += 1
                pair[kind][v, u] += 1
    census["balanced"] = census["c1"] + census["c3"]
    node["balanced"] = node[0] + node[2]
    pair["balanced"] = pair[0] + pair[2]
    return {"census": census, "node": node, "pair": pair}


def ref_inference(mat, target="balanced", counts=None):
    """Projections, variance, and Edgeworth coefficients from first principles."""
    n = mat.shape[0]
    if counts is None:
        counts = ref_full(mat)
    cen = counts["census"]
    c3 = math.comb(n, 3)
    c2 = math.comb(n - 1, 2)
    if target == "balanced":
        kind = "balanced"
        numer = cen["balanced"]
    else:
        kind = int(target[-1]) - 1
        numer = cen[f"c{kind + 1}"]
    U = numer / c3
    V = cen["total"] / c3
    ratio = U / V

    b_node = counts["node"][kind].astype(float)
    t_node = counts["node"]["total"].astype(float)
    g1 = b_node / c2 - U
    f1 = t_node / c2 - V
    q1 = g1 / V - U * f1 / V**2
    p1 = f1 / V
    xi1_sq = float(np.mean(q1**2))
    s_hat = math.sqrt(9.0 * xi1_sq / n)

    b_pair = counts["pair"][kind].astype(float)
    t_pair = counts["pair"]["total"].astype(float)
    a_hat = float(np.mean(q1**3)) / xi1_sq**1.5
    c_hat = float(np.mean(q1 * p1)) / math.sqrt(xi1_sq)
    q2 = np.zeros((n, n))
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            g2 = b_pair[i, j] / (n - 2) - U - g1[i] - g1[j]
            f2 = t_pair[i, j] / (n - 2) - V - f1[i] - f1[j]
            q2[i, j] = q2[j, i] = g2 / V - U * f2 / V**2
            total += q1[i] * q1[j] * q2[i, j]
    b_hat = 2.0 * total / (n * (n - 1)) / xi1_sq**1.5
    return {
        "U": U,
        "V": V,
        "ratio": ratio,
        "q1": q1,
        "p1": p1,
        "q2": q2,
        "xi1_sq": xi1_sq,
        "s_hat": s_hat,
        "a_hat": a_hat,
        "b_hat": b_hat,
        "c_hat": c_hat,
    }


def ref_balanced_probability(s1, s2, s3):
    """P(balanced | triangle) by enumerating the 8 sign configurations."""
    total = 0.0
    for signs in itertools.product((1, -1), repeat=3):
        p = 1.0
        for sgn, s in zip(signs, (s1, s2, s3)):
            p *= s if sgn < 0 else 1.0 - s
        if signs[0] * signs[1] * signs[2] > 0:
            total += p
    return total


def ref_type_probability(s1, s2, s3, t):
    """P(exactly t-1 negative edges | triangle) by enumeration."""
    total = 0.0
    for signs in itertools.product((1, -1), repeat=3):
        p = 1.0
        for sgn, s in zip(signs, (s1, s2, s3)):
            p *= s if sgn < 0 else 1.0 - s
        if sum(1 for x in signs if x < 0) == t - 1:
            total += p
    return total


def random_signed_matrix(rng, n, p_edge=0.6, p_neg=0.4):
    """Symmetric zero-diagonal matrix with entries in {-1, 0, +1}."""
    mat = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                mat[i, j] = -1 if rng.random() < p_neg else 1
                mat[j, i] = mat[i, j]
    return mat


# ------------------------------------------------------------------ storage

STORAGE = {"dense": None, "sparse": 0}  # the DENSE_THRESHOLD each storage is built at


@contextmanager
def dense_up_to(k):
    """Inside the block, adjacencies are built dense up to k nodes and CSR
    above: graph.DENSE_THRESHOLD is k (None leaves it as it is)."""
    saved = graph.DENSE_THRESHOLD
    if k is not None:
        graph.DENSE_THRESHOLD = k
    try:
        yield
    finally:
        graph.DENSE_THRESHOLD = saved


def on_storage(entries, storage, labels=None):
    """SignedAdjacency(entries, labels) on "dense" or "sparse" storage."""
    with dense_up_to(STORAGE[storage]):
        return graph.SignedAdjacency(entries, labels)


def densify(x):
    """A pair matrix of either storage as an ndarray."""
    return x.toarray() if sp.issparse(x) else np.asarray(x)
