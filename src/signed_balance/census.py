"""Triangle census by sign type, with node and pair projections.

Triangle types are keyed by the number of negative edges: type 1 has none,
type 2 one, type 3 two, type 4 three.  Types 1 and 3 are the balanced ones
(sign product +1).

Counting takes two products of the signed matrix A and its support M = |A|,
kept on the support (o is the entrywise product): (M o M^2)_ij counts the
triangles on edge (i,j) and (A o A^2)_ij sums their sign products.  So the
pair totals are M o M^2, the balanced pair counts (M o M^2 + A o A^2)/2,
t_i = rowsum(M o M^2)/2 and b_i = (rowsum(M o M^2) + rowsum(A o A^2))/4.
The type counts solve a 4x4 integer system, c = K s / 8 as K K = 8 I, over
four traces, each a masked sum since A o A = M (tr(M^2 A) = sum M o M^2 o A,
tr(A^2 M) = sum A o A^2 o A):

    tr(M^2 M)/6 =  c1 + c2 + c3 + c4     tr(M^2 A)/2 = 3c1 + c2 - c3 - 3c4
    tr(A^2 M)/2 = 3c1 - c2 - c3 + 3c4    tr(A^2 A)/6 =  c1 - c2 + c3 - c4

Per-type node and pair counts need P^2 and N^2 apart (P, N the positive and
negative indicators): P^2 + N^2 = (M^2 + A^2)/2, PN + NP = (M^2 - A^2)/2 and
P^2 - N^2 = (MA + AM)/2.  That third product, M A, runs only when a per-type
count is read, and no n x n pair matrix is formed unless a caller reads one:
inference takes its quadratic form from the masked products
(`PairProjection.quadratic`).

Dense and sparse storage differ only in how the products are formed.  Dense
storage takes two float32 BLAS squares (each partial sum is an integer of
size at most n - 2, so float32 is exact while n - 2 < 2^24, and 4(n - 2) <
2^24 once the per-type sums are formed).  Sparse storage takes one int64 CSR
product, B^2 for B = P + tN with t = 2^k above the largest degree: B^2 =
P^2 + t(PN + NP) + t^2 N^2 and every digit is below t, so M o M^2 and A o A^2
are read off the digits of A o B^2.  Its entries stay below t^3, so a node
of degree 2^21 or more raises CensusExactnessError.  The product is masked
one block of rows at a time, which keeps its peak memory near the masked
result rather than the n d^2 entries of the whole product.  Every
reduction runs in int64 or float64; the type counts and node arrays are
checked to be exact multiples of their divisors (CensusExactnessError
otherwise).

A brute-force O(n^3) enumeration is provided as the oracle.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .errors import CensusExactnessError, ConfigError

BRUTE_FORCE_CAP = 64

_SIGN_SUMS = np.array([[1, 1, 1, 1], [3, 1, -1, -3], [3, -1, -1, 3], [1, -1, 1, -1]])


class _Targeted:
    def for_target(self, target):
        """The balanced count, or the count of one triangle type."""
        k = _type_index(target)
        return self.balanced if k is None else self.by_type[k]


@dataclass(frozen=True)
class TriangleCensus(_Targeted):
    n: int
    total: int
    c1: int
    c2: int
    c3: int
    c4: int

    @property
    def balanced(self):
        return self.c1 + self.c3

    @property
    def by_type(self):
        return (self.c1, self.c2, self.c3, self.c4)

    def to_dict(self):
        return {
            "n": self.n,
            "total": self.total,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c4": self.c4,
            "balanced": self.balanced,
        }


class _Counts(_Targeted):
    def __init__(self, triangles, balanced, by_type):
        self.triangles = triangles
        self.balanced = balanced
        self.by_type = tuple(by_type)


class NodeProjection(_Counts):
    """Per-node triangle counts: t_i, b_i, and the four per-type arrays."""


class PairProjection(_Counts):
    """Per-pair counts over third nodes; entry (i,j) is 0 unless A_ij != 0."""

    def quadratic(self, target, x):
        """(x' T x, x' B x) for the pair totals T and the target's pair counts B."""
        return _quad(self.triangles, x), _quad(self.for_target(target), x)


@dataclass(frozen=True)
class CensusBundle:
    census: TriangleCensus
    node: NodeProjection
    pair: PairProjection | None


TARGETS = ("balanced", "type1", "type2", "type3", "type4")


def _type_index(target):
    """None for "balanced", k for "type{k + 1}"; ConfigError for any other name."""
    if target not in TARGETS:
        raise ConfigError(f"unknown target {target!r}, expected one of {TARGETS}")
    return None if target == "balanced" else TARGETS.index(target) - 1


def _exact(x, d):
    """x / d in int64; raises unless d divides every entry of x exactly."""
    q, r = np.divmod(x, d)
    if r.any():
        raise CensusExactnessError(
            f"census values are not exact multiples of {d}: the products lost precision")
    return q.astype(np.int64)


def _type_counts(traces):
    """c1..c4 from tr(M^2 M), tr(M^2 A), tr(A^2 M) and tr(A^2 A)."""
    counts = _exact(_SIGN_SUMS @ _exact(np.asarray(traces), (6, 2, 2, 6)), 8)
    if counts.min() < 0:
        raise CensusExactnessError(f"negative triangle counts {counts.tolist()}")
    return counts.tolist()


def _quad(s, x):
    """x' S x in float64, summed in a fixed order (no BLAS threads involved)."""
    sx = s @ x if sp.issparse(s) else np.einsum("ij,j->i", s, x)
    return float(np.einsum("i,i->", x, sx))


_BLOCK_ROWS = 4096
# Bits of one digit of the encoded sparse product: its entries stay below
# t^3 = 2^(3 * bits), which int64 holds while bits <= 21.
_DIGIT_BITS = 21


def _sparse_squares(a):
    """M o M^2 and A o A^2 of a sparse int64 signed matrix A, from the one
    product B^2 of B = P + tN.

    With t = 2^k above the largest degree, B^2 = P^2 + tX + t^2 N^2 (X = PN + NP)
    has every digit below t, and M^2 = P^2 + X + N^2, A^2 = P^2 - X + N^2.  The
    product is masked by A one block of rows at a time, so the unmasked
    product, about n d^2 entries at mean degree d, is never whole; the sign
    of each masked entry is that of A."""
    k = max(int(np.diff(a.indptr).max(initial=0)).bit_length(), 1)
    if k > _DIGIT_BITS:
        raise CensusExactnessError(
            f"a node of degree >= 2^{k - 1} is past the int64 range of the encoded sparse product")
    b = a.copy()
    b.data = np.where(a.data > 0, 1, 1 << k)
    digit = (1 << k) - 1
    mm, aa = [], []
    for r in range(0, a.shape[0], _BLOCK_ROWS):
        e = a[r:r + _BLOCK_ROWS] * (b[r:r + _BLOCK_ROWS] @ b)
        mag = np.abs(e.data)
        pp, x, nn = mag & digit, (mag >> k) & digit, mag >> (2 * k)
        mm.append(sp.csr_array((pp + x + nn, e.indices, e.indptr), shape=e.shape))
        signed = sp.csr_array((np.sign(e.data) * (pp - x + nn), e.indices.copy(), e.indptr.copy()),
                              shape=e.shape)
        signed.eliminate_zeros()
        aa.append(signed)
    return sp.vstack(mm, format="csr"), sp.vstack(aa, format="csr")


class _ProductPairs(PairProjection):
    """Pair projection kept as the masked products M o M^2 and A o A^2 of one
    network; each count matrix is formed when first read."""

    def __init__(self, adj):
        if adj.is_dense:
            a = adj.entries.astype(np.float32)
        else:
            a = sp.csr_array(adj.entries, dtype=np.int64)
        m = abs(a)
        self.a = a
        self.m = m
        self.mm, self.aa = (m * (m @ m), a * (a @ a)) if adj.is_dense else _sparse_squares(a)
        self._types = {}

    @cached_property
    def _diff(self):
        """2 (P^2 - N^2) on the support; forms the third product M A."""
        ma = self.m @ self.a
        return self.m * (ma + ma.T)

    def _paths(self, k):
        """Third nodes joined to both ends by two edges, k of them negative."""
        a2 = self.a * self.aa  # A^2 on the support
        if k == 1:
            return (self.mm - a2) * 0.5
        both = self.mm + a2
        return (both + self._diff if k == 0 else both - self._diff) * 0.25

    def type_pairs(self, k):
        """Pair counts of type k + 1 (k negative edges) on the support, as
        floats; forms only the paths this type needs."""
        if k not in self._types:
            pos = (self.m + self.a) * 0.5  # the edge (i, j) is positive
            neg = (self.m - self.a) * 0.5
            if k == 0:
                counts = pos * self._paths(0)
            elif k == 3:
                counts = neg * self._paths(2)
            else:
                counts = pos * self._paths(k) + neg * self._paths(k - 1)
            self._types[k] = counts
        return self._types[k]

    @cached_property
    def types(self):
        """Per-type pair counts, types 1..4, on the support."""
        return tuple(self.type_pairs(k) for k in range(4))

    @cached_property
    def triangles(self):
        return self.mm.astype(np.int64)

    @cached_property
    def balanced(self):
        return ((self.mm + self.aa) * 0.5).astype(np.int64)

    @cached_property
    def by_type(self):
        return tuple(q.astype(np.int64) for q in self.types)

    def quadratic(self, target, x):
        k = _type_index(target)
        total = _quad(self.mm, x)
        if k is None:
            return total, (total + _quad(self.aa, x)) / 2.0
        return total, _quad(self.type_pairs(k), x)


class _ProductNodes(NodeProjection):
    """NodeProjection whose per-type arrays are formed on first read."""

    def __init__(self, pairs, triangles, balanced):
        self._pairs = pairs
        self.triangles = triangles
        self.balanced = balanced

    @cached_property
    def by_type(self):
        return tuple(_exact(q.sum(axis=1, dtype=np.int64), 2) for q in self._pairs.types)

    def for_target(self, target):
        k = _type_index(target)
        if k is None:
            return self.balanced
        return _exact(self._pairs.type_pairs(k).sum(axis=1, dtype=np.int64), 2)


def full_census(adj, with_pairs=True):
    """Census and node projections from two products; pairs are read lazily."""
    p = _ProductPairs(adj)
    row_m = p.mm.sum(axis=1, dtype=np.int64)
    row_a = p.aa.sum(axis=1, dtype=np.int64)
    traces = (
        row_m.sum(),
        (p.mm * p.a).sum(dtype=np.int64),
        (p.aa * p.a).sum(dtype=np.int64),
        row_a.sum(),
    )
    c1, c2, c3, c4 = _type_counts(traces)
    census_ = TriangleCensus(n=adj.n, total=c1 + c2 + c3 + c4, c1=c1, c2=c2, c3=c3, c4=c4)
    node = _ProductNodes(p, _exact(row_m, 2), _exact(row_m + row_a, 4))
    return CensusBundle(census=census_, node=node, pair=p if with_pairs else None)


def census(adj):
    return full_census(adj, with_pairs=False).census


def node_projection(adj):
    return full_census(adj, with_pairs=False).node


def pair_projection(adj):
    return full_census(adj, with_pairs=True).pair


def brute_force_census(adj, cap=BRUTE_FORCE_CAP):
    """Exhaustive O(n^3) oracle over all node triples."""
    n = adj.n
    if n > cap:
        raise ConfigError(f"brute force capped at n={cap}, got n={n}")
    a = adj.to_dense()
    counts = [0, 0, 0, 0]
    total = 0
    node_t = np.zeros(n, dtype=np.int64)
    node_by = np.zeros((4, n), dtype=np.int64)
    pair_t = np.zeros((n, n), dtype=np.int64)
    pair_by = np.zeros((4, n, n), dtype=np.int64)
    for i, j, k in combinations(range(n), 3):
        e1, e2, e3 = int(a[i, j]), int(a[j, k]), int(a[i, k])
        if e1 == 0 or e2 == 0 or e3 == 0:
            continue
        negs = int(e1 < 0) + int(e2 < 0) + int(e3 < 0)
        # cross-check: balanced iff the sign product is +1
        assert (negs % 2 == 0) == (e1 * e2 * e3 > 0)
        total += 1
        counts[negs] += 1
        for v in (i, j, k):
            node_t[v] += 1
            node_by[negs, v] += 1
        for u, v in ((i, j), (j, k), (i, k)):
            pair_t[u, v] += 1
            pair_t[v, u] += 1
            pair_by[negs, u, v] += 1
            pair_by[negs, v, u] += 1
    census_ = TriangleCensus(
        n=n, total=total, c1=counts[0], c2=counts[1], c3=counts[2], c4=counts[3]
    )
    node = NodeProjection(
        triangles=node_t,
        balanced=node_by[0] + node_by[2],
        by_type=tuple(node_by),
    )
    pair = PairProjection(
        triangles=pair_t,
        balanced=pair_by[0] + pair_by[2],
        by_type=tuple(pair_by),
    )
    return CensusBundle(census=census_, node=node, pair=pair)
