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

On sparse storage the two sums over o A read A's signs at the stored
places of M o M^2 and A o A^2 (`PairProjection.signed_total`), so they
cost those places, not an entrywise product over every edge.

Per-type node and pair counts need P^2 and N^2 apart (P, N the positive and
negative indicators): P^2 + N^2 = (M^2 + A^2)/2, PN + NP = (M^2 - A^2)/2 and
P^2 - N^2 = (MA + AM)/2.  That third product runs, as M o (M A) and its
transpose (M is symmetric), only when a per-type count is read.  No n x n
pair matrix is formed unless a caller reads one: inference takes its
quadratic form from the masked products (`PairProjection.quadratic`).

One routine forms every product: `_masked(mask, x, y, w)` is mask o (x W y),
W = diag(w) for a bootstrap replicate (below), else the identity.  Dense
storage is the adjacency's own int8 matrix, uncopied (`_storage`); each
product casts its operands to float32 where it runs and masks its float32
result in place, a symmetric rank-k product (syrk) for the unweighted
squares M M and A A (each partial sum is an integer of size at most n - 2,
so float32 is exact while n - 2 < 2^24, and 4(n - 2) < 2^24 once the
per-type sums are formed).  M o M^2 and A o A^2 are then kept in the
narrowest signed integer type that holds +-n (int16 below 32768 nodes),
and every later product or sum of them runs on a float32 cast, as the
narrow type would wrap.  Sparse storage masks one block of
_BLOCK_ROWS rows at a time and stacks the blocks, so the unmasked product,
about n d^2 entries at mean degree d, is never whole.  The sparse census
first orients each edge up the rank order (degree, then node index) as the
CSR matrix L and forms L o (L L) in int32: its nonzeros are the closed
pairs, the lowest and highest ranked nodes of each triangle, and its sum is
the triangle count T.  This costs the oriented wedges, which the rank order
keeps small (Chiba & Nishizeki, SIAM J. Comput. 1985; Latapy, TCS 2008).
Its row blocks stop once their running count passes the m edges, so a
triangle-rich network forms at most one block more than it needs to find
T > m.  Then:

- T <= m, the sparse regime: the triangles are listed (`_Triangles`).  The
  middle nodes of a closed pair (u, x) are the common entries of row u of L
  and row x of L^T.  Each triangle adds the weight of its third node to each
  of its edges in M o M^2, times its sign product in A o A^2.
- T > m: one int64 CSR product, B^2 for B = P + tN with t = 2^k above the
  largest degree (`_encoded_squares`): B^2 = P^2 + t(PN + NP) + t^2 N^2 and
  every digit is below t, so M o M^2 and A o A^2 are read off the digits of
  A o B^2.  Its entries stay below t^3, so a node of degree 2^21 or more
  raises CensusExactnessError; the listing has no such limit.

Sparse storage is the adjacency's own int8 CSR matrix, uncopied
(`_storage`), and comes in with sorted rows (`SignedAdjacency` sorts them,
and a bootstrap submatrix on sorted nodes keeps them sorted).  The listing
reads only its signs, indices and indptr: it ranks the nodes and keeps the
upward entries in int32, and reads L straight off that order, with each
edge's int32 id and sign in L's data.  M = |A| is formed only when read: by
the encoded product's weighted degrees and the per-type counts.  An integer product widens to int64 where it runs, as int8 would
wrap: B in the encoded product, A in M o (M A), and the bootstrap weights
w.  The listing writes its two products on the distinct edges of the
listed triangles alone, at most 3T of them, placed through L's indptr and
indices, so past L they cost O(T) and no array over every edge.  Each float
sum over a sparse pair matrix runs row by row in rising column order
(`_quad`), whatever order the product that formed it stored, so the
listing's reports equal the encoded product's byte for byte.  Every
reduction runs in int64 or float64; the type counts and node arrays are
checked to be exact multiples of their divisors (CensusExactnessError
otherwise).

A bootstrap replicate is counted with multiplicities instead
(`_resampled_bundle`).  A node draw idx fixes the resampled network
R_ab = A[idx_a, idx_b]; let S be the distinct drawn nodes, w_k the number
of times node k of S was drawn, W = diag(w) and inv the place in S of each
drawn node.  Then (R^2)_ab = (A_S W A_S)[inv_a, inv_b], and M^2 and M A
read the same way.  So the masked products are A_S o (A_S W A_S) and
M_S o (M_S W M_S) on the |S| x |S| submatrix (|S| is about 0.63 n).  A row
sum of R is the w-weighted row sum on S, gathered by inv (int64 when sparse;
float64 when dense, whose integer sums, at most 4n * n, are far below 2^53,
cast a block of rows at a time, so no 8|S|^2-byte float64 copy is formed),
and the four traces are w-weighted totals.  The float32 bound is unchanged:
(M_S W M_S)_ij <= sum w = n, so the products are exact while n < 2^24, and
4n < 2^24 for the per-type sums.  The sparse listing or product is chosen by
the triangles of A_S.
The encoded product's digit width comes from the largest weighted degree,
max_i sum_{k in N(i)} w_k, and a weighted degree of 2^21 or more raises
the same CensusExactnessError.

Each projection is one lazy class built only by the census.  The O(n^3)
enumeration the counts are checked against lives with the tests
(`tests/_reference.py`).

`full_census` counts a SignedAdjacency once and caches the bundle, pairs
included, on it; the storage is read-only, so the cache cannot go stale.
The bundle also keeps the studentized pipeline of each target read
(`CensusBundle.pipelines`, filled by `inference._pipeline`), so a network
is counted once and studentized once per target.  While the adjacency
lives, a dense bundle keeps M o M^2 and A o A^2 beside the adjacency's own
int8 storage, 4 n^2 bytes in int16 (16 MB at n = 2000), plus any per-type
pair matrix once read, plus O(n) floats per target read.  One census peaks
at about 10 n^2 bytes (one float32 product, its float32 operand and the
int16 square kept before it); `del adj` frees the bundle.
"""

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CensusExactnessError, ConfigError

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
        return {**asdict(self), "balanced": self.balanced}


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
    """x' S x in float64, summed in a fixed order (no BLAS threads involved).
    A sparse S is summed row by row in rising column order: read as it is
    when its rows are sorted, else off a sorted copy, so the sum does not
    depend on the order the product that formed S stored it in, and S is
    not written."""
    if isinstance(s, np.ndarray):
        sx = np.einsum("ij,j->i", s, x)
    else:
        sx = (s if s.has_sorted_indices else s.sorted_indices()) @ x
    return float(np.einsum("i,i->", x, sx))


_BLOCK_ROWS = 4096
# Bits of one digit of the encoded sparse product: its entries stay below
# t^3 = 2^(3 * bits), which int64 holds while bits <= 21.
_DIGIT_BITS = 21


def _sparse_squares(a, w=None):
    """M o (M W M) and A o (A W A) of a sparse signed matrix A; W = diag(w),
    int64, the identity when w is None.  The triangles are listed when
    there are no more of them than edges; otherwise the encoded product
    forms both."""
    triangles = _Triangles(a)
    if triangles.count > triangles.edges:
        return _encoded_squares(a, w)
    return triangles.squares(w)


def _encoded_squares(a, w=None):
    """M o (M W M) and A o (A W A) of a sparse signed matrix A, from
    A o (B W B) for B = P + tN in int64; W = diag(w), int64, the identity
    when w is None.

    With t = 2^k above the largest weighted degree max_i sum_{k in N(i)} w_k,
    B W B = P W P + tX + t^2 N W N (X = P W N + N W P) has every digit below
    t, and M W M = P W P + X + N W N, A W A = P W P - X + N W N; the sign of
    each masked entry is that of A."""
    import scipy.sparse as sp

    degree = np.diff(a.indptr) if w is None else abs(a) @ w
    k = max(int(degree.max(initial=0)).bit_length(), 1)
    if k > _DIGIT_BITS:
        raise CensusExactnessError(
            f"a node of degree >= 2^{k - 1} is past the int64 range of the encoded sparse product")
    b = sp.csr_array((np.where(a.data > 0, np.int64(1), np.int64(1 << k)), a.indices, a.indptr),
                     shape=a.shape)
    e = _masked(a, b, b, w)
    digit = (1 << k) - 1
    mag = np.abs(e.data)
    pp, x, nn = mag & digit, (mag >> k) & digit, mag >> (2 * k)
    mm = sp.csr_array((pp + x + nn, e.indices, e.indptr), shape=e.shape)
    aa = sp.csr_array((np.sign(e.data) * (pp - x + nn), e.indices.copy(), e.indptr.copy()),
                      shape=e.shape)
    aa.eliminate_zeros()
    return mm, aa


def _pattern(x, dtype=np.int64):
    """x with every stored entry set to 1, in x's layout."""
    import scipy.sparse as sp

    return sp.csr_array((np.ones(x.nnz, dtype=dtype), x.indices, x.indptr), shape=x.shape)


class _Triangles:
    """The triangles of a sparse signed matrix A, from its edges oriented up
    the rank order (degree, then node index).

    L holds each edge once, from its lower to its higher ranked end, in
    sorted CSR; an edge's id is its place in L, stored in L as its sign
    times (id + 1).  `count` is the sum of L o (L L), the triangle count T,
    and `u`, `x` its nonzeros, the closed pairs.  The product is formed one
    row block at a time, and no further block once the count passes the
    edge count `edges`, where the census forms the encoded product instead:
    the count and pairs are whole while the count is at most `edges`, or
    while n is at most _BLOCK_ROWS."""

    def __init__(self, a):
        import scipy.sparse as sp

        n = a.shape[0]
        degree = np.diff(a.indptr)
        rank = np.empty(n, dtype=np.int32)
        rank[np.argsort(degree, kind="stable")] = np.arange(n, dtype=np.int32)
        up = np.repeat(rank, degree) < rank[a.indices]
        self.edges = int(np.count_nonzero(up))
        below = np.zeros(len(up) + 1, dtype=np.int32)  # the up entries before each stored entry
        np.cumsum(up, out=below[1:])
        ids = np.arange(1, self.edges + 1, dtype=np.int32) * a.data[up]
        self.l = sp.csr_array((ids, a.indices[up], below[a.indptr]), shape=a.shape)
        del up, below, ids
        ones = _pattern(self.l, np.int32)
        self.count, closed = 0, []
        for block in _blocks(ones, ones, ones):
            self.count += int(block.data.sum(dtype=np.int64))
            closed.append(block)
            if self.count > self.edges:
                break
        closed = sp.vstack(closed, format="csr")
        rows = np.arange(closed.shape[0])
        self.u, self.x = np.repeat(rows, np.diff(closed.indptr)), closed.indices

    def squares(self, w=None):
        """M o (M W M) and A o (A W A), written on the edges of the listed
        triangles alone, with the zeros of A o (A W A) dropped.

        The middle nodes v of a closed pair (u, x) are the common entries of
        row u of L and row x of L^T; both rows are sorted, so the two masks
        below list them in the same order, and row u of L holds (u, x).
        Edge (u, v) gains w_x, (v, x) gains w_u and (u, x) gains w_v in
        M W M, times the triangle's sign product in A W A.  The sums are
        float64 bincounts of integers below 2^53, so exact."""
        import scipy.sparse as sp

        l = self.l
        pairs = len(self.u)
        out, into = l[self.u], l.T.tocsr()[self.x]
        uv = out * _pattern(into)  # data: signed id(u, v) + 1 at (pair, v)
        vx = _pattern(out) * into  # data: signed id(v, x) + 1, in the same places
        pick = sp.csr_array((np.ones(pairs, dtype=np.int64), self.x, np.arange(pairs + 1)),
                            shape=out.shape)
        pair = np.repeat(np.arange(pairs), np.diff(uv.indptr))
        ux = (out * pick).data[pair]  # signed id(u, x) + 1, one per pair, at each triangle
        signed = np.concatenate((uv.data, vx.data, ux))  # the edges each triangle adds to
        edge, at = np.unique(np.abs(signed) - 1, return_inverse=True)
        product = np.tile(np.sign(uv.data) * np.sign(vx.data) * np.sign(ux), 3)
        if w is None:
            weight = np.ones(len(signed))
        else:
            weight = w[np.concatenate((self.x[pair], self.u[pair], uv.indices))].astype(np.float64)
        mm = np.bincount(at, weight, minlength=len(edge)).astype(np.int64)
        aa = np.bincount(at, weight * product, minlength=len(edge)).astype(np.int64)
        row = np.searchsorted(l.indptr, edge, side="right") - 1
        col = l.indices[edge]
        place = np.concatenate((row, col)), np.concatenate((col, row))

        def on_edges(values):
            s = sp.csr_array((np.tile(values, 2), place), shape=l.shape)
            s.eliminate_zeros()
            return s

        return on_edges(mm), on_edges(aa)


def _scale_rows(w, y):
    """W y: row i of y times w_i, on either storage."""
    if isinstance(y, np.ndarray):
        return w[:, None] * y
    import scipy.sparse as sp

    return sp.csr_array((y.data * np.repeat(w, np.diff(y.indptr)), y.indices, y.indptr),
                        shape=y.shape)


def _masked(mask, x, y, w=None):
    """mask o (x W y), W = diag(w) (the identity when w is None): one product
    when dense, and when sparse one block of _BLOCK_ROWS rows at a time
    (`_blocks`), the stacked blocks stored with sorted rows.

    Dense operands are cast to float32 for the product alone, as an int8
    product would wrap, and the float32 product is masked in place.  A
    dense square x x of the symmetric storage is formed as x x^T, which
    numpy hands to BLAS syrk (half the flops of a GEMM); its integer sums
    are exact, so it equals x @ x."""
    if w is not None:
        y = _scale_rows(w, y)
    if isinstance(mask, np.ndarray):
        f = x.astype(np.float32, copy=False)
        product = f @ (f.T if y is x else y.astype(np.float32, copy=False))
        product *= mask
        return product
    import scipy.sparse as sp

    product = sp.vstack(list(_blocks(mask, x, y)), format="csr")
    product.sort_indices()  # once, so `_quad` reads it and the matrices formed from it uncopied
    return product


def _blocks(mask, x, y):
    """mask o (x y) of sparse matrices, one block of _BLOCK_ROWS rows at a
    time; one empty block when there are no rows.  A block product costs
    O(n) whatever its rows hold, so a block whose rows of the mask store
    nothing is formed empty, in the product's type, with no product."""
    import scipy.sparse as sp

    dtype = np.result_type(mask.dtype, x.dtype, y.dtype)
    for r in range(0, max(mask.shape[0], 1), _BLOCK_ROWS):
        end = min(r + _BLOCK_ROWS, mask.shape[0])
        if mask.indptr[r] == mask.indptr[end]:
            yield sp.csr_array((end - r, y.shape[1]), dtype=dtype)
        else:
            yield mask[r:end] * (x[r:end] @ y)


def _storage(adj):
    """The matrix the products run on: the adjacency's own read-only int8
    storage, uncopied; a sparse one as a csr_array on its arrays.  A product
    casts its operands where it runs, as int8 would wrap: to float32 when
    dense, to int64 when sparse."""
    if adj.is_dense:
        return adj.entries
    import scipy.sparse as sp

    return sp.csr_array(adj.entries)


def _count_type(n):
    """The narrowest signed integer type that holds +-n."""
    return np.min_scalar_type(-n - 1)


def _wide(x):
    """A dense integer matrix as float32, which holds every pair count
    exactly (n < 2^24); a sparse one as it is."""
    return x.astype(np.float32) if isinstance(x, np.ndarray) else x


class PairProjection(_Targeted):
    """Per-pair counts over third nodes; entry (i,j) is 0 unless A_ij != 0.

    Kept as the masked products M o M^2 and A o A^2 of one network; each
    count matrix is formed when first read.  On dense storage `a` is int8
    and M o M^2 and A o A^2 are kept in the narrowest signed integer type
    that holds +-n (`_count_type`), so every product or sum that could pass
    it runs on a float32 cast (`_wide`).  Given a `_Draw`, `a` is the
    submatrix on the drawn nodes and every product and row sum is weighted
    by the multiplicities."""

    def __init__(self, a, draw=None):
        self.a = a
        self.draw = draw
        dense = isinstance(a, np.ndarray)
        # the multiplicities: float32 on dense storage, which holds each count
        # (<= n) exactly; int64 on sparse, where int8 would wrap at 128
        self._w = None if draw is None else draw.counts.astype(np.float32 if dense else np.int64)
        if dense:
            # each entry is at most n in size, n the (resampled) network's node count
            count = _count_type(len(a) if draw is None else len(draw.where))
            m = np.abs(a)
            self.mm = _masked(m, m, m, self._w).astype(count)
            del m
            self.aa = _masked(a, a, a, self._w).astype(count)
        else:
            self.mm, self.aa = _sparse_squares(a, self._w)
        self._types = {}

    @cached_property
    def m(self):
        """The support M = |A|, formed on first read by the per-type counts;
        the dense squares form their own and drop it, the sparse ones read
        A alone."""
        return abs(self.a)

    def rows(self, x):
        """Row sums of x over the network's nodes, in int64."""
        if self.draw is None:
            return x.sum(axis=1, dtype=np.int64)
        return self.draw.rows(x)

    def total(self, x):
        """The sum of x over the network's pairs, in int64."""
        return self.rows(x).sum()

    def signed_total(self, x):
        """The sum of x o A over the network's pairs, in int64, for x on A's
        support.  On sparse storage A's signs are read at x's places, so no
        product runs over every edge and A is not widened."""
        if isinstance(x, np.ndarray):
            return self.total(x * self.a)
        if not x.nnz:  # scipy answers a lookup of no places with a sparse array
            return 0
        import scipy.sparse as sp

        rows = np.repeat(np.arange(x.shape[0], dtype=x.indices.dtype), np.diff(x.indptr))
        signed = x.data * self.a[rows, x.indices]
        return self.total(sp.csr_array((signed, x.indices, x.indptr), shape=x.shape))

    @cached_property
    def _diff(self):
        """2 (P^2 - N^2) on the support: M o (M A) plus its transpose M o (A M).
        The sparse product runs in int64: int8 storage would wrap."""
        a = self.a if isinstance(self.a, np.ndarray) else self.a.astype(np.int64)
        d = _masked(self.m, self.m, a, self._w)
        return d + d.T

    def _paths(self, k):
        """Third nodes joined to both ends by two edges, k of them negative."""
        a2 = _wide(self.a) * self.aa  # A^2 on the support
        if k == 1:
            return (self.mm - a2) * 0.5
        both = self.mm + a2
        return (both + self._diff if k == 0 else both - self._diff) * 0.25

    def type_pairs(self, k):
        """Pair counts of type k + 1 (k negative edges) on the support, as
        floats; forms only the paths this type needs."""
        if k not in self._types:
            m = _wide(self.m)
            pos = (m + self.a) * 0.5  # the edge (i, j) is positive
            neg = (m - self.a) * 0.5
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
        return ((_wide(self.mm) + self.aa) * 0.5).astype(np.int64)

    @cached_property
    def by_type(self):
        return tuple(q.astype(np.int64) for q in self.types)

    def quadratic(self, target, x):
        """(x' T x, x' B x) for the pair totals T and the target's pair counts B."""
        k = _type_index(target)
        total = _quad(self.mm, x)
        if k is None:
            return total, (total + _quad(self.aa, x)) / 2.0
        return total, _quad(self.type_pairs(k), x)


class NodeProjection:
    """Per-node triangle counts: t_i, b_i, and the four per-type arrays,
    which are formed on first read."""

    def __init__(self, pairs, triangles, balanced):
        self._pairs = pairs
        self.triangles = triangles
        self.balanced = balanced

    @cached_property
    def by_type(self):
        return tuple(_exact(self._pairs.rows(q), 2) for q in self._pairs.types)

    def for_target(self, target):
        k = _type_index(target)
        if k is None:
            return self.balanced
        return _exact(self._pairs.rows(self._pairs.type_pairs(k)), 2)


@dataclass(frozen=True)
class CensusBundle:
    """The census of one network and its projections.  `pipelines` holds
    the studentized pipeline of each target read so far
    (`inference._pipeline`), filled only on a bundle with pairs."""

    census: TriangleCensus
    node: NodeProjection
    pair: PairProjection | None
    pipelines: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def full_census(adj, with_pairs=True):
    """Census and node projections from two products; pairs are read lazily.
    Counted once per adjacency and cached on it with pairs, which cost no
    extra product; `with_pairs=False` returns it with `pair=None`."""
    bundle = adj._bundle
    if bundle is None:
        bundle = _census(_storage(adj), adj.n)
        object.__setattr__(adj, "_bundle", bundle)
    return bundle if with_pairs else replace(bundle, pair=None)


_CAST_ENTRIES = 1 << 17  # entries of a dense matrix `_Draw.rows` casts to float64 at once (1 MiB)


class _Draw:
    """A draw `idx` of n node indices in [0, n), seen as the distinct nodes S
    it hit (sorted), the count w of each, and the place in S of each drawn
    node: np.unique(idx, return_inverse=True, return_counts=True)."""

    def __init__(self, idx):
        counts = np.bincount(idx, minlength=len(idx))
        hit = counts > 0
        self.nodes = np.flatnonzero(hit)
        self.counts = counts[self.nodes]
        self.where = (np.cumsum(hit) - 1)[idx]

    def rows(self, x):
        """Row sums over the resampled network of a matrix x on S: the
        w-weighted row sums of x, one per drawn node.  Exact: int64 for
        sparse x; float64 for dense x, whose entries (at most 4n, integers)
        times sum w = n stay far below 2^53, so any summation order gives
        the same sums.  A dense x is cast to float64 a block of rows at a
        time, about _CAST_ENTRIES entries each, not as a whole 8|S|^2-byte
        copy; up to |S| = 362 that is one block."""
        if not isinstance(x, np.ndarray):
            return (x @ self.counts).astype(np.int64)[self.where]
        w = self.counts.astype(np.float64)
        step = max(_CAST_ENTRIES // max(x.shape[1], 1), 1)
        sums = np.empty(len(x))
        for r in range(0, len(x), step):
            np.matmul(x[r:r + step], w, out=sums[r:r + step])
        return sums.astype(np.int64)[self.where]


def _resampled_bundle(storage, idx):
    """Census bundle, without pairs, of the network that draws node idx[a]
    of `storage` (see `_storage`) as its node a: counted on the distinct
    drawn nodes, weighted by how often each was drawn."""
    draw = _Draw(idx)
    s = draw.nodes
    if isinstance(storage, np.ndarray):
        sub = storage.take(s, axis=0).take(s, axis=1)
    else:
        sub = storage[s][:, s]
    return _census(sub, len(idx), draw)


def _census(a, n, draw=None):
    """The bundle of the n-node network stored as `a`, or, given a draw, of
    the network resampled from `a` (on the drawn nodes) without pairs."""
    p = PairProjection(a, draw)
    row_m = p.rows(p.mm)
    row_a = p.rows(p.aa)
    traces = (row_m.sum(), p.signed_total(p.mm), p.signed_total(p.aa), row_a.sum())
    c1, c2, c3, c4 = _type_counts(traces)
    census_ = TriangleCensus(n=n, total=c1 + c2 + c3 + c4, c1=c1, c2=c2, c3=c3, c4=c4)
    node = NodeProjection(p, _exact(row_m, 2), _exact(row_m + row_a, 4))
    return CensusBundle(census=census_, node=node, pair=p if draw is None else None)


def census(adj):
    return full_census(adj).census
