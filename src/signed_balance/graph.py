"""Signed adjacency matrices: representation, validation, ingestion, summary.

A signed network is a symmetric matrix over {-1, 0, +1} with zero diagonal.
Storage is a dense int8 array for n <= DENSE_THRESHOLD and int8 scipy CSR
above that, so the library stays usable past the sizes where a dense matrix
is sensible.  CSR storage has sorted rows: each row's column indices rise.
`SignedAdjacency` alone makes that choice and sets that order: the sampler
hands it one int8 matrix whatever the size, and the parser its checked
edges (`SignedAdjacency._from_edges`), whose CSR storage is built straight
from the sorted pairs as U + U^T for the upper triangle U.  A caller's
matrix is copied; a CSR matrix that package code built and checked is kept
as it is, and every storage array is read-only.  scipy.sparse is imported
only where storage is sparse, so a dense network loads no scipy module;
inside the package, storage that is not an ndarray is scipy sparse.

Edge-list format (UTF-8 text):

    # comment
    # nodes: 7          <- optional directive, see below
    u v +1
    u w -1

Node ids are arbitrary whitespace-free tokens and map to indices by
lexicographic sort, so index assignment does not depend on input order.
Identical duplicate rows are tolerated; the same pair with two different
signs is a hard error.

The optional ``# nodes: N`` directive declares the node count explicitly,
with canonical zero-padded decimal ids ``0 .. N-1``: each exactly
len(str(N - 1)) ASCII digits, whose value is the node's index.  A network
read with it has ``labels`` None, as a sampled one does, so no parse builds
a table of N labels; `SignedAdjacency.label_of` formats one id on demand.
The last directive in the file rules, and the first edge line, in file
order, with a label that is not one of its ids is an EdgeListParseError on
that line.  The writer emits the directive so that isolated nodes survive a
write/read round trip; files without it simply define the node set as the
ids that appear.  A count of more than 18 digits, past what an int64 node
count holds, is an EdgeListParseError.

Parsing is one bulk pass over line-aligned chunks of the UTF-8 bytes, each
at least 1 MiB (`_CHUNK_BYTES`) and ending after a line feed; bytes are
sliced uncopied, and a str is encoded one chunk at a time.  In each chunk:
token bounds from a whitespace mask, the chunk's distinct labels indexed by
one sort of a fixed-width table (UTF-8 byte order is code-point order, as
`sorted` uses), and the sign tokens and self loops checked on whole arrays.
One more sort merges the chunks' labels, and duplicates and conflicts are
checked on the merged, sorted pair keys.  So the parse holds the input, one
chunk's arrays (about 16 times a chunk), each chunk's distinct labels and
a few words per edge: a 20.8 MB file of 1.6M edges peaks at about 60 MiB
traced, against 351 MiB for one pass over the whole file.  The line loop
stays as the reference and as the error locator: an input that fails a
check, in a chunk or across chunks, is parsed again whole, line by line,
which raises the first error with its line number, and text the bulk pass
does not split the way `str.split` would (separators other than space,
tab, CR and LF) is parsed by the loop alone.  Bytes that are not UTF-8
raise EdgeListParseError on the line of the first bad byte.  The writer
orders pairs by label ranks.
"""

import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    AlphabetError,
    AsymmetricMatrixError,
    ConflictingSignError,
    EdgeListParseError,
    NonzeroDiagonalError,
    SelfLoopError,
    SummaryUndefinedError,
)

DENSE_THRESHOLD = 10_000

_NODES_DIRECTIVE = "# nodes:"
# Every count of this many decimal digits is below 2^63.
_MAX_COUNT_DIGITS = 18
_SIGN_TOKENS = {"+1": 1, "1": 1, "-1": -1}


@dataclass(frozen=True)
class GraphSummary:
    """Edge density and sign mix of an observed network."""

    n: int
    edge_proportion: float
    negative_fraction: float | None  # None when the graph has no edges

    def to_dict(self):
        return asdict(self)


class SignedAdjacency:
    """Immutable symmetric signed adjacency matrix (read-only storage arrays).

    CSR storage is built on a copy of a caller's input, with sorted rows
    whatever the input's order; the caller's arrays are never written.  The
    census (`census.full_census`) and the edge and negative-edge counts are
    formed on first read and kept; the storage is read-only, so they cannot
    go stale.

    Parameters
    ----------
    entries : array-like or scipy sparse, n x n over {-1, 0, +1}
    labels : optional sequence of node-id strings, length n, kept as given;
        None stands for the canonical zero-padded ids ``0 .. n-1``
    """

    __slots__ = ("n", "labels", "_mat", "_bundle", "_edges", "_negatives")

    def __init__(self, entries, labels=None, _validated=False):
        mat = entries if _is_scipy_sparse(entries) else np.asarray(entries)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise AlphabetError(f"adjacency must be square, got shape {mat.shape}")
        n = mat.shape[0]
        sparse = not isinstance(mat, np.ndarray)
        if not _validated:
            if sparse:
                # checked on its own dtype: an int8 cast first would read 0.5 as 0 and 255 as -1
                mat = mat.tocsr(copy=True)
                mat.eliminate_zeros()
            _validate_entries(mat)
        if n > DENSE_THRESHOLD:
            if not (sparse and _validated):  # package code hands over its own checked int8 CSR
                import scipy.sparse as sp

                mat = sp.csr_matrix(mat, dtype=np.int8)
            mat.sort_indices()  # in place, on a matrix no caller holds; a no-op when sorted
        elif sparse:  # a checked sparse matrix goes to its dense array with no CSR step
            mat = np.asarray(mat.toarray(), np.int8)
        else:  # checked storage is handed over, uncopied, by the package code that made it
            mat = mat.astype(np.int8, copy=not _validated)
        for arr in (mat,) if isinstance(mat, np.ndarray) else (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "_bundle", None)  # filled by census.full_census
        object.__setattr__(self, "_edges", None)  # filled on first read, as is _negatives
        object.__setattr__(self, "_negatives", None)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise AlphabetError(f"{len(labels)} labels for {n} nodes")
            if len(set(labels)) != n:
                raise AlphabetError("duplicate node labels")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _from_edges(cls, n, names, lo, hi, sign):
        """The adjacency of checked edges on n nodes labelled `names`, or
        with the canonical ids where `names` is None: each pair once,
        lo < hi, sorted by (lo, hi), with its int8 sign.  Up to
        DENSE_THRESHOLD nodes an int8 matrix filled in place; above it the
        upper triangle U in CSR straight from the pairs (row lo holds the
        run of pairs with that lo, so its columns hi rise), stored as the
        sorted int8 CSR matrix U + U^T."""
        if n <= DENSE_THRESHOLD:
            mat = np.zeros((n, n), dtype=np.int8)
            mat[lo, hi] = sign
            mat[hi, lo] = sign
        else:
            import scipy.sparse as sp

            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(lo, minlength=n), out=indptr[1:])
            # scipy casts the index arrays to int32 where their values fit
            upper = sp.csr_matrix((sign, hi, indptr), shape=(n, n))
            mat = upper + upper.T
        return cls(mat, labels=names, _validated=True)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("SignedAdjacency is immutable")

    # ------------------------------------------------------------ accessors

    @property
    def is_dense(self):
        return isinstance(self._mat, np.ndarray)

    @property
    def entries(self):
        """Backing matrix: int8 ndarray (dense) or CSR with sorted rows (sparse)."""
        return self._mat

    def to_dense(self):
        if self.is_dense:
            return np.array(self._mat)
        return np.asarray(self._mat.todense(), dtype=np.int8)

    def edge_count(self):
        if self._edges is None:
            stored = np.count_nonzero(self._mat) if self.is_dense else self._mat.nnz
            object.__setattr__(self, "_edges", int(stored) // 2)
        return self._edges

    def negative_count(self):
        if self._negatives is None:
            values = self._mat if self.is_dense else self._mat.data
            object.__setattr__(self, "_negatives", int(np.count_nonzero(values == -1)) // 2)
        return self._negatives

    def label_of(self, i):
        """Node i's label: its zero-padded canonical id when labels is None."""
        if self.labels is not None:
            return self.labels[i]
        return str(range(self.n)[i]).zfill(_id_width(self.n))

    def __eq__(self, other):
        if not isinstance(other, SignedAdjacency):
            return NotImplemented
        mine, theirs = self.labels, other.labels
        if (mine is None) != (theirs is None):  # None reads as the canonical ids
            mine, theirs = mine or _canonical_labels(self.n), theirs or _canonical_labels(other.n)
        if self.n != other.n or mine != theirs:
            return False
        a, b = self._mat, other._mat
        if self.is_dense and other.is_dense:
            return bool(np.array_equal(a, b))
        import scipy.sparse as sp

        return (sp.csr_matrix(a) != sp.csr_matrix(b)).nnz == 0

    def __repr__(self):
        kind = "dense" if self.is_dense else "sparse"
        return f"SignedAdjacency(n={self.n}, edges={self.edge_count()}, {kind})"

    # ------------------------------------------------------------- analysis

    def summarize(self):
        if self.n < 2:
            raise SummaryUndefinedError(
                f"edge_proportion needs >= 2 nodes, got n={self.n}"
            )
        pairs = self.n * (self.n - 1) // 2
        edges = self.edge_count()
        neg = self.negative_count()
        return GraphSummary(
            n=self.n,
            edge_proportion=edges / pairs,
            negative_fraction=(neg / edges) if edges else None,
        )

    # -------------------------------------------------------- serialization

    def to_edge_list_text(self):
        """Edge-list text, pairs sorted by (label_u, label_v).

        Unlabeled adjacencies get canonical zero-padded ids; those ids, as
        given or as read back, come with the ``# nodes: N`` directive so
        the node count round-trips even with isolated nodes present.
        """
        rows, cols, signs = _upper_nonzero(self._mat)
        if self.labels is None:
            # the canonical ids sort as their indexes: only the ids on an
            # edge are formatted, and rows < cols already
            used, rank = np.unique(np.concatenate((rows, cols)), return_inverse=True)
            lo, hi = rank[:len(rows)], rank[len(rows):]
            width = _id_width(self.n)
            names = np.array([str(i).zfill(width) for i in used.tolist()], dtype=object)
            canonical = True
        else:
            labels = self.labels
            canonical = labels == _canonical_labels(self.n)
            # the pairs in (label_u, label_v) order, by the ranks of the labels
            by_rank = sorted(range(self.n), key=labels.__getitem__)
            rank = np.empty(self.n, dtype=np.int64)
            rank[by_rank] = np.arange(self.n)
            lo = np.minimum(rank[rows], rank[cols])
            hi = np.maximum(rank[rows], rank[cols])
            names = np.array([labels[i] for i in by_rank], dtype=object)
        lines = [f"{_NODES_DIRECTIVE} {self.n}"] if canonical else []
        order = np.lexsort((hi, lo))
        tokens = np.where(signs[order] > 0, "+1", "-1").astype(object)
        lines.extend(map(" ".join, zip(names[lo[order]], names[hi[order]], tokens)))
        return "\n".join(lines) + "\n"


def _is_scipy_sparse(x):
    """Whether x is a scipy sparse matrix or array.  A caller who passes one
    has imported scipy.sparse, so this never imports it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


def _id_width(n):
    """The digits of each canonical id of n nodes."""
    return len(str(max(n - 1, 0)))


def _index_type(n):
    """The type of the node indexes of the parsed pairs: int32 below 2^31 nodes."""
    return np.int32 if n < 1 << 31 else np.int64


def _canonical_labels(n):
    width = _id_width(n)
    return tuple(str(i).zfill(width) for i in range(n))


def _id_error(label, n):
    """Why `label` is not a canonical id of n nodes, or None if it is one.
    A value of more digits than an id is out of range unconverted."""
    width, value = _id_width(n), label.lstrip("0") or "0"
    if not (label.isascii() and label.isdigit()) or len(value) > width or int(value) >= n:
        return f"node id {label!r} outside declared 0..{n - 1}"
    if len(label) != width:
        return (f"{label!r} has {len(label)} digit{'s' * (len(label) != 1)}; "
                f"the ids of {n} nodes have {width}")
    return None


def _upper_nonzero(mat):
    """Rows, columns and values of the nonzero entries with row < col."""
    if isinstance(mat, np.ndarray):
        rows, cols = np.nonzero(np.triu(mat, 1))
        return rows, cols, mat[rows, cols]
    coo = mat.tocoo()
    keep = coo.row < coo.col
    return coo.row[keep], coo.col[keep], coo.data[keep]


# ------------------------------------------------------------------ validate


def _validate_entries(mat):
    if not isinstance(mat, np.ndarray):
        if mat.nnz and not np.isin(mat.data, (-1, 1)).all():
            bad = mat.data[~np.isin(mat.data, (-1, 1))][0]
            raise AlphabetError(f"entry {bad} outside {{-1, 0, +1}}")
        if np.any(mat.diagonal() != 0):
            raise NonzeroDiagonalError("nonzero diagonal entry")
        if (mat != mat.T).nnz != 0:
            raise AsymmetricMatrixError("adjacency is not symmetric")
        return
    if not np.isin(mat, (-1, 0, 1)).all():
        bad = mat[~np.isin(mat, (-1, 0, 1))].ravel()[0]
        raise AlphabetError(f"entry {bad} outside {{-1, 0, +1}}")
    if mat.shape[0] and np.any(np.diagonal(mat) != 0):
        raise NonzeroDiagonalError("nonzero diagonal entry")
    if not np.array_equal(mat, mat.T):
        raise AsymmetricMatrixError("adjacency is not symmetric")


def validate(adj):
    """Re-check all SignedAdjacency invariants; raises typed errors."""
    _validate_entries(adj.entries)


# --------------------------------------------------------------------- parse

# Byte kinds of the bulk pass: 0 a label byte, 1 a space or tab, 3 a line
# break (CR or LF; bit 1 set, as every separator), 4 a byte it leaves to
# the line loop: the other ASCII characters that str.split or str.splitlines
# separate on, and NUL, which its NUL-padded label table cannot hold.
_KIND = np.zeros(256, dtype=np.uint8)
_KIND[[9, 32]] = 1
_KIND[[10, 13]] = 3
_KIND[[0, 11, 12, 28, 29, 30, 31]] = 4
# The separators beyond ASCII, also left to the loop.
_LOOP_ONLY = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
# The bulk pass runs on pieces of at least this many bytes (characters of a
# str), each but the last ending after a line feed.
_CHUNK_BYTES = 1 << 20


def parse_edge_list(text):
    """Parse edge-list text (see module docstring) into a SignedAdjacency.

    `text` is a str, UTF-8 bytes, or a file object that reads either; bytes
    that are not UTF-8 raise EdgeListParseError on the line of the first."""
    if hasattr(text, "read"):
        text = text.read()
    edges = _bulk_edges(text)
    if edges is None:
        edges = _line_edges(text if isinstance(text, str) else _decode(text))
    return SignedAdjacency._from_edges(*edges)


def _directive_tail(line):
    """The text after ``# nodes:`` in a stripped comment line; None for any
    other comment."""
    if line.lower().startswith(_NODES_DIRECTIVE):
        return line[len(_NODES_DIRECTIVE):].strip()
    return None


def _line_edges(text):
    """The line loop: (n, names, lo, hi, sign) as `SignedAdjacency._from_edges`
    takes them, raising at the first bad line."""
    declared_n = None
    edges, first_lines = {}, []  # each pair's sign, and the line it was first seen on
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tail = _directive_tail(line)
            if tail is not None:
                if not tail.isdecimal():
                    raise EdgeListParseError(line_no, f"bad node-count directive {line!r}")
                if len(tail) > _MAX_COUNT_DIGITS:
                    raise EdgeListParseError(
                        line_no, f"node count of {len(tail)} digits is past the int64 range")
                declared_n = int(tail)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListParseError(line_no, f"expected 'u v s', got {raw!r}")
        u, v, s = parts
        if s not in _SIGN_TOKENS:
            raise EdgeListParseError(line_no, f"sign token {s!r} not in {{+1, -1, 1}}")
        if u == v:
            raise SelfLoopError(line_no, f"self loop on node {u!r}")
        sign = _SIGN_TOKENS[s]
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            edges[key] = sign
            first_lines.append(line_no)
        elif edges[key] != sign:
            raise ConflictingSignError(
                line_no, f"pair {key} seen with both signs"
            )

    if declared_n is None:
        names = sorted({u for u, _ in edges} | {v for _, v in edges})
        n, index = len(names), {name: i for i, name in enumerate(names)}.__getitem__
    else:
        # the last directive rules: each label is checked once every line is read
        n, names, index = declared_n, None, int
        for key, line_no in zip(edges, first_lines):
            for label in key:
                error = _id_error(label, n)
                if error is not None:
                    raise EdgeListParseError(line_no, error)
    lo = np.array([index(u) for u, _ in edges], dtype=_index_type(n))
    hi = np.array([index(v) for _, v in edges], dtype=_index_type(n))
    order = np.lexsort((hi, lo))  # the pairs as first seen, put in (lo, hi) order
    return n, names, lo[order], hi[order], np.array(list(edges.values()), dtype=np.int8)[order]


def _bulk_edges(text):
    """(n, names, lo, hi, sign) as `SignedAdjacency._from_edges` takes them,
    from the bulk pass over the line-aligned chunks of a str or UTF-8 bytes,
    or None where the line loop must decide: a chunk the pass refuses
    (`_chunk_edges`), merged labels whose table would pass four times the
    input, a label outside a ``# nodes:`` directive (`_canonical_index`), or
    a pair seen with both signs (the loop then raises at the first bad line)."""
    parts, declared_n, size = [], None, 0
    for data in _chunks(text):
        part = _chunk_edges(data)
        if part is None:
            return None
        labels, lo, hi, sign, directive = part
        parts.append((labels, lo, hi, sign))
        if directive is not None:
            declared_n = directive
        size += len(data)

    # the chunks' distinct labels, NUL-padded to one width, indexed by one sort
    cols = max((labels.shape[1] for labels, *_ in parts), default=8)
    rows = np.cumsum([0] + [len(labels) for labels, *_ in parts])
    if rows[-1] * cols > 4 * size + (1 << 20):
        return None
    table = np.zeros((rows[-1], cols), dtype=np.uint8)
    for (labels, *_), at in zip(parts, rows):
        table[at:at + len(labels), :labels.shape[1]] = labels
    uniq, inv = _unique_rows(table)
    if declared_n is None:
        names = [x.decode("utf-8") for x in table[uniq].view(f"S{cols}").ravel()]
        n = len(names)
    else:
        where = _canonical_index(table[uniq], declared_n)
        if where is None:
            return None
        inv, n, names = where[inv], declared_n, None
    del table

    # one sort of the pair keys, the sign in the lowest bit, drops duplicate
    # rows; a pair left twice was seen with both signs.  Both label indexes
    # rise with the labels' byte order, so a chunk's lo < hi holds once merged.
    code = np.empty(sum(len(lo) for _, lo, _, _ in parts), dtype=np.int64)
    end = 0
    for (_, lo, hi, sign), at, to in zip(parts, rows[:-1], rows[1:]):
        place = inv[at:to]  # the place in names of each of the chunk's labels
        code[end:end + len(lo)] = (place[lo] * n + place[hi]) * 2 + sign
        end += len(lo)
    del parts
    code.sort()
    fresh = np.ones(code.size, dtype=bool)
    fresh[1:] = code[1:] != code[:-1]
    code = code[fresh]
    sign = (code & 1).astype(np.int8) * 2 - 1
    code >>= 1
    if (code[1:] == code[:-1]).any():
        return None
    index = _index_type(n)
    hi = (code % n).astype(index)
    code //= n
    return n, names, code.astype(index), hi, sign


def _chunks(text):
    """The UTF-8 bytes of a str or bytes in pieces of at least _CHUNK_BYTES
    (characters of a str), each but the last ending after a line feed.
    Bytes are sliced uncopied; a str is encoded one piece at a time, a lone
    surrogate as bytes that are not UTF-8."""
    is_str = isinstance(text, str)
    view = text if is_str else memoryview(text)
    start = 0
    while start < len(view):
        end = text.find("\n" if is_str else b"\n", start + _CHUNK_BYTES - 1) + 1 or len(view)
        piece = view[start:end]
        yield piece.encode("utf-8", "surrogatepass") if is_str else piece
        start = end


def _chunk_edges(data):
    """The bulk pass over one chunk of UTF-8 bytes that starts a line:
    (labels, lo, hi, sign, declared_n), the chunk's distinct labels as sorted
    NUL-padded rows of a uint8 table, each edge's lower and higher row, its
    sign (True for +1) and the count of its last ``# nodes:`` directive.
    None where the line loop must decide: the chunk is not UTF-8, or holds a
    byte of kind 4, a separator beyond ASCII, a line other than two labels
    and a sign token, a bad directive or a self loop; or one label is so
    much longer than the rest that the label table would pass four times
    the chunk."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size and buf.max() >= 0x80:
        try:
            if _LOOP_ONLY.search(str(data, "utf-8")):
                return None
        except UnicodeDecodeError:
            return None
    kind = _KIND[buf]
    if kind.max(initial=0) == 4:
        return None
    # tokens are the runs of non-space bytes, [starts, ends); padding both
    # ends with a space makes the changes alternate start, end
    space = np.ones(buf.size + 2, dtype=bool)
    space[1:-1] = kind & 1
    bounds = np.flatnonzero(space[1:] != space[:-1])
    del space
    starts, ends = bounds[0::2], bounds[1::2]
    # a line's head is its first token: the first token after a break
    first = np.zeros(starts.size, dtype=bool)
    after = np.searchsorted(starts, np.flatnonzero(kind & 2))
    first[after[after < starts.size]] = True
    first[:1] = True
    del kind, after
    heads = np.flatnonzero(first)
    count = np.diff(heads, append=starts.size)  # tokens on each line
    comment = buf[starts[heads]] == ord("#")

    declared_n = None
    for h, c in zip(heads[comment], count[comment]):
        tail = _directive_tail(str(data[starts[h]:ends[h + c - 1]], "utf-8"))
        if tail is not None:
            if not tail.isdecimal() or len(tail) > _MAX_COUNT_DIGITS:
                return None
            declared_n = int(tail)
    if comment.any():
        keep = ~np.repeat(comment, count)
        starts, ends, count = starts[keep], ends[keep], count[~comment]

    # every data line holds exactly three tokens, the third a sign token
    if (count != 3).any():
        return None
    at = starts[2::3]
    width = ends[2::3] - at
    c0, c1 = buf[at], buf[np.minimum(at + 1, buf.size - 1)]
    if not (((width == 1) & (c0 == ord("1")))
            | ((width == 2) & ((c0 == ord("+")) | (c0 == ord("-"))) & (c1 == ord("1")))).all():
        return None
    sign = c0 != ord("-")

    # labels u0 v0 u1 v1 ..., indexed by one sort of their big-endian words
    at = np.delete(starts, np.s_[2::3])
    width = np.delete(ends, np.s_[2::3]) - at
    cols = max(-(-int(width.max(initial=0)) // 8) * 8, 8)
    if at.size * cols > 4 * buf.size + (1 << 20):
        return None
    table = np.zeros((at.size, cols), dtype=np.uint8)
    for k in range(int(width.max(initial=0))):
        table[:, k] = np.where(width > k, buf[np.minimum(at + k, buf.size - 1)], 0)
    del at, width, starts, ends
    uniq, inv = _unique_rows(table)
    u, v = inv[0::2], inv[1::2]
    if (u == v).any():
        return None
    dtype = np.min_scalar_type(len(uniq))  # the rows are kept until every chunk is read
    return (table[uniq], np.minimum(u, v).astype(dtype), np.maximum(u, v).astype(dtype), sign,
            declared_n)


def _canonical_index(labels, n):
    """The index among the canonical labels of n nodes of each row of a
    NUL-padded uint8 label table, or None if a row is not one of them: a
    canonical label is exactly len(str(n - 1)) ASCII digits, whose value,
    below n, is its index."""
    width = _id_width(n)
    if not len(labels):
        return np.zeros(0, dtype=np.int64)
    if width > labels.shape[1] or labels[:, width:].any():
        return None
    value = np.zeros(len(labels), dtype=np.int64)
    for k in range(width):
        digit = labels[:, k] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
        if (digit > 9).any():
            return None
        value = value * 10 + digit
    return None if (value >= n).any() else value


def _unique_rows(table):
    """(first row of each distinct row in sorted order, inverse index) of a
    uint8 table whose width is a multiple of 8; rows compare as byte strings."""
    words = table.view(">u8").astype(np.uint64)
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
    words = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def read_edge_list(path):
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read())


def _decode(data):
    """UTF-8 text of bytes; EdgeListParseError on the line of the first byte
    that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise EdgeListParseError(
            line_no, f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None


def write_edge_list(adj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(adj.to_edge_list_text())
