"""Signed adjacency matrices: representation, validation, ingestion, summary.

A signed network is a symmetric matrix over {-1, 0, +1} with zero diagonal.
Storage is a dense int8 array for n <= DENSE_THRESHOLD and scipy CSR above
that, so the library stays usable past the sizes where a dense matrix is
sensible.

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
with canonical zero-padded decimal ids ``0 .. N-1``.  The sampler's writer
emits it so that isolated nodes survive a write/read round trip; files
without the directive simply define the node set as the ids that appear.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
_SIGN_TOKENS = {"+1": 1, "1": 1, "-1": -1}


@dataclass(frozen=True)
class GraphSummary:
    """Edge density and sign mix of an observed network."""

    n: int
    edge_proportion: float
    negative_fraction: float | None  # None when the graph has no edges

    def to_dict(self):
        return {
            "n": self.n,
            "edge_proportion": self.edge_proportion,
            "negative_fraction": self.negative_fraction,
        }


class SignedAdjacency:
    """Immutable symmetric signed adjacency matrix.

    Parameters
    ----------
    entries : array-like or scipy sparse, n x n over {-1, 0, +1}
    labels : optional sequence of node-id strings, length n
    dense_threshold : storage switch; defaults to DENSE_THRESHOLD
    """

    __slots__ = ("n", "labels", "_mat")

    def __init__(self, entries, labels=None, dense_threshold=None, _validated=False):
        threshold = DENSE_THRESHOLD if dense_threshold is None else dense_threshold
        if sp.issparse(entries):
            mat = entries.tocsr().astype(np.int8, copy=True)
            mat.eliminate_zeros()
        else:
            mat = np.asarray(entries)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise AlphabetError(f"adjacency must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if not _validated:
            _validate_entries(mat)
        if sp.issparse(mat):
            if n <= threshold:
                mat = np.asarray(mat.todense(), dtype=np.int8)
        else:
            mat = mat.astype(np.int8, copy=True)
            if n > threshold:
                mat = sp.csr_matrix(mat)
        if not sp.issparse(mat):
            mat.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_mat", mat)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise AlphabetError(f"{len(labels)} labels for {n} nodes")
            if len(set(labels)) != n:
                raise AlphabetError("duplicate node labels")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("SignedAdjacency is immutable")

    # ------------------------------------------------------------ accessors

    @property
    def is_dense(self):
        return not sp.issparse(self._mat)

    @property
    def entries(self):
        """Backing matrix: int8 ndarray (dense) or CSR (sparse)."""
        return self._mat

    def to_dense(self):
        if self.is_dense:
            return np.array(self._mat)
        return np.asarray(self._mat.todense(), dtype=np.int8)

    def edge_count(self):
        if self.is_dense:
            return int(np.count_nonzero(self._mat)) // 2
        return int(self._mat.nnz) // 2

    def negative_count(self):
        if self.is_dense:
            return int(np.count_nonzero(self._mat == -1)) // 2
        return int(np.count_nonzero(self._mat.data == -1)) // 2

    def label_of(self, i):
        if self.labels is not None:
            return self.labels[i]
        return _canonical_labels(self.n)[i]

    def __eq__(self, other):
        if not isinstance(other, SignedAdjacency):
            return NotImplemented
        if self.n != other.n or self.labels != other.labels:
            return False
        a, b = self._mat, other._mat
        if sp.issparse(a) or sp.issparse(b):
            return (sp.csr_matrix(a) != sp.csr_matrix(b)).nnz == 0
        return bool(np.array_equal(a, b))

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

        Unlabeled adjacencies get canonical zero-padded ids plus the
        ``# nodes: N`` directive so the node count round-trips even with
        isolated nodes present.
        """
        lines = []
        if self.labels is None:
            labels = _canonical_labels(self.n)
            lines.append(f"{_NODES_DIRECTIVE} {self.n}")
        else:
            labels = self.labels
        rows, cols = _upper_nonzero(self._mat)
        signs = np.asarray(self._mat[rows, cols]).ravel()  # one gather, not a lookup per edge
        recs = []
        for i, j, sign in zip(rows, cols, signs):
            lu, lv = sorted((labels[i], labels[j]))
            recs.append((lu, lv, "+1" if sign > 0 else "-1"))
        recs.sort()
        lines.extend(f"{lu} {lv} {s}" for lu, lv, s in recs)
        return "\n".join(lines) + "\n"


def _canonical_labels(n):
    width = len(str(max(n - 1, 0)))
    return tuple(str(i).zfill(width) for i in range(n))


def _upper_nonzero(mat):
    """Row/col indices of nonzero entries with row < col."""
    if sp.issparse(mat):
        coo = mat.tocoo()
        keep = coo.row < coo.col
        return coo.row[keep], coo.col[keep]
    rows, cols = np.nonzero(np.triu(mat, 1))
    return rows, cols


# ------------------------------------------------------------------ validate


def _validate_entries(mat):
    if sp.issparse(mat):
        if mat.shape[0] != mat.shape[1]:
            raise AlphabetError(f"adjacency must be square, got shape {mat.shape}")
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


def from_dense(array, labels=None, dense_threshold=None):
    return SignedAdjacency(array, labels=labels, dense_threshold=dense_threshold)


# --------------------------------------------------------------------- parse


def parse_edge_list(text, dense_threshold=None):
    """Parse edge-list text (see module docstring) into a SignedAdjacency."""
    if hasattr(text, "read"):
        text = text.read()
    declared_n = None
    edges = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith(_NODES_DIRECTIVE):
                tail = line[len(_NODES_DIRECTIVE):].strip()
                if not tail.isdigit():
                    raise EdgeListParseError(line_no, f"bad node-count directive {line!r}")
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
        if key in edges and edges[key] != sign:
            raise ConflictingSignError(
                line_no, f"pair {key} seen with both signs"
            )
        edges[key] = sign

    if declared_n is None:
        names = sorted({u for u, _ in edges} | {v for _, v in edges})
    else:
        names = list(_canonical_labels(declared_n))
        known = set(names)
        for u, v in edges:
            if u not in known or v not in known:
                raise EdgeListParseError(
                    0, f"node id {u if u not in known else v!r} outside declared 0..{declared_n - 1}"
                )
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    threshold = DENSE_THRESHOLD if dense_threshold is None else dense_threshold
    if n <= threshold:
        mat = np.zeros((n, n), dtype=np.int8)
        for (u, v), sign in edges.items():
            i, j = index[u], index[v]
            mat[i, j] = sign
            mat[j, i] = sign
    else:
        rows, cols, vals = [], [], []
        for (u, v), sign in edges.items():
            i, j = index[u], index[v]
            rows += [i, j]
            cols += [j, i]
            vals += [sign, sign]
        mat = sp.csr_matrix(
            (np.array(vals, dtype=np.int8), (rows, cols)), shape=(n, n)
        )
    return SignedAdjacency(
        mat, labels=names, dense_threshold=threshold, _validated=True
    )


def read_edge_list(path, dense_threshold=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh, dense_threshold=dense_threshold)


def write_edge_list(adj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(adj.to_edge_list_text())
