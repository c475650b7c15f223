"""Set-up for ci-sparse-file: draw the sparse network and write its edge list.

    python3 perfbench/gen_sparse.py N K SEED OUT [SPANS_JSON]

The file is written by the package's `write_edge_list`, so the set-up time
covers the write path.  With SPANS_JSON the tracer records that call.
"""

import sys

import numpy as np
import scipy.sparse as sp

import signed_balance as sb
from inputs import sparse_edges


def main(argv):
    n, k, seed, out = int(argv[0]), float(argv[1]), int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    u, v, sign = sparse_edges(n, k, seed)
    mat = sp.csr_matrix(
        (np.concatenate([sign, sign]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n), dtype=np.int8,
    )
    adj = sb.SignedAdjacency(mat)
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sb.write_edge_list(adj, out)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
