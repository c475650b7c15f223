"""Workload sizes and the benchmark's own input generator.

Every input comes from the workload seed through `input_seed`, so the same
seed always gives the same inputs.  Expected outputs are recorded for
`seeds` input seeds per scale (see make_golden.py), which is why the seed is
folded into that range.
"""

import numpy as np

# Worker threads of every op.  On a 2-vCPU VM with 30-40 % steal, two-thread
# ops ran 1.5x slower whenever one vCPU was taken, and their op_s quartile
# spread over ten runs reached 0.39; one thread keeps it near 0.1.
THREADS = 1

# "full" is the benchmark; "toy" is a seconds-long version for the smoke tests.
SCALES = {
    "full": {
        "seeds": 16,
        "ci-sparse-file": {"n": 20000, "k": 1.5},
        "analysis-dense": {"n": 2000},
        "mc-coverage": {
            "alpha": [20, 400], "n_grid": [40, 160], "replications": 250,
            "truth_budget": 1_000_000,
        },
        "ci-bootstrap": {"n": 160, "replicates": 1000},
    },
    "toy": {
        "seeds": 2,
        "ci-sparse-file": {"n": 10001, "k": 1.25},
        "analysis-dense": {"n": 120},
        "mc-coverage": {
            "alpha": [20, 400], "n_grid": [40], "replications": 20,
            "truth_budget": 10_000,
        },
        "ci-bootstrap": {"n": 60, "replicates": 100},
    },
}


def input_seed(scale, seed):
    return seed % SCALES[scale]["seeds"]


def sparse_edges(n, k, seed):
    """Edges of a `sparse-const` network drawn without the n x n pair table.

    The package's `sample_network` draws one uniform per node pair, which is
    C(n,2) = 2e8 pairs and more than 10 GB at n = 20000.  This draws the same
    law with memory bounded by the edge count: the number of edges is
    Binomial(C(n,2), rho) with rho = n^(-1/k), the edges are that many
    distinct pairs chosen uniformly, and each edge is negative with the
    `const-cos` probability 2 cos(x_u^2 + x_v^2)/3 + 0.3 on uniform latents.

    Returns int64 arrays u < v and an int8 sign array, sorted by (u, v).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    pairs = n * (n - 1) // 2
    m = int(rng.binomial(pairs, n ** (-1.0 / k)))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a = rng.integers(0, n, size=2 * (m - keys.size))
        b = rng.integers(0, n, size=a.size)
        keep = a != b
        lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        keys = np.union1d(keys, lo * n + hi)
    keys = np.sort(rng.permutation(keys)[:m])
    u, v = keys // n, keys % n
    x = rng.uniform(size=n)
    p_neg = 2.0 * np.cos(x[u] ** 2 + x[v] ** 2) / 3.0 + 0.3
    sign = np.where(rng.uniform(size=m) < p_neg, -1, 1).astype(np.int8)
    return u, v, sign


def mc_config(params, seed):
    return {
        "graphon": {"name": "logistic-balance", "params": {"alpha": params["alpha"][0]}},
        "study": "coverage",
        "n_grid": params["n_grid"],
        "param_grid": {"alpha": params["alpha"]},
        "replications": params["replications"],
        "level": 0.95,
        "methods": ["edgeworth", "normal"],
        "targets": ["balanced"],
        "truth_budget": params["truth_budget"],
        "seed": seed,
        "threads": THREADS,
    }
