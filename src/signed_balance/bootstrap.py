"""Node-resampling bootstrap for the studentized moment ratio.

Resampling rule: draw n node indices i.i.d. uniform with replacement; the
resampled network has entry (a,b) = A[i_a, i_b].  A pair that hits the same
original node twice gets A's zero diagonal (no self-information), so every
resample is a valid signed adjacency.  `resample_network` builds that
network; it is the reference the replicates are checked against.

A replicate does not build it.  The resampled network is fixed by which
nodes were drawn (the set S) and how often each was drawn (w), so each
replicate is counted on the observed network's submatrix A[S, S] with every
product weighted by w (`census._resampled_bundle`): |S| is about 0.63 n, and
every count is the same exact integer the resampled network gives.

Each replicate recomputes the studentized statistic
T* = (ratio* - ratio_observed)/S* through the same `inference._pipeline` as
the observed network, on a census without pairs (a replicate never reads
the Edgeworth coefficients).  The observed census, and the storage the
replicates are counted on, are the census `census.full_census` cached on
the adjacency, so an adjacency already counted is not counted again, and
the observed pipeline is the one kept on that census: `bootstrap_ci`
studentizes the observed network once.  On dense storage that storage is
the adjacency's own int8 matrix: a replicate takes its int8 submatrix, and
each product casts it to float32 where it runs.
Replicates where the ratio or variance is degenerate (no triangles, zero
variance) are dropped and counted; more than 50% degenerate is a hard
error.  Replicate r uses the derived stream (seed, r), drawn through one
re-keyed Philox (`rng.streams`), so runs are reproducible.  Replicates run
in order on the calling thread; `threads` is accepted and checked but
selects nothing.  A `BootstrapDistribution` is a law like
`inference.EdgeworthCoefficients` (`cdf`, `tails`, `quantile`), so
`inference._report` builds its report; `reference_law` maps a method name
to its law, and `METHODS` beside it is the one list of the names it takes.
A nonzero c_delta is refused with the bootstrap: the delta draw reads
stream (seed, 0), which replicate 0 draws from.
"""

from dataclasses import dataclass

import numpy as np

from .census import _resampled_bundle, full_census
from .errors import ConfigError, DegenerateBootstrapError, DegenerateError
from .graph import SignedAdjacency
from .inference import EXPANSION_METHODS, _pipeline, _report, check_level, check_threads
from .rng import stream, streams


@dataclass(frozen=True)
class BootstrapDistribution:
    """The bootstrap law of T: the empirical law of its kept draws."""

    draws: np.ndarray
    B: int
    seed: int
    target: str
    degenerate_count: int

    def cdf(self, x):
        return np.searchsorted(np.sort(self.draws), x, side="right") / self.draws.size

    def tails(self, t):
        """(P(T* <= t), P(T* >= t)); a draw equal to t counts in both."""
        return float(np.mean(self.draws <= t)), float(np.mean(self.draws >= t))

    def quantile(self, p):
        return float(np.quantile(self.draws, p))

    def save_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_star\n")
            for v in self.draws:
                fh.write(f"{float(v)!r}\n")


def resample_network(adj, seed=0, indices=None):
    """One resampled network; `indices` overrides the draw (testing hook)."""
    n = adj.n
    if n < 3:
        raise ConfigError(f"resampling needs n >= 3, got n={n}")
    if indices is None:
        indices = stream(seed).integers(0, n, size=n)
    idx = np.asarray(indices, dtype=np.int64)
    if adj.is_dense:
        return SignedAdjacency(adj.entries.take(idx, axis=0).take(idx, axis=1), _validated=True)
    return SignedAdjacency(adj.entries[idx][:, idx], _validated=True)


def check_replicates(B):
    if B < 100:
        raise ConfigError(f"need B >= 100 bootstrap replicates, got {B}")


def bootstrap_distribution(adj, target="balanced", B=1000, seed=0, threads=1):
    """B studentized draws, each replicate counted on the storage of the
    census cached on `adj`."""
    check_replicates(B)
    check_threads(threads)
    bundle = full_census(adj)
    ratio_obs = _pipeline(bundle, target).estimate

    def one(rng):
        idx = rng.integers(0, adj.n, size=adj.n)
        try:
            star = _pipeline(_resampled_bundle(bundle.pair.a, idx), target)
        except DegenerateError:
            return None
        return (star.estimate - ratio_obs) / star.S_hat

    results = [one(rng) for rng in streams(seed, B)]
    draws = np.array([t for t in results if t is not None], dtype=np.float64)
    degenerate = B - draws.size
    if degenerate * 2 > B:
        raise DegenerateBootstrapError(
            f"{degenerate}/{B} bootstrap replicates degenerate"
        )
    return BootstrapDistribution(
        draws=draws, B=B, seed=seed, target=target, degenerate_count=degenerate)


def bootstrap_ci(adj, level=0.95, target="balanced", B=1000, seed=0, threads=1):
    """Full InferenceReport with method='bootstrap'; see bootstrap_report."""
    check_level(level)
    dist = bootstrap_distribution(adj, target=target, B=B, seed=seed, threads=threads)
    return bootstrap_report(adj, dist, level)


def bootstrap_report(adj, dist, level=0.95):
    """InferenceReport with method='bootstrap' from a distribution of `adj`.

    Edgeworth coefficients of the observed network are included for
    reference; the interval and p-values come from the resampling
    distribution (with the observed S_hat as the scale).
    """
    check_level(level)
    return _report(adj, _pipeline(full_census(adj), dist.target), level, "bootstrap", dist)


# Every method a statistic can be referred by; `reference_law` maps each to its law.
METHODS = (*EXPANSION_METHODS, "bootstrap")


def reference_law(adj, pipe, method, B, seed):
    """The law `method` refers the statistic of `pipe` on `adj` to: B
    bootstrap draws from seed, else `pipe.coefficients(method)`."""
    if method == "bootstrap":
        return bootstrap_distribution(adj, target=pipe.proj.target, B=B, seed=seed)
    return pipe.coefficients(method)
