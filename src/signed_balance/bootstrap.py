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
the adjacency, so an adjacency already counted is not counted again.
Replicates where the ratio or variance is degenerate (no triangles, zero
variance) are dropped and counted; more than 50% degenerate is a hard
error.  Replicate r uses the derived stream (seed, r), so runs are
reproducible.  Replicates run in order on the calling thread; `threads` is
accepted and checked but selects nothing.  The bootstrap report is built by
`inference._report`, the builder of the Edgeworth and normal reports.
"""

from dataclasses import dataclass

import numpy as np

from .census import _resampled_bundle, full_census
from .errors import ConfigError, DegenerateBootstrapError, DegenerateError
from .graph import SignedAdjacency
from .inference import _pipeline, _report, check_level, check_threads
from .rng import stream


@dataclass(frozen=True)
class BootstrapDistribution:
    draws: np.ndarray
    B: int
    seed: int
    target: str
    degenerate_count: int

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


def bootstrap_distribution(adj, target="balanced", B=1000, seed=0, threads=1):
    """B studentized draws, each replicate counted on the storage of the
    census cached on `adj`."""
    if B < 100:
        raise ConfigError(f"need B >= 100 bootstrap replicates, got {B}")
    check_threads(threads)
    bundle = full_census(adj)
    ratio_obs = _pipeline(bundle, target).estimate

    def one(r):
        idx = stream(seed, r).integers(0, adj.n, size=adj.n)
        try:
            star = _pipeline(_resampled_bundle(bundle.pair.a, idx), target)
        except DegenerateError:
            return None
        return (star.estimate - ratio_obs) / star.S_hat

    results = [one(r) for r in range(B)]
    draws = np.array([t for t in results if t is not None], dtype=np.float64)
    degenerate = B - draws.size
    if degenerate * 2 > B:
        raise DegenerateBootstrapError(
            f"{degenerate}/{B} bootstrap replicates degenerate"
        )
    return BootstrapDistribution(
        draws=draws, B=B, seed=seed, target=target, degenerate_count=degenerate)


def ci_from_draws(estimate, s_hat, draws, level):
    """Percentile-of-T* interval: (est - t*_{hi} S, est - t*_{lo} S)."""
    alpha = 1.0 - level
    t_lo, t_hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return estimate - float(t_hi) * s_hat, estimate - float(t_lo) * s_hat


def _bootstrap_p(draws, t_null):
    """Two-sided bootstrap tail probability of T* beyond the null statistic."""
    upper = float(np.mean(draws >= t_null))
    lower = float(np.mean(draws <= t_null))
    return float(min(max(2.0 * min(upper, lower), 0.0), 1.0))


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
    pipe = _pipeline(full_census(adj), dist.target)
    interval = ci_from_draws(pipe.estimate, pipe.S_hat, dist.draws, level)
    return _report(adj, pipe, level, "bootstrap", interval, lambda t: _bootstrap_p(dist.draws, t))
