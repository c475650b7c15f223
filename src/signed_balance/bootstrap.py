"""Node-resampling bootstrap for the studentized moment ratio.

Resampling rule: draw n node indices i.i.d. uniform with replacement; the
resampled network has entry (a,b) = A[i_a, i_b], except that pairs hitting
the same original node twice get 0 (no self-information), which keeps every
resample a valid signed adjacency.

Each replicate recomputes the studentized statistic
T* = (ratio* - ratio_observed)/S* on its resampled network.  Replicates
where the ratio or variance is degenerate (no triangles, zero variance) are
dropped and counted; more than 50% degenerate is a hard error.  Replicate r
uses the derived stream (seed, r), so runs are reproducible and independent
of scheduling.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .census import full_census
from .errors import ConfigError, DegenerateBootstrapError, DegenerateError
from .graph import SignedAdjacency
from .inference import (
    InferenceReport,
    Pipeline,
    _named_nulls,
    _pipeline,
    baselines,
    check_level,
    projections,
    sample_moments,
    variance_estimator,
)
from .rng import stream


@dataclass(frozen=True)
class EmpiricalGraphon:
    """The observed network viewed as the resampling distribution."""

    source: SignedAdjacency


@dataclass(frozen=True)
class BootstrapDistribution:
    draws: np.ndarray
    B: int
    seed: int
    target: str
    degenerate_count: int
    observed: Pipeline = field(repr=False, compare=False)  # for bootstrap_report

    def save_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_star\n")
            for v in self.draws:
                fh.write(f"{float(v)!r}\n")


def resample_network(egraphon, seed=0, indices=None):
    """One resampled network; `indices` overrides the draw (testing hook)."""
    src = egraphon.source
    n = src.n
    if n < 3:
        raise ConfigError(f"resampling needs n >= 3, got n={n}")
    if indices is None:
        indices = stream(seed).integers(0, n, size=n)
    idx = np.asarray(indices, dtype=np.int64)
    if src.is_dense:
        sub = src.entries[np.ix_(idx, idx)].copy()
        same = idx[:, None] == idx[None, :]
        sub[same] = 0
        return SignedAdjacency(sub, _validated=True)
    sub = src.entries[idx][:, idx].tocoo()
    keep = idx[sub.row] != idx[sub.col]
    mat = sp.csr_matrix(
        (sub.data[keep], (sub.row[keep], sub.col[keep])), shape=(n, n), dtype=np.int8
    )
    return SignedAdjacency(mat, _validated=True)


def _studentized(adj, target):
    """(ratio, S_hat) without the pair projections (not needed here)."""
    bundle = full_census(adj, with_pairs=False)
    moments = sample_moments(bundle.census)
    proj = projections(bundle.census, bundle.node, None, target)
    s_hat = variance_estimator(proj)
    return moments.estimate(target), s_hat


def bootstrap_distribution(adj, target="balanced", B=1000, seed=0, threads=1):
    if B < 100:
        raise ConfigError(f"need B >= 100 bootstrap replicates, got {B}")
    observed = _pipeline(adj, target)
    ratio_obs = observed.moments.estimate(target)
    eg = EmpiricalGraphon(adj)

    def one(r):
        res = resample_network(eg, indices=stream(seed, r).integers(0, adj.n, size=adj.n))
        try:
            ratio_star, s_star = _studentized(res, target)
        except DegenerateError:
            return None
        return (ratio_star - ratio_obs) / s_star

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(B)))
    else:
        results = [one(r) for r in range(B)]

    draws = np.array([t for t in results if t is not None], dtype=np.float64)
    degenerate = B - draws.size
    if degenerate * 2 > B:
        raise DegenerateBootstrapError(
            f"{degenerate}/{B} bootstrap replicates degenerate"
        )
    return BootstrapDistribution(
        draws=draws, B=B, seed=seed, target=target, degenerate_count=degenerate,
        observed=observed,
    )


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
    pipe = dist.observed
    target = dist.target
    estimate = pipe.moments.estimate(target)
    lo, hi = ci_from_draws(estimate, pipe.S_hat, dist.draws, level)
    summary = adj.summarize()
    nulls = _named_nulls(target, summary.negative_fraction)
    p_values = {
        name: _bootstrap_p(dist.draws, (estimate - c) / pipe.S_hat)
        for name, c in nulls.items()
    }
    base = dict(baselines(summary.negative_fraction)) if summary.negative_fraction is not None else {}
    return InferenceReport(
        target=target,
        n=pipe.moments.n,
        U_hat=pipe.moments.numerator(target),
        V_hat=pipe.moments.V_hat,
        estimate=estimate,
        S_hat=pipe.S_hat,
        a_hat=pipe.coef.a_hat,
        b_hat=pipe.coef.b_hat,
        c_hat=pipe.coef.c_hat,
        c_delta=0.0,
        delta_draw=0.0,
        level=level,
        ci_lower=lo,
        ci_upper=hi,
        method="bootstrap",
        p_values=p_values,
        baselines=base,
    )
