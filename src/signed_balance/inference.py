"""Higher-order inference for the balanced-triangle proportion.

Pipeline, for an observed network A and a target (balanced or one triangle
type):

  counts ->  U = target count / C(n,3),  V = total count / C(n,3)
  plug-in Hoeffding projections
      g1(i) = b_i / C(n-1,2) - U          f1(i) = t_i / C(n-1,2) - V
      q1(i) = g1(i)/V - U f1(i)/V^2       p1(i) = f1(i)/V
      g2(i,j) = pair(i,j)/(n-2) - U - g1(i) - g1(j)   (f2 analogous)
      q2(i,j) = g2(i,j)/V - U f2(i,j)/V^2
  variance   n S^2 = 9 xi1^2,   xi1^2 = mean q1^2
  CDF        G(x) = Phi(x) + phi(x) {a(x^2/3 + 1/6) + b(x^2+1) - 3c x^2}/sqrt(n)
      a = mean q1^3 / xi1^3
      b = (2/(n(n-1))) sum_{i<j} q1(i) q1(j) q2(i,j) / xi1^3
      c = mean(q1 p1) / xi1
  quantiles  q_alpha = z_alpha - {same polynomial at z_alpha}/sqrt(n) - delta
  interval   (ratio - q_{1-a/2} S, ratio - q_{a/2} S)

The studentization assumes a non-degenerate leading projection, xi1 > 0.
Any sign law that does not depend on the latent positions (the sign-fair
`logistic-balance` at alpha = 0, or a constant sign probability) gives
g1 = w f1 in the population, so q1 = 0 and xi1 = 0.  The plug-in xi1^2
then measures only higher-order noise and overstates the variance (about
3x at alpha = 0, n = 160): tests are conservative there, not exact, and
intervals are correspondingly wide.

The optional Gaussian perturbation delta ~ N(0, c_delta log(n)/n) exists to
mirror the construction that needs it in theory; it is off by default
(c_delta = 0) so results are deterministic.

Every caller studentizes through one pipeline, `_pipeline`: census ->
projections (U and V are derived there, once) -> S_hat.  It takes a census
bundle: an observed network's is `full_census(adj)`, counted once per
adjacency and cached on it, so every analysis of one network shares one
count.  Its Edgeworth coefficients are formed only when first read, so a
bootstrap replicate's census needs no pairs.  The pipeline of each target
is kept on the observed bundle (`CensusBundle.pipelines`), so every
analysis of one network also shares one studentization per target: one
set of projections, one variance check and one set of coefficients, for
six length-n float arrays per target read while the adjacency lives.  A
replicate's census, without pairs, keeps none; a degenerate target is not
kept and raises on every call.
`Pipeline.coefficients` is the one place a method name is checked and its
terms chosen (its own for edgeworth, zero for normal), beside the one list
of those names, `EXPANSION_METHODS`; the census checks target names.
Every interval and p-value refers T to one law with `cdf`, `tails` and
`quantile` (these coefficients, zero for the normal, or
`bootstrap.BootstrapDistribution`) through one `_interval`, `_p_value` and
`_report`; only `_interval` applies the delta shift.

The pairwise sum in b is evaluated without materializing q2, via
q2(i,j) = W(i,j)/(n-2) - q1(i) - q1(j) with W = pair_bal/V - U pair_tot/V^2,
which collapses the double sum to one quadratic form q1' W q1.  The pair
projection supplies q1' pair_tot q1 and q1' pair_bal q1 straight from the
census products (`PairProjection.quadratic`), so no per-pair matrix is
built.  Float reductions go through np.einsum (fixed order) so results do
not depend on BLAS thread count.

The normal cdf and quantile are `_normal.ndtr` and `_normal.ndtri`, ports
of the Cephes routines scipy.special uses, equal to scipy's bit for bit, so
a dense analysis loads no scipy module.
"""

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from ._normal import ndtr, ndtri
from .census import _type_index, full_census
from .errors import ConfigError, DegenerateVarianceError, NoTriangleError
from .rng import stream

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _comb2(m):
    return m * (m - 1) // 2


def _comb3(m):
    return m * (m - 1) * (m - 2) // 6


# ------------------------------------------------------------------- moments


@dataclass(frozen=True)
class Moments:
    n: int
    U_hat: float
    V_hat: float
    ratio: float


def sample_moments(census):
    n = census.n
    if n < 3:
        # fewer than 3 nodes cannot hold a triangle; same failure class
        raise NoTriangleError(f"inference needs n >= 3 nodes, got n={n}")
    if census.total == 0:
        raise NoTriangleError("network has no triangles; moment ratio undefined")
    c3 = _comb3(n)
    return Moments(
        n=n,
        U_hat=census.balanced / c3,
        V_hat=census.total / c3,
        ratio=census.balanced / census.total,
    )


# --------------------------------------------------------------- projections


@dataclass(frozen=True)
class Projections:
    """Plug-in Hoeffding projections for one target."""

    target: str
    n: int
    U: float
    V: float
    q1: np.ndarray
    p1: np.ndarray
    xi1_sq: float
    g1: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    node_target: np.ndarray = field(repr=False)
    node_total: np.ndarray = field(repr=False)
    pair: object = field(repr=False)

    @property
    def q2(self):
        """Dense per-pair q2 matrix (zero diagonal by convention)."""
        pt = _to_dense(self.pair.for_target(self.target)).astype(np.float64)
        tt = _to_dense(self.pair.triangles).astype(np.float64)
        g2 = pt / (self.n - 2) - self.U - self.g1[:, None] - self.g1[None, :]
        f2 = tt / (self.n - 2) - self.V - self.f1[:, None] - self.f1[None, :]
        q2 = g2 / self.V - self.U * f2 / self.V**2
        np.fill_diagonal(q2, 0.0)
        return q2


def _to_dense(mat):
    if isinstance(mat, np.ndarray):
        return mat
    return np.asarray(mat.todense())


def projections(census, node, pair, target="balanced"):
    count = census.for_target(target)
    v = sample_moments(census).V_hat  # NoTriangleError below 3 nodes or without triangles
    n = census.n
    c2 = _comb2(n - 1)
    u = count / _comb3(n)
    node_target = node.for_target(target).astype(np.float64)
    node_total = node.triangles.astype(np.float64)
    g1 = node_target / c2 - u
    f1 = node_total / c2 - v
    q1 = g1 / v - u * f1 / v**2
    p1 = f1 / v
    xi1_sq = float(np.einsum("i,i->", q1, q1)) / n
    return Projections(
        target=target,
        n=n,
        U=u,
        V=v,
        q1=q1,
        p1=p1,
        xi1_sq=xi1_sq,
        g1=g1,
        f1=f1,
        node_target=node_target,
        node_total=node_total,
        pair=pair,
    )


# ------------------------------------------------------------------ variance


def variance_estimator(proj):
    """S_hat with n S^2 = 9 xi1^2; cross-checked against the bracket form.

    The bracket form divides the raw per-node counts directly,
    (b_i/V - U t_i/V^2)/C(n-1,2); it is the same quantity as q1 after the
    centering terms cancel, and the two are required to agree to 1e-12.
    """
    c2 = _comb2(proj.n - 1)
    term_pos = proj.node_target / proj.V
    term_neg = proj.U * proj.node_total / proj.V**2
    bracket = (term_pos - term_neg) / c2
    ns2_bracket = 9.0 * float(np.einsum("i,i->", bracket, bracket)) / proj.n
    ns2 = 9.0 * proj.xi1_sq
    # scale of the terms whose difference forms the bracket; anything at
    # rounding distance below it is a mathematically-zero variance
    gross = (term_pos + term_neg) / c2
    floor = (1e-12 ** 2) * 9.0 * float(np.einsum("i,i->", gross, gross)) / proj.n
    if ns2 <= floor and ns2_bracket <= floor:
        raise DegenerateVarianceError(
            "xi1_hat = 0: all per-node projections vanish; "
            "the studentized statistic is undefined"
        )
    if not math.isclose(ns2_bracket, ns2, rel_tol=1e-12, abs_tol=1e-300):
        raise AssertionError(
            f"variance forms disagree: bracket {ns2_bracket!r} vs 9*xi1^2 {ns2!r}"
        )
    return math.sqrt(ns2 / proj.n)


# ------------------------------------------------------- Edgeworth machinery


@dataclass(frozen=True)
class EdgeworthCoefficients:
    """The empirical Edgeworth law of T; zero coefficients give the normal law."""

    a_hat: float
    b_hat: float
    c_hat: float
    n: int

    def cdf(self, x):
        return edgeworth_cdf(x, self)

    def tails(self, t):
        """(P(T <= t), P(T >= t))."""
        lower = self.cdf(t)
        return lower, 1.0 - lower

    def quantile(self, p):
        return cornish_fisher_quantile(p, self)


def edgeworth_coefficients(proj):
    if proj.xi1_sq <= 0.0:
        raise DegenerateVarianceError("xi1_hat = 0: Edgeworth coefficients undefined")
    if proj.pair is None:
        raise ConfigError("pair projection required for the b coefficient")
    n = proj.n
    q1 = proj.q1
    xi = math.sqrt(proj.xi1_sq)
    a_hat = float(np.einsum("i,i,i->", q1, q1, q1)) / n / xi**3
    c_hat = float(np.einsum("i,i->", q1, proj.p1)) / n / xi
    # sum_{i<j} q1 q1 q2 via q2(i,j) = W(i,j)/(n-2) - q1(i) - q1(j)
    total_form, target_form = proj.pair.quadratic(proj.target, q1)
    quad = (target_form / proj.V - total_form * (proj.U / proj.V**2)) / 2.0
    s1 = float(np.einsum("i->", q1))
    s2 = float(np.einsum("i,i->", q1, q1))
    s3 = float(np.einsum("i,i,i->", q1, q1, q1))
    pair_sum = quad / (n - 2) - (s2 * s1 - s3)
    b_hat = 2.0 / (n * (n - 1)) * pair_sum / xi**3
    return EdgeworthCoefficients(
        a_hat=a_hat,
        b_hat=b_hat,
        c_hat=c_hat,
        n=n,
    )


def _polynomial(x, coef):
    return (
        coef.a_hat * (x * x / 3.0 + 1.0 / 6.0)
        + coef.b_hat * (x * x + 1.0)
        - 3.0 * coef.c_hat * x * x
    )


def edgeworth_cdf(x, coef):
    """Empirical Edgeworth CDF value(s) at x, clamped to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.exp(-x * x / 2.0) / SQRT_2PI
    cdf = np.array([ndtr(v) for v in x.ravel().tolist()]).reshape(x.shape)
    val = cdf + phi * _polynomial(x, coef) / math.sqrt(coef.n)
    out = np.clip(val, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def cornish_fisher_quantile(alpha, coef):
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"quantile level must be in (0,1), got {alpha}")
    z = ndtri(float(alpha))
    return float(z - _polynomial(z, coef) / math.sqrt(coef.n))


# ----------------------------------------------------------------- baselines


def baselines(s):
    """Balance-free reference values given a negative-edge fraction s."""
    if not 0.0 <= s <= 1.0:
        raise ConfigError(f"negative fraction must be in [0,1], got {s}")
    t = 1.0 - s
    return {
        "baseline50": 0.5,
        "baseline25": 0.25,
        "adjusted_balanced": t**3 + 3.0 * s**2 * t,
        "adjusted_type1": t**3,
        "adjusted_type2": 3.0 * s * t**2,
        "adjusted_type3": 3.0 * s**2 * t,
        "adjusted_type4": s**3,
    }


def adjusted_null(target, s):
    _type_index(target)  # ConfigError for an unknown target
    return baselines(s)[f"adjusted_{target}"]


# -------------------------------------------------------------------- report


@dataclass(frozen=True)
class InferenceReport:
    target: str
    n: int
    U_hat: float
    V_hat: float
    estimate: float
    S_hat: float
    a_hat: float
    b_hat: float
    c_hat: float
    c_delta: float
    delta_draw: float
    level: float
    ci_lower: float
    ci_upper: float
    method: str
    p_values: dict
    baselines: dict

    def to_dict(self):
        return asdict(self)


# The methods whose law is an Edgeworth expansion; `bootstrap.METHODS` adds one.
EXPANSION_METHODS = ("edgeworth", "normal")


@dataclass(frozen=True)
class Pipeline:
    """The studentized statistic of one network and target.

    The Edgeworth coefficients are formed when first read, so a census
    without pairs serves every caller that reads only the estimate and S_hat.
    """

    proj: Projections
    S_hat: float

    @property
    def estimate(self):
        return self.proj.U / self.proj.V

    @cached_property
    def coef(self):
        return edgeworth_coefficients(self.proj)

    def coefficients(self, method):
        """The Edgeworth terms `method` reads: its own for edgeworth, zero for normal."""
        if method == "edgeworth":
            return self.coef
        if method == "normal":
            return EdgeworthCoefficients(0.0, 0.0, 0.0, self.proj.n)
        raise ConfigError(f"method must be {'|'.join(EXPANSION_METHODS)}, got {method!r}")


def _pipeline(bundle, target):
    """The pipeline of the network counted in `bundle`: an observed network's
    `full_census(adj)`, or a bootstrap replicate's census without pairs.

    A bundle with pairs keeps each target's pipeline, Edgeworth coefficients
    included once read, so later calls return it; a degenerate target is
    not kept and raises again.  A bundle without pairs neither reads nor
    fills the memo."""
    memo = bundle.pipelines if bundle.pair is not None else {}
    pipe = memo.get(target)
    if pipe is None:
        proj = projections(bundle.census, bundle.node, bundle.pair, target)
        pipe = memo[target] = Pipeline(proj=proj, S_hat=variance_estimator(proj))
    return pipe


def check_level(level):
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0,1), got {level}")


def check_c_delta(c_delta, methods=()):
    """The perturbation scale c_delta must be a finite number >= 0, and 0
    when `methods` holds the bootstrap: the delta draw would read the
    stream of its replicate 0."""
    if not (math.isfinite(c_delta) and c_delta >= 0.0):
        raise ConfigError(f"c_delta must be a finite number >= 0, got {c_delta}")
    if c_delta > 0.0 and "bootstrap" in methods:
        raise ConfigError(f"c_delta must be 0 with the bootstrap method, got {c_delta}")


def check_threads(threads):
    """Thread counts are accepted for compatibility; every study runs on one."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


def _p_value(t, law, alternative):
    lower, upper = law.tails(t)
    if alternative == "greater":
        p = upper
    elif alternative == "less":
        p = lower
    elif alternative == "two-sided":
        p = 2.0 * min(upper, lower)
    else:
        raise ConfigError(
            f"alternative must be greater|less|two-sided, got {alternative!r}"
        )
    return float(min(max(p, 0.0), 1.0))


def _delta_draw(n, c_delta, seed):
    """The optional perturbation delta ~ N(0, c_delta log(n)/n); 0 unless c_delta > 0."""
    if c_delta > 0.0:
        return float(stream(seed).normal(0.0, math.sqrt(c_delta * math.log(n) / n)))
    return 0.0


def _interval(pipe, law, level, delta_draw=0.0):
    """(lower, upper) from the quantiles of `law`, each shifted by `delta_draw`."""
    alpha = 1.0 - level
    q_hi = law.quantile(1.0 - alpha / 2.0) - delta_draw
    q_lo = law.quantile(alpha / 2.0) - delta_draw
    return pipe.estimate - q_hi * pipe.S_hat, pipe.estimate - q_lo * pipe.S_hat


def _named_nulls(target, neg_fraction):
    nulls = {}
    if target == "balanced":
        nulls["baseline50"] = 0.5
    if target == "type2":
        nulls["baseline25"] = 0.25
    if neg_fraction is not None:
        nulls["adjusted"] = adjusted_null(target, neg_fraction)
    return nulls


def _report(adj, pipe, level, method, law, c_delta=0.0, delta_draw=0.0):
    """The InferenceReport of `pipe`, its interval and two-sided p-values
    referred to `law`."""
    target = pipe.proj.target
    lower, upper = _interval(pipe, law, level, delta_draw)
    neg_fraction = adj.summarize().negative_fraction
    nulls = _named_nulls(target, neg_fraction)
    return InferenceReport(
        target=target,
        n=pipe.proj.n,
        U_hat=pipe.proj.U,
        V_hat=pipe.proj.V,
        estimate=pipe.estimate,
        S_hat=pipe.S_hat,
        a_hat=pipe.coef.a_hat,
        b_hat=pipe.coef.b_hat,
        c_hat=pipe.coef.c_hat,
        c_delta=c_delta,
        delta_draw=delta_draw,
        level=level,
        ci_lower=lower,
        ci_upper=upper,
        method=method,
        p_values={name: _p_value((pipe.estimate - c) / pipe.S_hat, law, "two-sided")
                  for name, c in nulls.items()},
        baselines=baselines(neg_fraction) if neg_fraction is not None else {},
    )


def confidence_interval(
    adj, level=0.95, target="balanced", method="edgeworth", c_delta=0.0, seed=0
):
    """Cornish-Fisher (or plain normal) interval plus the full report."""
    check_level(level)
    check_c_delta(c_delta)
    pipe = _pipeline(full_census(adj), target)
    delta_draw = _delta_draw(pipe.proj.n, c_delta, seed)
    return _report(adj, pipe, level, method, pipe.coefficients(method), c_delta, delta_draw)


@dataclass(frozen=True)
class BalanceTest:
    target: str
    n: int
    estimate: float
    S_hat: float
    null_value: float
    alternative: str
    statistic: float
    p_value: float
    method: str

    def to_dict(self):
        return asdict(self)


def balance_test(
    adj, null_value, alternative="greater", target="balanced", method="edgeworth"
):
    """p-value for H0: w = null_value against the chosen alternative.

    One-sided p-values are tail probabilities of the empirical Edgeworth CDF
    (upper tail for the 'greater' alternative); two-sided doubles the
    smaller tail and clamps.

    The nominal level holds only when xi1 > 0. Under a sign law that does not depend on the latent positions
    (e.g. `logistic-balance` at alpha = 0) xi1 = 0, S_hat overstates the
    spread, and the test is conservative: at n = 160 a nominal 0.05
    one-sided test rejects about 0.003 of the time.
    """
    null_value = float(null_value)
    if not math.isfinite(null_value):
        raise ConfigError(f"null value must be a finite number, got {null_value}")
    pipe = _pipeline(full_census(adj), target)
    t = (pipe.estimate - null_value) / pipe.S_hat
    p = _p_value(t, pipe.coefficients(method), alternative)
    return BalanceTest(
        target=target,
        n=pipe.proj.n,
        estimate=pipe.estimate,
        S_hat=pipe.S_hat,
        null_value=null_value,
        alternative=alternative,
        statistic=t,
        p_value=p,
        method=method,
    )
