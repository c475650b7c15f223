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

The pairwise sum in b is evaluated without materializing q2, via
q2(i,j) = W(i,j)/(n-2) - q1(i) - q1(j) with W = pair_bal/V - U pair_tot/V^2,
which collapses the double sum to one quadratic form q1' W q1.  The pair
projection supplies q1' pair_tot q1 and q1' pair_bal q1 straight from the
census products (`PairProjection.quadratic`), so no per-pair matrix is
built.  Float reductions go through np.einsum (fixed order) so results do
not depend on BLAS thread count.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtr, ndtri

from .census import TARGETS, full_census
from .errors import ConfigError, DegenerateVarianceError, NoTriangleError
from .rng import stream

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _comb2(m):
    return m * (m - 1) // 2


def _comb3(m):
    return m * (m - 1) * (m - 2) // 6


def _check_target(target):
    if target not in TARGETS:
        raise ConfigError(f"unknown target {target!r}, expected one of {TARGETS}")


# ------------------------------------------------------------------- moments


@dataclass(frozen=True)
class Moments:
    n: int
    U_hat: float
    V_hat: float
    U_hat_t: tuple
    ratio: float

    @property
    def ratio_by_type(self):
        return tuple(u / self.V_hat for u in self.U_hat_t)

    def numerator(self, target):
        if target == "balanced":
            return self.U_hat
        return self.U_hat_t[int(target[-1]) - 1]

    def estimate(self, target):
        return self.numerator(target) / self.V_hat


def sample_moments(census, n=None):
    n = census.n if n is None else n
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
        U_hat_t=tuple(c / c3 for c in census.by_type),
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
    if sp.issparse(mat):
        return np.asarray(mat.todense())
    return np.asarray(mat)


def projections(census, node, pair, target="balanced"):
    _check_target(target)
    n = census.n
    if n < 3:
        raise ConfigError(f"projections need n >= 3 nodes, got n={n}")
    if census.total == 0:
        raise NoTriangleError("network has no triangles; projections undefined")
    c2 = _comb2(n - 1)
    c3 = _comb3(n)
    v = census.total / c3
    u = (census.balanced if target == "balanced" else census.by_type[int(target[-1]) - 1]) / c3
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
    a_hat: float
    b_hat: float
    c_hat: float
    n: int
    delta_var: float = 0.0


def edgeworth_coefficients(proj, c_delta=0.0):
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
        delta_var=c_delta * math.log(n) / n,
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
    val = ndtr(x) + phi * _polynomial(x, coef) / math.sqrt(coef.n)
    out = np.clip(val, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def cornish_fisher_quantile(alpha, coef, delta_draw=0.0):
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"quantile level must be in (0,1), got {alpha}")
    z = ndtri(alpha)
    return float(z - _polynomial(z, coef) / math.sqrt(coef.n) - delta_draw)


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
    _check_target(target)
    key = "adjusted_balanced" if target == "balanced" else f"adjusted_{target}"
    return baselines(s)[key]


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
        return {
            "target": self.target,
            "n": self.n,
            "U_hat": self.U_hat,
            "V_hat": self.V_hat,
            "estimate": self.estimate,
            "S_hat": self.S_hat,
            "a_hat": self.a_hat,
            "b_hat": self.b_hat,
            "c_hat": self.c_hat,
            "c_delta": self.c_delta,
            "delta_draw": self.delta_draw,
            "level": self.level,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "method": self.method,
            "p_values": dict(self.p_values),
            "baselines": dict(self.baselines),
        }


@dataclass(frozen=True)
class Pipeline:
    """Everything the report assembly needs, computed once."""

    moments: Moments
    proj: Projections
    S_hat: float
    coef: EdgeworthCoefficients

    @property
    def estimate(self):
        return self.moments.estimate(self.proj.target)


def _pipeline(adj, target, bundle=None):
    """The pipeline of `adj`; `bundle`, if given, is its census with pairs."""
    _check_target(target)
    if bundle is None:
        bundle = full_census(adj, with_pairs=True)
    moments = sample_moments(bundle.census)
    proj = projections(bundle.census, bundle.node, bundle.pair, target)
    s_hat = variance_estimator(proj)
    coef = edgeworth_coefficients(proj)
    return Pipeline(moments=moments, proj=proj, S_hat=s_hat, coef=coef)


def check_level(level):
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0,1), got {level}")


def check_threads(threads):
    """Thread counts are accepted for compatibility; every study runs on one."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


def _null_coefficients(n):
    return EdgeworthCoefficients(0.0, 0.0, 0.0, n, 0.0)


def _cdf_for_method(t, coef, method):
    if method == "normal":
        return edgeworth_cdf(t, _null_coefficients(coef.n))
    return edgeworth_cdf(t, coef)


def _p_value(t, coef, method, alternative):
    lower = _cdf_for_method(t, coef, method)
    upper = 1.0 - lower
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


def _interval(pipe, level, method, delta_draw=0.0):
    """(lower, upper) from Cornish-Fisher ("edgeworth") or normal quantiles."""
    alpha = 1.0 - level
    coef = pipe.coef if method == "edgeworth" else _null_coefficients(pipe.coef.n)
    q_hi = cornish_fisher_quantile(1.0 - alpha / 2.0, coef, delta_draw)
    q_lo = cornish_fisher_quantile(alpha / 2.0, coef, delta_draw)
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


def confidence_interval(
    adj, level=0.95, target="balanced", method="edgeworth", c_delta=0.0, seed=0
):
    """Cornish-Fisher (or plain normal) interval plus the full report."""
    check_level(level)
    if method not in ("edgeworth", "normal"):
        raise ConfigError(f"method must be edgeworth|normal, got {method!r}")
    pipe = _pipeline(adj, target)
    coef = pipe.coef
    delta_draw = _delta_draw(pipe.moments.n, c_delta, seed)
    lo, hi = _interval(pipe, level, method, delta_draw)
    estimate = pipe.estimate
    summary = adj.summarize()
    nulls = _named_nulls(target, summary.negative_fraction)
    p_values = {
        name: _p_value((estimate - c) / pipe.S_hat, coef, method, "two-sided")
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
        a_hat=coef.a_hat,
        b_hat=coef.b_hat,
        c_hat=coef.c_hat,
        c_delta=c_delta,
        delta_draw=delta_draw,
        level=level,
        ci_lower=lo,
        ci_upper=hi,
        method=method,
        p_values=p_values,
        baselines=base,
    )


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
        return {
            "target": self.target,
            "n": self.n,
            "estimate": self.estimate,
            "S_hat": self.S_hat,
            "null_value": self.null_value,
            "alternative": self.alternative,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
        }


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
    if method not in ("edgeworth", "normal"):
        raise ConfigError(f"method must be edgeworth|normal, got {method!r}")
    null_value = float(null_value)
    pipe = _pipeline(adj, target)
    estimate = pipe.moments.estimate(target)
    t = (estimate - null_value) / pipe.S_hat
    p = _p_value(t, pipe.coef, method, alternative)
    return BalanceTest(
        target=target,
        n=pipe.moments.n,
        estimate=estimate,
        S_hat=pipe.S_hat,
        null_value=null_value,
        alternative=alternative,
        statistic=t,
        p_value=p,
        method=method,
    )
