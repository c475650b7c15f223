"""Sparse signed graphon model: spec objects, builtins, sampler, moments.

Generative model for a network on n nodes:

  X_i  i.i.d. uniform on [0,1]
  edge (i,j) present with probability rho * F(X_i, X_j)
  given an edge, sign is -1 with probability s * G(X_i, X_j), else +1

F and G are symmetric functions [0,1]^2 -> [0,1]; rho and s are global
sparsity scalars.  Spec construction probes symmetry and the [0,1] range on
a fixed grid plus random points and refuses out-of-range combinations; the
sampler re-checks every probability it actually evaluates.

Built-in specs:

  const-cos         F = 1, rho = 0.8 (params: rho), sign law
                    s*G(x,y) = 2 cos(x^2 + y^2)/3 + 0.3
  logistic-balance  sign law s*G(x,y) = 1/(1 + exp(alpha (x-0.4)(y-0.4))),
                    params: alpha (required), rho (default 0.8); alpha = 0
                    is the balance-free case (every sign fair), larger
                    alpha pushes toward a two-block balanced structure
  sparse-const      F = 1, rho = n^(-1/k), params: k and n (required),
                    same cosine sign law as const-cos

Draw order inside sample_network is fixed and documented: n latent
uniforms, then C(n,2) edge uniforms, then C(n,2) sign uniforms, all from
one counter-based stream (see rng module), so samples are reproducible
bit-for-bit from (spec, n, seed).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, GraphonRangeError, NoTriangleError
from .graph import SignedAdjacency
from .rng import stream

_PROBE_SEED = 0x5EC7E7


def _probe_points(count=256):
    rng = stream(_PROBE_SEED)
    x = rng.uniform(size=count)
    y = rng.uniform(size=count)
    corners = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    gx, gy = np.meshgrid(corners, corners)
    return np.concatenate([x, gx.ravel()]), np.concatenate([y, gy.ravel()])


@dataclass(frozen=True)
class GraphonSpec:
    F: object
    G: object
    rho: float
    s: float
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise GraphonRangeError(f"rho must be in (0,1], got {self.rho}")
        if not 0.0 < self.s <= 1.0:
            raise GraphonRangeError(f"s must be in (0,1], got {self.s}")
        x, y = _probe_points()
        fxy = np.asarray(self.F(x, y), dtype=np.float64)
        fyx = np.asarray(self.F(y, x), dtype=np.float64)
        gxy = np.asarray(self.G(x, y), dtype=np.float64)
        gyx = np.asarray(self.G(y, x), dtype=np.float64)
        if not np.allclose(fxy, fyx, atol=1e-12):
            raise GraphonRangeError("F is not symmetric at probed points")
        if not np.allclose(gxy, gyx, atol=1e-12):
            raise GraphonRangeError("G is not symmetric at probed points")
        _check_probabilities(self.rho * fxy, "rho*F")
        _check_probabilities(self.s * gxy, "s*G")

    def edge_probability(self, x, y):
        p = self.rho * np.asarray(self.F(x, y), dtype=np.float64)
        _check_probabilities(p, "rho*F")
        return p

    def negative_probability(self, x, y):
        p = self.s * np.asarray(self.G(x, y), dtype=np.float64)
        _check_probabilities(p, "s*G")
        return p


def _check_probabilities(p, label):
    p = np.asarray(p)
    if p.size and (not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0):
        raise GraphonRangeError(f"{label} left [0,1] (range [{p.min()}, {p.max()}])")


# ------------------------------------------------------------------ builtins


def _cos_sign_law(x, y):
    return 2.0 * np.cos(x**2 + y**2) / 3.0 + 0.3


def _ones(x, y):
    return np.ones_like(np.asarray(x, dtype=np.float64))


BUILTIN_NAMES = ("const-cos", "logistic-balance", "sparse-const")


def builtin_spec(name, params=None):
    """Construct one of the built-in graphon specs by name."""
    params = dict(params or {})
    if name == "const-cos":
        rho = float(params.pop("rho", 0.8))
        if params:
            raise ConfigError(f"const-cos got unknown params {sorted(params)}")
        return GraphonSpec(
            F=_ones, G=_cos_sign_law, rho=rho, s=1.0, name=name, params={"rho": rho}
        )
    if name == "logistic-balance":
        if "alpha" not in params:
            raise ConfigError("logistic-balance requires params['alpha']")
        alpha = float(params.pop("alpha"))
        rho = float(params.pop("rho", 0.8))
        if params:
            raise ConfigError(f"logistic-balance got unknown params {sorted(params)}")

        def sign_law(x, y, _a=alpha):
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(_a * (x - 0.4) * (y - 0.4)))

        return GraphonSpec(
            F=_ones, G=sign_law, rho=rho, s=1.0, name=name,
            params={"alpha": alpha, "rho": rho},
        )
    if name == "sparse-const":
        if "k" not in params or "n" not in params:
            raise ConfigError("sparse-const requires params['k'] and params['n']")
        k = float(params.pop("k"))
        n = int(params.pop("n"))
        if params:
            raise ConfigError(f"sparse-const got unknown params {sorted(params)}")
        if k <= 0 or n < 2:
            raise ConfigError(f"sparse-const needs k > 0 and n >= 2, got k={k} n={n}")
        rho = float(n ** (-1.0 / k))
        return GraphonSpec(
            F=_ones, G=_cos_sign_law, rho=rho, s=1.0, name=name,
            params={"k": k, "n": n},
        )
    raise ConfigError(f"unknown builtin graphon {name!r}, expected one of {BUILTIN_NAMES}")


def spec_from_json(obj):
    """Build (GraphonSpec, n_or_None) from {name, params, rho, s, n}."""
    if not isinstance(obj, dict):
        raise ConfigError("graphon spec JSON must be an object")
    name = obj.get("name")
    if name is None:
        raise ConfigError("graphon spec JSON needs a 'name'")
    params = dict(obj.get("params") or {})
    n = obj.get("n")
    if name == "sparse-const" and n is not None:
        params.setdefault("n", n)
    spec = builtin_spec(name, params)
    rho = obj.get("rho")
    s = obj.get("s")
    if rho is not None or s is not None:
        spec = GraphonSpec(
            F=spec.F,
            G=spec.G,
            rho=float(rho) if rho is not None else spec.rho,
            s=float(s) if s is not None else spec.s,
            name=spec.name,
            params=spec.params,
        )
    return spec, (int(n) if n is not None else None)


# ------------------------------------------------------------------- sampler


def sample_network(spec, n, seed, return_latent=False, dense_threshold=None):
    """Draw one network; deterministic in (spec, n, seed)."""
    if n < 1:
        raise ConfigError(f"need n >= 1 nodes, got n={n}")
    from .graph import DENSE_THRESHOLD

    threshold = DENSE_THRESHOLD if dense_threshold is None else dense_threshold
    rng = stream(seed)
    x = rng.uniform(size=n)
    # pair latents for i < j in row-major order, the order of np.triu_indices
    # and of a boolean upper-triangle mask
    xi = np.repeat(x, np.arange(n - 1, -1, -1))
    if n <= threshold:
        node = np.arange(n)
        upper = node[:, None] < node
        xj = np.broadcast_to(x, (n, n))[upper]
    else:
        iu, ju = np.triu_indices(n, k=1)
        xj = x[ju]
    edge = rng.random(size=xi.size) < spec.edge_probability(xi, xj)
    neg = rng.random(size=xi.size) < spec.negative_probability(xi, xj)
    vals = edge.astype(np.int8) - 2 * (edge & neg).astype(np.int8)

    if n <= threshold:
        mat = np.zeros((n, n), dtype=np.int8)
        mat[upper] = vals
        mat += mat.T
    else:
        keep = vals != 0
        r, c, v = iu[keep], ju[keep], vals[keep]
        mat = sp.csr_matrix(
            (np.concatenate([v, v]), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=(n, n),
            dtype=np.int8,
        )
    adj = SignedAdjacency(mat, dense_threshold=threshold, _validated=True)
    if return_latent:
        return adj, x
    return adj


# ---------------------------------------------------------- population truth


@dataclass(frozen=True)
class PopulationMoments:
    u: float
    v: float
    w: float
    w_t: tuple
    mc_se: dict

    def to_dict(self):
        return {
            "u": self.u,
            "v": self.v,
            "w": self.w,
            "w_t": list(self.w_t),
            "mc_se": dict(self.mc_se),
        }


_BATCH = 1 << 20


def population_moments(spec, budget=10_000_000, seed=0):
    """Monte Carlo over latent triples with the exact conditional sign law.

    Per triple, the triangle probability is the product of the three edge
    probabilities, and the four sign-type probabilities follow the
    independent-Bernoulli algebra of the three pair sign probabilities
    (type t has t-1 negative signs).  Only the latent positions are
    sampled, which removes the network-level noise layer entirely; with a
    constant sign law the type split is exact.
    """
    budget = int(budget)
    if budget < 1_000:
        raise ConfigError(f"population budget must be >= 1000, got {budget}")
    rng = stream(seed)
    sums = np.zeros(6)  # x, y1..y4, y_balanced
    sumsq = np.zeros(6)
    cross = np.zeros(5)  # x*y1..x*y4, x*y_bal
    done = 0
    while done < budget:
        b = min(_BATCH, budget - done)
        lat = rng.uniform(size=(b, 3))
        x1, x2, x3 = lat[:, 0], lat[:, 1], lat[:, 2]
        pe = (
            spec.edge_probability(x1, x2)
            * spec.edge_probability(x2, x3)
            * spec.edge_probability(x1, x3)
        )
        s1 = spec.negative_probability(x1, x2)
        s2 = spec.negative_probability(x2, x3)
        s3 = spec.negative_probability(x1, x3)
        t1, t2, t3 = 1.0 - s1, 1.0 - s2, 1.0 - s3
        p1 = t1 * t2 * t3
        p2 = s1 * t2 * t3 + t1 * s2 * t3 + t1 * t2 * s3
        p3 = s1 * s2 * t3 + s1 * t2 * s3 + t1 * s2 * s3
        p4 = s1 * s2 * s3
        pbal = p1 + p3
        cols = (pe, pe * p1, pe * p2, pe * p3, pe * p4, pe * pbal)
        for idx, col in enumerate(cols):
            sums[idx] += float(np.einsum("i->", col))
            sumsq[idx] += float(np.einsum("i,i->", col, col))
            if idx > 0:
                cross[idx - 1] += float(np.einsum("i,i->", col, cols[0]))
        done += b

    means = sums / budget
    v = means[0]
    if v <= 0.0:
        raise NoTriangleError("graphon admits no triangles (v = 0)")
    u_t = tuple(means[1:5])
    w_t = tuple(ut / v for ut in u_t)
    w = w_t[0] + w_t[2]
    u = u_t[0] + u_t[2]

    def sd(idx):
        var = sumsq[idx] / budget - means[idx] ** 2
        return math.sqrt(max(var, 0.0) / budget)

    def ratio_se(idx, ratio):
        # delta method for mean(y)/mean(x)
        var_y = sumsq[idx] / budget - means[idx] ** 2
        var_x = sumsq[0] / budget - v**2
        cov = cross[idx - 1] / budget - means[idx] * v
        var = (var_y - 2.0 * ratio * cov + ratio**2 * var_x) / budget
        return math.sqrt(max(var, 0.0)) / v

    mc_se = {
        "u": sd(5),
        "v": sd(0),
        "w": ratio_se(5, w),
        "w_t": [ratio_se(i, w_t[i - 1]) for i in range(1, 5)],
    }
    return PopulationMoments(u=u, v=v, w=w, w_t=w_t, mc_se=mc_se)
