"""Sparse signed graphon model: spec objects, builtins, sampler, moments.

Generative model for a network on n nodes:

  X_i  i.i.d. uniform on [0,1]
  edge (i,j) present with probability rho * F(X_i, X_j)
  given an edge, sign is -1 with probability s * G(X_i, X_j), else +1

F and G are symmetric functions [0,1]^2 -> [0,1]; rho and s are global
sparsity scalars.  Spec construction probes symmetry and the [0,1] range on
a fixed grid plus random points and refuses out-of-range combinations; the
sampler re-checks every probability it actually evaluates.

The built-in laws are the rows of `_LAWS`: each gives the law's params,
its sign law G and its rho; `builtin_spec` and `spec_from_json` build them.

Draw order inside sample_network is fixed and documented: n latent
uniforms, then C(n,2) edge uniforms, then C(n,2) sign uniforms, all from
one counter-based stream (see rng module), so samples are reproducible
bit-for-bit from (spec, n, seed).  The pair draws walk the i < j pairs in
row-major order and fill one int8 matrix through its upper-triangle mask on
both storages; `SignedAdjacency` converts it to CSR above `DENSE_THRESHOLD`.
F and G are evaluated, and their range checked, in row blocks of about
_CHUNK pairs, one pass for the edges and one for the signs; that changes
neither the draw order nor a byte of the network, and no C(n,2)-long float
array is formed.

`population_moments` gives the population truth by Monte Carlo over latent
triples, in batches of _BATCH triples evaluated _CHUNK at a time.  Each
chunk's six products are summed as they are formed, in blocks of _BLOCK
triples, in the order einsum sums a whole batch-length column; so its
memory is one chunk's buffers, whatever the budget, and its bytes are those
of summing whole batches.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
    """GraphonRangeError unless every entry of p is in [0,1]: a NaN fails
    both bounds (min and max propagate it) and an infinity one of them."""
    p = np.asarray(p)
    if p.size:
        lo, hi = p.min(), p.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise GraphonRangeError(f"{label} left [0,1] (range [{lo}, {hi}])")


# ------------------------------------------------------------------ builtins


def _cos_sign_law(x, y):
    return 2.0 * np.cos(x**2 + y**2) / 3.0 + 0.3


def _ones(x, y):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def _logistic_sign_law(params):
    def sign_law(x, y, _a=params["alpha"]):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(_a * (x - 0.4) * (y - 0.4)))

    return sign_law


def _root_rho(params):
    k, n = params["k"], params["n"]
    if k <= 0 or n < 2:
        raise ConfigError(f"rho = n^(-1/k) needs k > 0 and n >= 2, got k={k} n={n}")
    return float(n ** (-1.0 / k))


# One row per built-in law: its params as name -> (type, default), a default of
# None marking a required one; its sign law G of the params; its rho of the
# params.  Every law has F = 1, and s = 1 unless the graphon object sets s.
_LAWS = {
    # rho = 0.8 by default; s*G(x,y) = 2 cos(x^2 + y^2)/3 + 0.3
    "const-cos": ({"rho": (float, 0.8)}, lambda p: _cos_sign_law, lambda p: p["rho"]),
    # s*G(x,y) = 1/(1 + exp(alpha (x-0.4)(y-0.4))): alpha = 0 is the balance-free
    # case (every sign fair), larger alpha pushes toward two balanced blocks
    "logistic-balance": ({"alpha": (float, None), "rho": (float, 0.8)}, _logistic_sign_law,
                         lambda p: p["rho"]),
    # the sparse regime rho = n^(-1/k), with the cosine sign law
    "sparse-const": ({"k": (float, None), "n": (int, None)}, lambda p: _cos_sign_law, _root_rho),
}
BUILTIN_NAMES = tuple(_LAWS)


def _convert(kind, value, key):
    """`kind(value)`, or ConfigError naming the key; int refuses a fractional float."""
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}") from None


def _read_graphon(obj, keys=("name", "params", "rho", "s", "n")):
    """The values of a graphon object's `keys`, in order: None where missing,
    and `params` a new dict ({} where missing or null).  ConfigError for a
    non-object, a missing name, a key outside `keys` or `params` neither an
    object nor null."""
    if not isinstance(obj, dict) or obj.get("name") is None:
        raise ConfigError(f"a graphon must be a JSON object with a 'name', keys among {keys}")
    if extra := sorted(set(obj) - set(keys)):
        raise ConfigError(f"unknown graphon keys {extra}, expected some of {keys}")
    params = {} if obj.get("params") is None else obj["params"]
    if not isinstance(params, dict):
        raise ConfigError(f"graphon key 'params' must be an object or null, got {params!r}")
    return tuple(dict(params) if key == "params" else obj.get(key) for key in keys)


def _law_spec(name, params, rho=None, s=None, n=None):
    """The GraphonSpec of the built-in law `name`, built (and probed) once.
    A top-level `rho` is the law's rho param, so it may not be a param too;
    `n` fills an `n` param left unset."""
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown builtin graphon {name!r}, expected one of {BUILTIN_NAMES}")
    declared, sign_law, rho_of = _LAWS[name]
    params = dict(params)
    if rho is not None:
        if "rho" in params:
            raise ConfigError("'rho' is given twice: as the graphon's top-level 'rho' "
                              "and as a param")
        params["rho"] = rho
    if n is not None and "n" in declared:
        params.setdefault("n", n)
    if unknown := sorted(set(params) - set(declared)):
        raise ConfigError(f"{name} got unknown params {unknown}, expected some of {list(declared)}")
    values = {}
    for key, (kind, default) in declared.items():
        if key not in params and default is None:
            raise ConfigError(f"{name} requires params[{key!r}]")
        values[key] = _convert(kind, params.get(key, default), key)
    return GraphonSpec(F=_ones, G=sign_law(values), rho=rho_of(values),
                       s=1.0 if s is None else _convert(float, s, "s"), name=name, params=values)


def builtin_spec(name, params=None):
    """Construct one of the built-in graphon specs by name."""
    return _law_spec(name, params or {})


def spec_from_json(obj):
    """Build (GraphonSpec, n_or_None) from {name, params, rho, s, n}."""
    name, params, rho, s, n = _read_graphon(obj)
    n = None if n is None else _convert(int, n, "n")
    return _law_spec(name, params, rho, s, n), n


# ------------------------------------------------------------------- sampler

_CHUNK = 1 << 14  # pairs or triples per elementwise pass, sized so its temporaries stay in cache


def sample_network(spec, n, seed, return_latent=False):
    """Draw one network; deterministic in (spec, n, seed).

    The pairs are evaluated in blocks of whole rows of about _CHUNK pairs
    (`_row_blocks`), in two passes over the same blocks: the first draws
    the edge uniforms and fills a C(n,2) boolean edge vector, the second
    draws the sign uniforms and writes each block into the int8 matrix.
    Chunked draws from one stream equal one draw of the whole length, so
    the draw order, and the network, do not depend on the block size."""
    if n < 1:
        raise ConfigError(f"need n >= 1 nodes, got n={n}")
    rng = stream(seed)
    x = rng.uniform(size=n)
    bounds = _row_blocks(n)
    # one block (n <= 181) forms its latents once, for both passes
    once = list(_pair_latents(x, bounds)) if len(bounds) == 2 else None
    edge = np.empty(n * (n - 1) // 2, dtype=bool)
    at = 0
    for _, upper, xi, xj in once or _pair_latents(x, bounds):
        np.less(rng.random(size=xi.size), spec.edge_probability(xi, xj),
                out=edge[at:at + xi.size])
        at += xi.size
    mat = np.zeros((n, n), dtype=np.int8)
    at = 0
    for rows, upper, xi, xj in once or _pair_latents(x, bounds):
        neg = rng.random(size=xi.size) < spec.negative_probability(xi, xj)
        block = edge[at:at + xi.size]
        mat[rows][upper] = block.astype(np.int8) - 2 * (block & neg).astype(np.int8)
        at += xi.size
    mat += mat.T
    adj = SignedAdjacency(mat, _validated=True)
    if return_latent:
        return adj, x
    return adj


def _row_blocks(n):
    """The row bounds of the blocks `sample_network` evaluates: whole rows
    of the i < j pairs, a cut after the row that reaches each multiple of
    _CHUNK pairs, so a block holds about _CHUNK pairs (more where one row
    holds more)."""
    pairs = n * (n - 1) // 2
    if pairs <= _CHUNK:
        return [0, n]
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # the pairs in rows 0..i
    cuts = np.searchsorted(ends, np.arange(_CHUNK, pairs, _CHUNK)) + 1
    return np.unique(np.concatenate(([0], cuts, [n]))).tolist()


def _pair_latents(x, bounds):
    """Per row block: its rows as a slice, its upper-triangle mask, and the
    latents (x_i, x_j) of its pairs i < j in row-major order."""
    n = len(x)
    node = np.arange(n)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        upper = node[r0:r1, None] < node
        yield (slice(r0, r1), upper, np.repeat(x[r0:r1], np.arange(n - 1 - r0, n - 1 - r1, -1)),
               np.broadcast_to(x, upper.shape)[upper])


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


_BATCH = 1 << 20  # triples per reduction: the sums are grouped by whole batches
# triples per summation step inside a batch; einsum sums a contiguous float64
# column in steps of this length, in order, so the in-order sum of these
# blocks equals the sum over the whole batch-length column, byte for byte
_BLOCK = 1 << 13


def check_budget(budget):
    if budget < 1_000:
        raise ConfigError(f"population budget must be >= 1000, got {budget}")


def population_moments(spec, budget=10_000_000, seed=0):
    """Monte Carlo over latent triples with the exact conditional sign law.

    Per triple, the triangle probability is the product of the three edge
    probabilities, and the four sign-type probabilities follow the
    independent-Bernoulli algebra of the three pair sign probabilities
    (type t has t-1 negative signs).  Only the latent positions are
    sampled, which removes the network-level noise layer entirely; with a
    constant sign law the type split is exact.

    The triples come in batches of 2^20.  Within a batch they are drawn from
    the one stream and evaluated chunk by chunk (_CHUNK = 2^14 triples at a
    time), so the draws are those of one call per batch.  Each chunk's six
    products (pe, pe*p1..pe*p4, pe*p_bal) fill one reused (6, _CHUNK)
    buffer, which is summed at once in blocks of _BLOCK = 2^13 triples
    (_CHUNK is a multiple of _BLOCK): each block's sums, squares and cross
    sums with pe are added in order into the batch's sums, and those into
    the totals after each batch.  That is the order einsum sums one whole
    batch-length column in, so the bytes are those of summing whole
    batches, while memory is one chunk's buffer and temporaries (a few MB),
    whatever the budget.  The range of every probability is checked per
    chunk; a GraphonRangeError gives the range of the chunk where the check
    fired.
    """
    budget = int(budget)
    check_budget(budget)
    rng = stream(seed)
    sums = np.zeros(6)  # x, y1..y4, y_balanced
    sumsq = np.zeros(6)
    cross = np.zeros(5)  # x*y1..x*y4, x*y_bal
    buf = np.empty((6, min(_CHUNK, budget)))  # pe, pe*p1..pe*p4, pe*pbal of one chunk
    work = np.empty((11, buf.shape[1]))  # the chunk's pair products, as scratch
    done = 0
    while done < budget:
        b = min(_BATCH, budget - done)
        batch_sums, batch_sumsq, batch_cross = np.zeros(6), np.zeros(6), np.zeros(5)
        for lo in range(0, b, _CHUNK):
            m = min(_CHUNK, b - lo)
            cols = buf[:, :m]
            _triple_products(spec, rng.uniform(size=(m, 3)), cols, work[:, :m])
            for k in range(0, m, _BLOCK):
                block = cols[:, k:k + _BLOCK]
                batch_sums += np.einsum("ij->i", block)
                batch_sumsq += np.einsum("ij,ij->i", block, block)
                batch_cross += np.einsum("ij,j->i", block[1:], block[0])
        sums += batch_sums
        sumsq += batch_sumsq
        cross += batch_cross
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


def _triple_products(spec, lat, out, work):
    """pe, pe*p1..pe*p4 and pe*p_bal of the latent triples `lat`, written
    into the rows of `out`, with the 11 rows of `work` as scratch, so that a
    chunk forms no array past those the law's own calls return (fresh
    chunk-length temporaries, freed together, had the allocator hand their
    pages back and fault them in again on every chunk).  The
    probabilities are evaluated, and checked, in the order e12, e23, e13,
    s12, s23, s13.  Each p_t is summed left to right over products of the
    shared pair products t1 t2, s1 t2, t1 s2 and s1 s2 with t3 or s3."""
    x1, x2, x3 = lat[:, 0], lat[:, 1], lat[:, 2]
    pe, p1, p2, p3, p4, pbal = out
    s, t, (tt, st, ts, ss, tmp) = work[:3], work[3:6], work[6:]
    np.multiply(spec.edge_probability(x1, x2), spec.edge_probability(x2, x3), out=pe)
    pe *= spec.edge_probability(x1, x3)
    for row, pair in zip(s, ((x1, x2), (x2, x3), (x1, x3))):
        row[:] = spec.negative_probability(*pair)
    np.subtract(1.0, s, out=t)
    (s1, s2, s3), (t1, t2, t3) = s, t
    for product, a, b in ((tt, t1, t2), (st, s1, t2), (ts, t1, s2), (ss, s1, s2)):
        np.multiply(a, b, out=product)
    for p, terms in ((p1, [(tt, t3)]), (p2, [(st, t3), (ts, t3), (tt, s3)]),
                     (p3, [(ss, t3), (st, s3), (ts, s3)]), (p4, [(ss, s3)])):
        np.multiply(*terms[0], out=p)
        for a, b in terms[1:]:
            p += np.multiply(a, b, out=tmp)
    np.add(p1, p3, out=pbal)
    out[1:] *= pe
