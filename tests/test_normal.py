"""The in-package normal cdf and quantile equal scipy.special's, bit for bit."""

import math

import numpy as np
import pytest
from scipy import special

from signed_balance._normal import ndtr, ndtri

SQRT2 = math.sqrt(2.0)
EXP_M2 = 0.13533528323661269189


def _same(got, want):
    """Exact float equality, the sign of a zero included; nan equals nan."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _around(points):
    """Each point and its two neighbouring floats."""
    return [y for x in points for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-300, 1.0 - 2.0**-53]

# ndtr: |x|/sqrt(2) = 1/sqrt(2) picks erf or erfc; erfc switches at 1 and
# at 8, and underflows past x^2 = log(DBL_MAX)
NDTR_EDGES = _around([s * x for s in (1.0, -1.0)
                      for x in (1.0, SQRT2, 8.0 * SQRT2, math.sqrt(7.09782712893383996843e2) * SQRT2)])
# ndtri: the middle branch between exp(-2) and 1 - exp(-2); in the tails,
# x = sqrt(-2 log y) = 8 at y = exp(-32)
NDTRI_EDGES = _around([EXP_M2, 1.0 - EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5])


def _ndtr_grid():
    rng = np.random.default_rng(2024)
    return np.concatenate([rng.normal(size=20_000), rng.uniform(-40.0, 40.0, 20_000),
                           np.linspace(-10.0, 10.0, 20_001)])


def _ndtri_grid():
    rng = np.random.default_rng(2024)
    return np.concatenate([rng.uniform(size=20_000), 10.0 ** rng.uniform(-300.0, -1.0, 10_000),
                           1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 10_000)])


@pytest.mark.parametrize("points", [_ndtr_grid(), NDTR_EDGES, SPECIAL],
                         ids=["seeded-grid", "branch-edges", "special"])
def test_ndtr_equals_scipy_bitwise(points):
    bad = [x for x in map(float, points) if not _same(ndtr(x), float(special.ndtr(x)))]
    assert bad == []


@pytest.mark.parametrize("points", [_ndtri_grid(), NDTRI_EDGES, SPECIAL, [-1.0, 2.0, 1e-320]],
                         ids=["seeded-grid", "branch-edges", "special", "outside-and-subnormal"])
def test_ndtri_equals_scipy_bitwise(points):
    bad = [y for y in map(float, points) if not _same(ndtri(y), float(special.ndtri(y)))]
    assert bad == []


def test_edgeworth_cdf_maps_the_scalar_cdf_over_arrays():
    from signed_balance.inference import EdgeworthCoefficients, edgeworth_cdf

    law = EdgeworthCoefficients(a_hat=0.0, b_hat=0.0, c_hat=0.0, n=50)
    x = np.linspace(-4.0, 4.0, 24).reshape(2, 3, 4)
    got = edgeworth_cdf(x, law)
    assert got.shape == x.shape
    np.testing.assert_array_equal(got, special.ndtr(x))
    assert isinstance(edgeworth_cdf(0.5, law), float)
