import math

import numpy as np
import pytest

from qesolve import besselk

from quadrature_reference import integrate_adaptive


def k_half(x):
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x)


def k_three_half(x):
    return k_half(x) * (1.0 + 1.0 / x)


def k_five_half(x):
    return k_half(x) * (1.0 + 3.0 / x + 3.0 / (x * x))


def k_integral_oracle(nu, x):
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt by direct quadrature."""
    # Find where the (log) integrand has dropped far below its maximum.
    t = np.linspace(0.0, 60.0, 4001)
    expo = -x * np.cosh(t) + np.abs(nu) * t
    hi_candidates = np.nonzero(expo < np.max(expo) - 50.0)[0]
    hi = t[hi_candidates[0]] if len(hi_candidates) else 60.0

    def f(tt):
        return np.exp(-x * np.cosh(tt)) * np.cosh(nu * tt)

    val, _ = integrate_adaptive(f, 0.0, float(hi), rel_tol=1e-12)
    return val


class TestHalfInteger:
    @pytest.mark.parametrize("x", [*np.geomspace(0.1, 50.0, 25), *np.geomspace(1e-3, 600.0, 25)])
    def test_k_half(self, x):
        assert besselk(0.5, x) == pytest.approx(k_half(x), rel=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 0.2, 1.0, 1.9, 2.1, 7.0, 29.0, 31.0, 45.0, 200.0, 600.0])
    def test_k_three_and_five_half(self, x):
        assert besselk(1.5, x) == pytest.approx(k_three_half(x), rel=1e-12)
        assert besselk(2.5, x) == pytest.approx(k_five_half(x), rel=1e-12)

    def test_value_at_two(self):
        assert besselk(0.5, 2.0) == pytest.approx(0.11993777196806145, abs=1e-15)


# K_nu(x) computed once with mpmath.besselk at 40 digits (mp.dps = 40),
# rounded to the nearest float: subnormal and small x, the x = 2 and x = 30
# seams of the series / continued fraction / asymptotic split this module
# once used, large x and a large order.
MPMATH_VALUES = [
    (0.0, 5e-324, 744.5560034370396),
    (0.5, 1e-310, 1.253314137315502e155),
    (0.0, 1e-3, 7.023688800562382),
    (0.3, 1e-3, 14.406547529041028),
    (1.7, 2.0, 0.2042462642627467),
    (0.3, 30.0, 2.1356270283260948e-14),
    (4.2, 30.0, 2.8465803726034517e-14),
    (7.0, 600.0, 1.4122887784147234e-262),
    (50.0, 1.0, 3.406896854161702e77),
]


@pytest.mark.parametrize("nu, x, value", MPMATH_VALUES)
def test_against_mpmath_values(nu, x, value):
    assert besselk(nu, x) == pytest.approx(value, rel=1e-13)


def test_large_order_near_its_argument():
    # The exponents nu t and 2 x sinh^2(t/2) reach ~2e5, so their rounding
    # keeps two trapezoidal levels ~1e-12 apart: the levels agree to
    # eps nu T, not 1e-13.  The value is mpmath.quad of the integral at 40
    # and 50 digits, split at the peak; one ulp of the order moves it by
    # 3.5e-11.
    assert besselk(1.51e5, 1e5) == pytest.approx(7.2533178417843972e55, rel=1e-11)


@pytest.mark.parametrize(
    "nu, x, value",
    [(170.0, 1.0, math.inf), (800.0, 1.0, math.inf), (1e4, 1.0, math.inf), (1.0, 800.0, 0.0), (1e5, 1e5, 0.0)],
)
def test_beyond_the_floats(nu, x, value):
    # K_170(1) ~ 3e355, K_800(1) ~ 3e2214, K_1(800) ~ 2e-349 and the
    # orders 1e4 and 1e5 lie past either end of the floats.
    assert besselk(nu, x) == value


class TestGeneralOrder:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.7, 2.5, 4.2, 7.0])
    @pytest.mark.parametrize("x", [0.4, 1.5, 2.5, 10.0, 28.0, 33.0])
    def test_integral_representation(self, nu, x):
        assert besselk(nu, x) == pytest.approx(k_integral_oracle(nu, x), rel=1e-10)

    def test_even_in_order(self):
        for nu, x in ((0.7, 1.3), (2.2, 8.0)):
            assert besselk(-nu, x) == besselk(nu, x)

    def test_recurrence_consistency(self):
        # K_{nu+1} - K_{nu-1} = (2 nu / x) K_nu, with each order computed
        # through its own branch decomposition.
        for nu, x in ((1.3, 0.8), (2.6, 5.0), (3.1, 40.0)):
            lhs = besselk(nu + 1, x) - besselk(nu - 1, x)
            rhs = (2 * nu / x) * besselk(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize(
        "nu, x", [(1.0, 0.0), (1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_rejects_nonpositive_x(self, nu, x):
        with pytest.raises(ValueError, match="besselk requires a finite order and a finite x > 0"):
            besselk(nu, x)
