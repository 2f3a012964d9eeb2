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
    @pytest.mark.parametrize("x", list(np.geomspace(0.1, 50.0, 25)))
    def test_k_half(self, x):
        assert besselk(0.5, x) == pytest.approx(k_half(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.2, 1.0, 1.9, 2.1, 7.0, 29.0, 31.0, 45.0])
    def test_k_three_and_five_half(self, x):
        assert besselk(1.5, x) == pytest.approx(k_three_half(x), rel=1e-12)
        assert besselk(2.5, x) == pytest.approx(k_five_half(x), rel=1e-12)

    def test_value_at_two(self):
        assert besselk(0.5, 2.0) == pytest.approx(0.11993777196806145, abs=1e-15)


class TestGeneralOrder:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.7, 2.5, 4.2, 7.0])
    @pytest.mark.parametrize("x", [0.4, 1.5, 2.5, 10.0, 28.0, 33.0])
    def test_integral_representation(self, nu, x):
        assert besselk(nu, x) == pytest.approx(k_integral_oracle(nu, x), rel=1e-10)

    def test_even_in_order(self):
        for nu, x in ((0.7, 1.3), (2.2, 8.0)):
            assert besselk(-nu, x) == besselk(nu, x)

    def test_branch_agreement_at_switch_points(self):
        # Series vs continued fraction at x = 2, continued fraction vs
        # asymptotic at x = 30, evaluated at the same point and order.
        from qesolve.besselk import (
            _k_asymptotic_one,
            _k_continued_fraction,
            _k_series,
        )

        for mu in (-0.5, -0.2, 0.0, 0.3, 0.5):
            s0, s1 = _k_series(mu, 2.0)
            c0, c1 = _k_continued_fraction(mu, 2.0)
            assert s0 == pytest.approx(c0, rel=1e-13)
            assert s1 == pytest.approx(c1, rel=1e-13)
            c0, c1 = _k_continued_fraction(mu, 30.0)
            a0, a1 = _k_asymptotic_one(mu, 30.0), _k_asymptotic_one(mu + 1, 30.0)
            assert c0 == pytest.approx(a0, rel=1e-13)
            assert c1 == pytest.approx(a1, rel=1e-13)

    def test_recurrence_consistency(self):
        # K_{nu+1} - K_{nu-1} = (2 nu / x) K_nu, with each order computed
        # through its own branch decomposition.
        for nu, x in ((1.3, 0.8), (2.6, 5.0), (3.1, 40.0)):
            lhs = besselk(nu + 1, x) - besselk(nu - 1, x)
            rhs = (2 * nu / x) * besselk(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            besselk(1.0, 0.0)
