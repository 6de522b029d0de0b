import math

import pytest

from conftest import kummer_m_poly, laguerre_series
from morsebound.errors import ConvergenceError, DomainError
from morsebound.specfun import integrate_halfline, laguerre, log_gamma


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 2.5, 7.3) == 1.0
        assert laguerre(0, -0.9, 0.0) == 1.0

    @pytest.mark.parametrize("alpha,x", [(0.5, 0.0), (2.0, 1.0), (7.25, 19.0)])
    def test_degree_one(self, alpha, x):
        assert laguerre(1, alpha, x) == pytest.approx(1.0 + alpha - x, rel=1e-15)

    def test_degree_five_frozen(self):
        # exact series value: L_5^(3)(2) = -64/15
        assert laguerre(5, 3.0, 2.0) == pytest.approx(-64.0 / 15.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7])
    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_series(self, n, alpha):
        for x in (0.0, 0.7, 3.1, 9.5, 17.3, 24.8, 30.0):
            want = laguerre_series(n, alpha, x)
            got = laguerre(n, alpha, x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10 * (1.0 + abs(want)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, 0.5, -0.1)


class TestLogGamma:
    def test_exact_points(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_accuracy_band(self):
        # |ln Gamma| has zeros at x = 1 and x = 2 where a strictly relative
        # bound is unattainable in doubles; bound the error relative to
        # max(1, |value|) everywhere and strictly away from the zeros.
        x = 0.5
        while x <= 200.0:
            ref = math.lgamma(x)
            err = abs(log_gamma(x) - ref)
            assert err <= 1e-13 * max(1.0, abs(ref))
            if abs(x - 1.0) > 0.1 and abs(x - 2.0) > 0.1:
                assert err <= 1e-13 * abs(ref)
            x += 0.0317

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)

    def test_small_argument_recurrence(self):
        assert log_gamma(0.1) == pytest.approx(math.lgamma(0.1), rel=1e-13)


class TestKummer:
    def test_order_zero(self):
        assert kummer_m_poly(0, 4.7, 3.3) == 1.0

    def test_two_term(self):
        assert kummer_m_poly(1, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_frozen_value(self):
        # series evaluation by hand: M(-3, 4, 2.5) = -13/192
        assert kummer_m_poly(3, 4.0, 2.5) == pytest.approx(-13.0 / 192.0, rel=1e-12)

    def test_proportionality_to_laguerre(self):
        # L_n^(2s)(x) = Gamma(n + 2s + 1) / (n! Gamma(2s + 1)) * M(-n, 2s + 1, x)
        for s in (0.75, 1.5):
            for n in range(9):
                ratio = math.exp(log_gamma(n + 2 * s + 1.0)
                                 - log_gamma(n + 1.0) - log_gamma(2 * s + 1.0))
                for x in (0.3, 2.5, 11.0):
                    want = laguerre(n, 2 * s, x)
                    got = kummer_m_poly(n, 2 * s + 1.0, x) * ratio
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_explicit_proportionality_example(self):
        lhs = kummer_m_poly(3, 4.0, 2.5)
        rhs = laguerre(3, 3.0, 2.5) * math.factorial(3) * math.gamma(4.0) / math.gamma(7.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            kummer_m_poly(-1, 2.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m_poly(2, 0.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m_poly(2, -3.0, 1.0)


class TestIntegrateHalfline:
    def test_unit_exponential(self):
        assert integrate_halfline(lambda x: math.exp(-x)) == pytest.approx(1.0, abs=1e-10)

    def test_gamma_two(self):
        assert integrate_halfline(lambda x: x * math.exp(-x)) == pytest.approx(1.0, abs=1e-10)

    def test_laguerre_weight_norm_frozen(self):
        # s = 1.5, n = 1: integrand x^2 e^-x (4 - x)^2, term-by-term value 8
        f = lambda x: x ** 2 * math.exp(-x) * laguerre(1, 3.0, x) ** 2
        assert integrate_halfline(f, decay_scale=1.0, tol=1e-11) == pytest.approx(8.0, rel=1e-10)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_gamma_family(self, k):
        val = integrate_halfline(lambda x: x ** (k - 1) * math.exp(-x), tol=1e-11)
        assert val == pytest.approx(math.gamma(k), rel=1e-9)

    def test_integrable_singularity(self):
        val = integrate_halfline(lambda x: x ** (-0.4) * math.exp(-x), tol=1e-11)
        assert val == pytest.approx(math.gamma(0.6), rel=1e-9)

    def test_gaussian_decay(self):
        val = integrate_halfline(lambda x: math.exp(-x * x), tol=1e-11)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)

    def test_non_convergence(self):
        with pytest.raises(ConvergenceError):
            integrate_halfline(lambda x: x ** 4 * math.exp(-x), tol=1e-16, max_levels=1)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_halfline(lambda x: math.exp(-x), decay_scale=0.0)
        with pytest.raises(DomainError):
            integrate_halfline(lambda x: math.exp(-x), tol=-1.0)
