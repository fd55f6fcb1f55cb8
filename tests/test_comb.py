import math

import numpy as np
import pytest
from scipy import integrate

from ringlock import comb
from ringlock.comb import (MAX_SERIES_TERMS, adaptive_truncation,
                           comb_closed, comb_fourier_coeff, comb_hwhm,
                           comb_series, series_findings, series_tail_bound)


def one_shot_series(s, beta, K):
    """The series from one (size(s), K) outer product of its terms: the
    reference for comb_series' blocks of points."""
    k = np.arange(1, K + 1)
    terms = np.exp(-k * beta) * np.cos(np.multiply.outer(s, k))
    return 1.0 + 2.0 * terms.sum(axis=-1)


def bisect_hwhm(beta, lo=1e-12, hi=np.pi, iters=200):
    """Independent oracle: solve comb(s*) = comb(0)/2 by bisection."""
    target = comb_closed(0.0, beta) / 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if comb_closed(mid, beta) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClosedForm:
    def test_peak_is_coth_half_beta(self):
        assert comb_closed(0.0, 1.0) == pytest.approx(1.0 / np.tanh(0.5),
                                                      rel=1e-14)

    def test_mean_over_period_is_unity(self):
        # exponential convergence of the periodic trapezoid rule
        for beta in (0.05, 0.5, 2.0):
            s = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
            mean = comb_closed(s, beta).mean()
            assert abs(mean - 1.0) < 1e-8

    def test_value_at_pi_matches_series_oracle(self):
        # frozen from comb_series(pi, 1, 200)
        assert comb_closed(np.pi, 1.0) == pytest.approx(0.46211715726000974,
                                                        rel=1e-13)

    def test_periodicity(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-10.0, 10.0, 100)
        beta = rng.uniform(0.01, 3.0, 100)
        for si, bi in zip(s, beta):
            assert comb_closed(si + 2.0 * np.pi, bi) == \
                pytest.approx(comb_closed(si, bi), rel=1e-12)

    def test_positivity(self):
        s = np.linspace(-7.0, 7.0, 301)
        assert np.all(comb_closed(s, 0.02) > 0.0)

    def test_domain_errors(self):
        for s in (0.0, np.float64(0.5), np.zeros(3)):
            with pytest.raises(ValueError):
                comb_closed(s, 0.0)
            with pytest.raises(ValueError):
                comb_closed(s, -1.0)
            for beta in (1e-8, 1e-9):   # below the overflow guard
                with pytest.raises(ValueError):
                    comb_closed(s, beta)

    def test_peak_within_few_ulp_at_small_beta(self):
        # the peak coth(beta/2) = 1 + 2/expm1(beta) (expm1 is accurate to
        # an ulp); cosh(beta) - cos(0) lost 2 eps/beta^2 to cancellation
        for beta in (1e-6, 1e-3, 0.05, 0.4, 30.0):
            want = 1.0 + 2.0 / math.expm1(beta)
            for got in (comb_closed(0.0, beta),
                        float(comb_closed(np.zeros(1), beta)[0])):
                assert abs(got - want) <= 4.0 * math.ulp(want), \
                    (beta, (got - want) / math.ulp(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [700.0, 710.0, 1e4, math.inf])
    def test_flat_at_wide_linewidths(self, beta):
        # sinh(beta) overflows just above 710; the pulse-contrast form
        # r = exp(-beta) underflows to the flat profile instead
        for s in (0.0, np.pi):
            assert comb_closed(s, beta) == 1.0
        assert np.array_equal(comb_closed(np.array([0.0, np.pi]), beta),
                              [1.0, 1.0])
        assert comb_hwhm(beta) == np.pi


class TestSeries:
    def test_agrees_with_closed_form_at_k50(self):
        assert abs(comb_series(0.0, 1.0, 50) - comb_closed(0.0, 1.0)) < 1e-12

    def test_large_beta_single_term_is_flat(self):
        assert comb_series(1.234, 40.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_k200_within_tail_bound(self):
        assert abs(comb_series(np.pi / 2, 0.5, 200)
                   - comb_closed(np.pi / 2, 0.5)) < 1e-12

    def test_tail_bound_holds(self):
        # the analytic bound plus the float64 summation-roundoff allowance
        # (K terms of order the function value)
        rng = np.random.default_rng(3)
        eps = np.finfo(float).eps
        for _ in range(200):
            s = rng.uniform(0, 2 * np.pi)
            beta = rng.uniform(0.01, 3.0)
            k = int(rng.integers(1, 300))
            value = comb_closed(s, beta)
            err = abs(comb_series(s, beta, k) - value)
            roundoff = (k + 2) * eps * max(1.0, value)
            assert err <= series_tail_bound(beta, k) + roundoff

    def test_adaptive_truncation_guarantees_tolerance(self):
        for beta in (0.01, 0.1, 1.0, 3.0):
            k = adaptive_truncation(beta, 1e-12)
            assert series_tail_bound(beta, k) <= 1e-12
            # one fewer term would violate the bound (minimality)
            if k > 1:
                assert series_tail_bound(beta, k - 1) > 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            comb_series(0.0, 1.0, 0)

    def test_size_rule(self):
        assert series_findings(MAX_SERIES_TERMS, 1) == []
        assert series_findings(512, MAX_SERIES_TERMS // 512) == []
        finding, = series_findings(512, MAX_SERIES_TERMS // 512 + 1)
        assert f"K = {MAX_SERIES_TERMS // 512 + 1}" in finding

    def test_oversized_series_refused_before_allocating(self):
        # K = 44 442 264 at beta = 1e-6: 512 x K terms would be 170 GiB
        import tracemalloc
        k = adaptive_truncation(1e-6)
        assert 512 * k > MAX_SERIES_TERMS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_points\\*K"):
                comb_series(np.zeros(512), 1e-6, k)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("beta,n_points", [
        (0.2, 512), (1e-3, 60), (0.05, 4096), (1e-2, 1000)])
    def test_blocks_change_no_bit(self, beta, n_points, monkeypatch):
        # each point's sum over k is one reduction at any block size, so
        # blocks of 1 row, of 7 rows and of the default size all give the
        # one-shot outer product's bits; (1e-3, 60) and (0.05, 4096) span
        # several default blocks (27 and 1560 points), and a scalar s
        # still gives a float
        k = adaptive_truncation(beta)
        s = np.linspace(-np.pi, np.pi, n_points)
        want = one_shot_series(s, beta, k)
        for block in (1, 7 * k, comb.SERIES_BLOCK_TERMS):
            monkeypatch.setattr(comb, "SERIES_BLOCK_TERMS", block)
            assert np.array_equal(comb_series(s, beta, k), want), block
            assert np.array_equal(comb_series(s.reshape(-1, 4), beta, k),
                                  want.reshape(-1, 4)), block
        scalar = comb_series(0.3, beta, k)
        assert type(scalar) is float
        assert scalar == one_shot_series(0.3, beta, k)


class TestFourierCoeff:
    def test_k_zero_is_one(self):
        assert comb_fourier_coeff(0, math.inf) == 1.0
        assert comb_fourier_coeff(0, 0.37) == 1.0

    def test_direct_value(self):
        assert comb_fourier_coeff(2, 0.5) == pytest.approx(np.exp(-1.0),
                                                           rel=1e-15)

    def test_sign_symmetry(self):
        assert comb_fourier_coeff(-3, 0.2) == comb_fourier_coeff(3, 0.2)

    def test_parseval(self):
        # sum_k e^{-2|k|beta} = coth(beta) equals (1/2pi) int T^2 ds
        for beta in (0.1, 0.7, 2.0):
            lhs = 1.0 / np.tanh(beta)
            rhs = integrate.quad(
                lambda s: comb_closed(s, beta) ** 2, 0.0, 2.0 * np.pi,
                epsabs=1e-12, limit=200)[0] / (2.0 * np.pi)
            assert abs(lhs - rhs) < 1e-8


class TestHwhm:
    def test_small_beta_value_from_bisection_oracle(self):
        # frozen: bisection on comb_closed(s*, 0.1) = comb_closed(0, 0.1)/2
        oracle = bisect_hwhm(0.1)
        assert oracle == pytest.approx(0.10008343769, abs=1e-9)
        assert comb_hwhm(0.1) == pytest.approx(oracle, abs=1e-12)

    def test_small_beta_limit_ratio(self):
        for beta in (1e-3, 1e-4, 1e-5):
            assert comb_hwhm(beta) / beta == pytest.approx(1.0, abs=1e-5)

    def test_beta_one_from_bisection_oracle(self):
        oracle = bisect_hwhm(1.0)
        assert comb_hwhm(1.0) == pytest.approx(oracle, abs=1e-12)
        assert comb_hwhm(1.0) == pytest.approx(
            np.arccos(2.0 - np.cosh(1.0)), rel=1e-14)

    def test_wide_profile_returns_half_period(self):
        # cosh(beta) >= 3 has no half-max point on the principal branch
        assert comb_hwhm(2.0) == pytest.approx(np.pi)
