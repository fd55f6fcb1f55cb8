import numpy as np
import pytest

from ringlock.pulses import (IDENTITY, MoebiusElement, PoleError,
                             UnstableIterationError, apply, compose,
                             continuous_solution, discrete_fixed_points,
                             element_freq_like, element_time_like,
                             gamma_f_from_band, roundtrip_iterate,
                             roundtrip_map)


def random_element(rng):
    while True:
        a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
        if abs(a * d - b * c) > 1e-3:
            return MoebiusElement(a, b, c, d)


class TestElements:
    def test_time_like_zero_is_identity(self):
        el = element_time_like(0.0)
        assert (el.a, el.b, el.c, el.d) == (1, 0, 0, 1)

    def test_time_like_adds_gamma(self):
        assert apply(element_time_like(2 + 1j), 1.0) == pytest.approx(3 + 1j)
        assert apply(element_time_like(1.0), 2.0) == pytest.approx(3.0)

    def test_time_like_self_composition_doubles(self):
        el = compose(element_time_like(0.3 - 0.2j),
                     element_time_like(0.3 - 0.2j))
        dbl = element_time_like(0.6 - 0.4j)
        assert np.allclose(el.matrix, dbl.matrix)

    def test_freq_like_infinite_band_is_identity(self):
        el = element_freq_like(float("inf"))
        assert (el.a, el.b, el.c, el.d) == (1, 0, 0, 1)

    def test_freq_like_halves_equal_gamma(self):
        gf = 3.0 - 1.5j
        assert apply(element_freq_like(gf), gf) == pytest.approx(gf / 2.0)

    def test_freq_like_self_composition(self):
        gf = 2.0 + 1.0j
        el = compose(element_freq_like(gf), element_freq_like(gf))
        half = element_freq_like(gf / 2.0)
        assert np.allclose(el.matrix, half.matrix)

    def test_freq_like_rejects_zero(self):
        with pytest.raises(ValueError):
            element_freq_like(0.0)

    def test_degenerate_element_rejected(self):
        with pytest.raises(ValueError):
            MoebiusElement(1.0, 2.0, 2.0, 4.0)


class TestCompose:
    def test_roundtrip_coefficients(self):
        # time-like then frequency-like gives (1+gm^2, 1/gF, gF gm^2, 1)
        gt = 2.0 + 1.0j
        gf = 4.0 - 0.5j
        el = compose(element_time_like(gt), element_freq_like(gf))
        gm2 = gt / gf
        assert el.a == 1.0 + (1.0 / gf) * gt
        assert el.b == 1.0 / gf
        assert el.c == gt
        assert el.d == 1.0
        # reconstructed forms agree at machine precision
        assert el.a == pytest.approx(1.0 + gm2, rel=4e-16)
        assert el.c == pytest.approx(gf * gm2, rel=4e-16)

    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        el = random_element(rng)
        assert np.allclose(compose(IDENTITY, el).matrix, el.matrix)
        assert np.allclose(compose(el, IDENTITY).matrix, el.matrix)

    def test_apply_respects_composition_order(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 100:
            x = random_element(rng)
            y = random_element(rng)
            gamma = complex(*rng.standard_normal(2))
            if gamma == 0:
                continue
            try:
                direct = apply(y, apply(x, gamma))
                composed = apply(compose(x, y), gamma)
            except PoleError:
                continue
            assert composed == pytest.approx(direct, rel=1e-12)
            checked += 1

    def test_inverse_element(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            el = random_element(rng)
            inv = MoebiusElement(el.d, -el.b, -el.c, el.a)
            gamma = complex(*rng.standard_normal(2)) + 2.0
            try:
                back = apply(inv, apply(el, gamma))
            except PoleError:
                continue
            assert back == pytest.approx(gamma, rel=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = (random_element(rng) for _ in range(3))
            left = compose(compose(x, y), z)
            right = compose(x, compose(y, z))
            assert np.allclose(left.matrix, right.matrix, rtol=1e-12)


class TestApply:
    def test_identity(self):
        assert apply(IDENTITY, 1.5 + 0.5j) == 1.5 + 0.5j

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            apply(IDENTITY, 0.0)

    def test_pole_detection(self):
        # time-like element evaluated where the denominator vanishes
        with pytest.raises(PoleError) as err:
            apply(element_time_like(1.0), -1.0)
        assert err.value.gamma == -1.0

    def test_infinite_output_detected(self):
        with pytest.raises(PoleError):
            apply(element_freq_like(2.0), -2.0)

    def test_width_positive_preserved_by_roundtrip(self):
        # Re gamma > 0 is preserved when both element parameters have
        # positive real part (right half-plane maps into itself)
        rng = np.random.default_rng(4)
        for _ in range(200):
            gt = complex(abs(rng.standard_normal()) + 0.01,
                         rng.standard_normal())
            gf = complex(abs(rng.standard_normal()) + 0.01,
                         rng.standard_normal())
            el = compose(element_time_like(gt), element_freq_like(gf))
            gamma = complex(abs(rng.standard_normal()) + 0.01,
                            rng.standard_normal())
            assert apply(el, gamma).real > 0.0


class TestRoundtripIterate:
    def test_stable_fixed_point(self):
        # the discrete map's stable point sits at g_m(1 - g_m/2 + ...);
        # it is exactly constant, and a start at g_m stays within O(g_m^2)
        gm = 0.01
        g_plus, _ = discrete_fixed_points(gm)
        assert g_plus == pytest.approx(gm * (1.0 - gm / 2.0), rel=1e-4)
        traj = roundtrip_iterate(g_plus, gm, 50)
        assert np.allclose(traj, g_plus, rtol=1e-12)
        traj = roundtrip_iterate(gm, gm, 50)
        assert np.max(np.abs(traj - gm)) < gm * gm

    def test_lowest_order_gain_per_trip(self):
        # from g = 0 the first application lands at ~ g_m^2
        g1 = roundtrip_map(0.0, 1e-3)
        assert g1 == pytest.approx(1e-6, rel=2e-6)

    def test_matches_tanh_solution_small_gm(self):
        gm = 1e-3
        n = int(5 / gm)
        traj = roundtrip_iterate(0.0, gm, n).real
        tau = np.arange(n + 1)
        exact = gm * np.tanh(gm * tau)
        rel = np.abs(traj[1:] - exact[1:]) / exact[1:]
        assert rel.max() < 1e-3

    def test_deviation_scales_linearly_in_gm(self):
        # computed constant: max relative deviation ~ 0.5*g_m
        ratios = []
        for gm in (1e-2, 1e-3, 1e-4):
            n = int(5 / gm)
            traj = roundtrip_iterate(0.0, gm, n).real
            tau = np.arange(n + 1)
            exact = gm * np.tanh(gm * tau)
            rel = np.abs(traj[1:] - exact[1:]) / exact[1:]
            ratios.append(rel.max() / gm)
        assert all(0.3 < r < 0.7 for r in ratios)

    def test_unstable_fixed_point_departs(self):
        # a start near -g_m departs monotonically (multiplier > 1 there)
        # and eventually converges to the positive stable point
        gm = 1e-2
        g0 = -gm * (1.0 + 1e-6)
        traj = roundtrip_iterate(g0, gm, 5000).real
        dist = np.abs(traj + gm)
        assert np.all(np.diff(dist[:1000]) > 0)
        assert dist[1000] > 100.0 * dist[0]
        g_plus, _ = discrete_fixed_points(gm)
        assert traj[-1] == pytest.approx(g_plus, rel=1e-6)

    def test_below_unstable_point_diverges(self):
        # outside the discrete unstable point the map runs to its pole
        gm = 1e-2
        _, g_minus = discrete_fixed_points(gm)
        with pytest.raises(UnstableIterationError):
            roundtrip_iterate(g_minus * (1.0 + 1e-4), gm, 50_000)

    def test_matches_exact_n_fold_iterate(self):
        # the map is a Moebius transformation with fixed points p, q, so
        # w_n = (g_n - p)/(g_n - q) = k^n w_0 with multiplier
        # k = (q + 1 + g_m^2)/(p + 1 + g_m^2), and g_n = (p - q w_n)/(1 - w_n)
        gm, g0, n = 0.3 + 0.2j, 0.05 - 0.1j, 300
        p, q = discrete_fixed_points(gm)
        k = (q + 1.0 + gm * gm) / (p + 1.0 + gm * gm)
        w = k ** np.arange(n + 1) * (g0 - p) / (g0 - q)
        exact = (p - q * w) / (1.0 - w)
        assert np.max(np.abs(roundtrip_iterate(g0, gm, n) - exact)) < 1e-13

    def test_map_derivative_stability(self):
        gm = 0.01
        h = 1e-8
        for g_star, stable in ((gm, True), (-gm, False)):
            der = abs((roundtrip_map(g_star + h, gm)
                       - roundtrip_map(g_star - h, gm)) / (2 * h))
            assert (der < 1.0) == stable

    def test_validation(self):
        with pytest.raises(ValueError):
            roundtrip_iterate(0.0, 1.5, 10)
        with pytest.raises(ValueError):
            roundtrip_iterate(0.0, 0.01, 0)


class TestContinuousSolution:
    def test_zero_at_reference_time(self):
        assert continuous_solution(0.01, 5.0, 5.0) == 0.0

    def test_asymptote_is_fixed_point(self):
        assert continuous_solution(0.02, 1e6, 0.0) == pytest.approx(0.02)

    def test_ode_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            gm = complex(rng.uniform(0.001, 0.05), rng.uniform(-0.01, 0.01))
            tau = rng.uniform(0.0, 3.0 / abs(gm))
            h = 1e-3
            g = continuous_solution(gm, tau, 0.0)
            dg = (continuous_solution(gm, tau + h, 0.0)
                  - continuous_solution(gm, tau - h, 0.0)) / (2.0 * h)
            assert abs(dg - (gm * gm - g * g)) < 1e-8


class TestGammaFFromBand:
    def test_fiber_grating_value(self):
        # 0.2 nm band at 1550 nm in n_eff = 1.47 fiber
        v = gamma_f_from_band(0.2e-9, 1550e-9, 1.47)
        assert v == pytest.approx(1.0667e11, rel=1e-3)

    def test_amplifier_band_scales_linearly(self):
        v1 = gamma_f_from_band(0.2e-9, 1550e-9, 1.47)
        v2 = gamma_f_from_band(50e-9, 1550e-9, 1.47)
        assert v2 == pytest.approx(250.0 * v1, rel=1e-12)
        assert v2 == pytest.approx(2.667e13, rel=1e-3)

    def test_doubling(self):
        assert gamma_f_from_band(2e-9, 1550e-9, 1.47) == \
            pytest.approx(2.0 * gamma_f_from_band(1e-9, 1550e-9, 1.47))

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_f_from_band(-1e-9, 1550e-9, 1.47)
