import numpy as np
import pytest
from scipy import signal

from ringlock.engine import (MAX_CELLS, IntegrationError,
                             InsufficientDataError, RngStream, normal_draws,
                             require, rk4_step, segment_findings,
                             size_findings, substream, welch_psd)


class TestNormalDraws:
    def test_same_seed_identical(self):
        a = normal_draws(RngStream(12345), 1000)
        b = normal_draws(RngStream(12345), 1000)
        assert np.array_equal(a, b)

    def test_counter_advances_and_changes_output(self):
        s = RngStream(7)
        a = normal_draws(s, 100)
        assert s.counter == 1
        b = normal_draws(s, 100)
        assert s.counter == 2
        assert not np.array_equal(a, b)

    def test_moments_of_one_million_draws(self):
        x = normal_draws(RngStream(2024), 1_000_000)
        assert abs(x.mean()) < 0.004          # 4 sigma of 1/sqrt(n)
        assert abs(x.var() - 1.0) < 0.005

    def test_different_seeds_uncorrelated(self):
        x = normal_draws(RngStream(1), 100_000)
        y = normal_draws(RngStream(2), 100_000)
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 0.01

    def test_substreams_disjoint_and_reproducible(self):
        base = RngStream(99)
        s1 = substream(base, 0)
        s2 = substream(base, 1)
        a = normal_draws(s1, 1000)
        b = normal_draws(s2, 1000)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, normal_draws(substream(RngStream(99), 0),
                                              1000))

    def test_substream_index_range(self):
        # the counter (run_index + 1)*2**32 must stay below 2**64: the last
        # index would wrap onto the parent stream's own draws
        base = normal_draws(RngStream(7), 4)
        last = substream(RngStream(7), 2 ** 32 - 2)
        assert last.counter == 2 ** 64 - 2 ** 32
        assert not np.array_equal(normal_draws(last, 4), base)
        for bad in (-1, 2 ** 32 - 1, 2 ** 32, 2 ** 40):
            with pytest.raises(ValueError, match="run_index"):
                substream(RngStream(7), bad)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            normal_draws(RngStream(0), 0)

    def test_seed_range(self):
        # the seed is the first word of the 64-bit Philox key: a seed outside
        # [0, 2**64) is refused, not reduced onto another seed's stream
        for bad in (-3, 2 ** 64, 2 ** 64 + 5, 2 ** 70, 1.5, 5.0, True, "5"):
            with pytest.raises(ValueError, match="seed"):
                RngStream(bad)
        top = normal_draws(RngStream(2 ** 64 - 1), 8)
        assert not np.array_equal(top, normal_draws(RngStream(0), 8))
        assert np.array_equal(normal_draws(RngStream(np.uint64(5)), 8),
                              normal_draws(RngStream(5), 8))


class TestRk4:
    def test_harmonic_oscillator_energy_drift(self):
        # one period at dt = T/100: relative energy drift below 1e-7
        def f(y):
            return np.array([y[1], -y[0]])

        y = np.array([1.0, 0.0])
        dt = 2.0 * np.pi / 100.0
        for _ in range(100):
            y = rk4_step(y, f, dt)
        energy = 0.5 * (y[0] ** 2 + y[1] ** 2)
        assert abs(energy - 0.5) / 0.5 < 1e-7

    def test_linear_system_local_accuracy(self):
        # one step of x' = a x matches exp(a dt) to O(dt^5)
        a = -1.3
        for dt in (0.1, 0.05):
            y = rk4_step(np.array([1.0]), lambda y: a * y, dt)
            err = abs(y[0] - np.exp(a * dt))
            assert err < abs(a * dt) ** 5 / 60.0
            # a float state takes the same arithmetic and stays a float
            y_float = rk4_step(1.0, lambda y: a * y, dt)
            assert type(y_float) is float and y_float == y[0]

    def test_halving_dt_gives_sixteenfold_improvement(self):
        # a time-dependent law, made autonomous by carrying t as the first
        # state component, with t' = 1
        def f(y):
            t, u = y
            return np.array([1.0, np.sin(t * u) + u * 0.1])

        def endpoint(dt):
            y = np.array([0.0, 0.7])
            n = int(round(2.0 / dt))
            for _ in range(n):
                y = rk4_step(y, f, dt)
            return y[1]

        exact = endpoint(1.0 / 4096.0)
        e1 = abs(endpoint(0.02) - exact)
        e2 = abs(endpoint(0.01) - exact)
        assert 12.0 < e1 / e2 < 20.0

    def test_observed_order_at_least_3_9(self):
        def f(y):
            return np.array([y[0] * (1.0 - y[0])])

        def endpoint(dt):
            y = np.array([0.1])
            n = int(round(3.0 / dt))
            for _ in range(n):
                y = rk4_step(y, f, dt)
            return y[0]

        exact = endpoint(1.0 / 8192.0)
        errs = [abs(endpoint(dt) - exact) for dt in (0.03, 0.015)]
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.9

    def test_nonfinite_raises(self):
        def f(y):
            return np.array([np.inf])

        with pytest.raises(IntegrationError):
            rk4_step(np.array([1.0]), f, 0.1)
        with pytest.raises(IntegrationError) as err:
            rk4_step(1.0, lambda y: float("inf"), 0.5)
        assert err.value.t is None     # the stepper keeps no clock


class TestFailureContract:
    def test_numerical_failures_are_arithmetic_errors(self):
        # the CLI maps ArithmeticError alone to exit 3
        from ringlock.pulses import PoleError, UnstableIterationError
        from ringlock.thermomech import InstabilityError
        for cls in (IntegrationError, InstabilityError,
                    UnstableIterationError, PoleError):
            assert issubclass(cls, ArithmeticError), cls
        assert issubclass(InstabilityError, IntegrationError)

    def test_require_lists_every_finding(self):
        require([])
        with pytest.raises(ValueError, match="^a; b$"):
            require(["a", "b"])
        with pytest.raises(InsufficientDataError, match="^short$"):
            require(["short"], InsufficientDataError)


class TestSizeRule:
    def test_bound_is_inclusive(self):
        assert MAX_CELLS == 2 ** 25
        assert size_findings(MAX_CELLS, "the block") == []
        assert size_findings(MAX_CELLS + 1, "the block") == [
            f"the block needs {MAX_CELLS + 1} cells; one array may hold "
            f"{MAX_CELLS}"]

    def test_library_entry_points_refuse_before_allocating(self):
        # each checks the rule before its first allocation: a run of these
        # sizes would ask for terabytes at once
        from ringlock import lattice, pulses, thermomech
        with pytest.raises(ValueError, match="the trajectory of"):
            pulses.roundtrip_iterate(0.0, 0.1, 10 ** 12)
        config = lattice.LatticeConfig(64, 1.0, 0.1, 1e-3)
        with pytest.raises(ValueError, match="the batch block"):
            lattice.run_lattice(config, 10 ** 12, sample_every=1)
        with pytest.raises(ValueError, match="the stored trajectory"):
            lattice.run_lattice(config, 10 ** 9, sample_every=1000,
                                record_every=10)
        mech = thermomech.MechParams(1e-12, 1.0, 0.01, 0.0, -1e-9, 0.02)
        absorption = thermomech.AbsorptionModel(1e5, 1e4)
        dt = 2 * np.pi / 200
        with pytest.raises(ValueError, match="the stored trajectory"):
            thermomech.probe_growth(mech, absorption,
                                    thermomech.IntensityDrive.cw(1.0), 1e-8,
                                    1e9 * 200 * dt, dt, 10)


class TestWelchPsd:
    @pytest.mark.parametrize("n, seg, fs", [
        (4096, 256, 1e3), (65536, 8192, 2.0 ** 20), (5000, 512, 3.0),
        (4096, 4096, 1.0), (4097, 2, 10.0)])
    def test_matches_scipy_welch(self, n, seg, fs):
        x = np.random.default_rng(n).standard_normal(n)
        res = welch_psd(x, fs, seg)
        opts = dict(fs=fs, window="hann", nperseg=seg, noverlap=seg // 2,
                    detrend=False, scaling="density")
        freqs, psd = signal.welch(x, **opts)
        assert np.array_equal(res.freqs, freqs)
        np.testing.assert_allclose(res.psd, psd, rtol=1e-12, atol=0.0)
        # scipy's spectrogram has one time per averaged segment
        assert res.segments == signal.spectrogram(x, **opts)[1].size

    def test_bin_centered_sine_power(self):
        fs = 1024.0
        n = 16384
        seg = 2048
        t = np.arange(n) / fs
        f0 = 64.0  # integer number of cycles per segment
        x = np.sin(2.0 * np.pi * f0 * t)
        res = welch_psd(x, fs, seg)
        peak_bin = int(np.argmax(res.psd))
        assert abs(res.freqs[peak_bin] - f0) <= res.resolution
        total = np.trapezoid(res.psd, res.freqs)
        assert abs(total - 0.5) / 0.5 < 0.01

    def test_white_noise_parseval(self):
        rng = np.random.default_rng(5)
        sigma = 1.7
        x = rng.standard_normal(2 ** 17) * sigma
        res = welch_psd(x, 1000.0, 4096)
        total = np.trapezoid(res.psd, res.freqs)
        assert abs(total - sigma ** 2) / sigma ** 2 < 0.05

    def test_two_tone_power_ratio(self):
        fs = 1024.0
        n = 32768
        t = np.arange(n) / fs
        x = 3.0 * np.sin(2.0 * np.pi * 64.0 * t) \
            + 1.0 * np.sin(2.0 * np.pi * 200.0 * t)
        res = welch_psd(x, fs, 2048)
        i1 = int(np.argmin(np.abs(res.freqs - 64.0)))
        i2 = int(np.argmin(np.abs(res.freqs - 200.0)))
        ratio = res.psd[i1] / res.psd[i2]
        assert abs(ratio - 9.0) / 9.0 < 0.05

    def test_segment_validation(self):
        x = np.zeros(100)
        with pytest.raises(ValueError):
            welch_psd(x, 1.0, 100)          # not a power of two
        with pytest.raises(InsufficientDataError):
            welch_psd(x, 1.0, 128)          # longer than the signal

    def test_segment_rule_stated_once(self):
        # one rule, one text: the adler config's finding and welch_psd's
        # error at duration*sample_rate = n samples and the default
        # segment of 4 (an eighth of the signal, at least 4)
        from ringlock.cli import ExperimentConfig, validate_config
        assert segment_findings(4, 4) == []
        findings = segment_findings(3, 4)
        assert findings == ["the signal of 3 samples is shorter than one "
                            "Welch segment of 4"]
        adler = {"omega_am": 2333575.02, "omega_r": 2332946.70,
                 "v_am0": 0.156, "v_min": 0.04, "v_max": 0.31, "n_v": 3,
                 "sample_rate": 1.0}
        for n, expected in ((4, []), (3, findings)):
            assert validate_config(ExperimentConfig(
                "adler", dict(adler, duration=float(n)))) == expected
        with pytest.raises(InsufficientDataError) as err:
            welch_psd(np.zeros(3), 1.0, 4)
        assert [str(err.value)] == findings
        welch_psd(np.zeros(4), 1.0, 4)

    def test_metadata(self):
        res = welch_psd(np.random.default_rng(0).standard_normal(4096),
                        100.0, 1024)
        assert res.resolution == pytest.approx(100.0 / 1024)
        assert res.segments == 7            # 50% overlap
        assert np.all(np.diff(res.freqs) > 0)
        assert np.all(res.psd >= 0.0)
