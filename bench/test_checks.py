"""Tests of the benchmark's output checks on synthetic inputs.

    python3 -m pytest bench/test_checks.py
"""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import signal, stats

import checks

FS = 2 ** 16
N = 2 ** 18
T = np.arange(N) / FS


def welch(x, nperseg=2 ** 13):
    return signal.welch(x, fs=FS, window="hann", nperseg=nperseg,
                        noverlap=nperseg // 2, detrend=False,
                        scaling="density")


class TestSpectrum:
    def test_pure_tone(self):
        f0 = 12_345.6
        freqs, psd = welch(np.cos(2 * np.pi * f0 * T + 0.3))
        bin_hz = freqs[1] - freqs[0]
        assert checks.spectrum_power(freqs, psd) == pytest.approx(0.5,
                                                                 rel=1e-4)
        assert abs(checks.spectrum_centroid(freqs, psd) - f0) < 1e-3 * bin_hz

    def test_two_tones(self):
        f1, f2, a1, a2 = 5_000.0, 9_001.5, 1.0, 0.5
        freqs, psd = welch(a1 * np.cos(2 * np.pi * f1 * T)
                           + a2 * np.cos(2 * np.pi * f2 * T))
        bin_hz = freqs[1] - freqs[0]
        power = (a1 ** 2 + a2 ** 2) / 2
        centroid = (a1 ** 2 * f1 + a2 ** 2 * f2) / (a1 ** 2 + a2 ** 2)
        assert checks.spectrum_power(freqs, psd) == pytest.approx(power,
                                                                 rel=1e-4)
        assert abs(checks.spectrum_centroid(freqs, psd) - centroid) \
            < 1e-2 * bin_hz

    def test_constant_envelope_mean_frequency(self):
        # cos(w t - phi(t)) with phi' = c + m*W*cos(W t): the centroid is the
        # time average of the instantaneous frequency, f0 - c/(2 pi)
        f0, c, m, w = 10_000.0, 2 * np.pi * 40.0, 3.0, 2 * np.pi * 25.0
        x = np.cos(2 * np.pi * f0 * T - c * T - m * np.sin(w * T))
        freqs, psd = welch(x)
        bin_hz = freqs[1] - freqs[0]
        assert checks.spectrum_power(freqs, psd) == pytest.approx(0.5,
                                                                 rel=1e-3)
        assert abs(checks.spectrum_centroid(freqs, psd)
                   - (f0 - c / (2 * np.pi))) < checks.CENTROID_TOL_BINS \
            * bin_hz


class TestAdlerCentroid:
    W_AM = 2 * np.pi * 371.4e3

    def test_locked_sits_on_the_modulation(self):
        w_r = self.W_AM - 2 * np.pi * 100.0
        assert checks.adler_centroid_hz(self.W_AM, w_r, 0.156, 0.2) \
            == 371.4e3

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unlocked_shifts_by_the_beat(self, sign):
        # V = V0/2 gives i_b = 2 and a beat of 100 Hz * sqrt(3)/2
        w_r = self.W_AM - sign * 2 * np.pi * 100.0
        got = checks.adler_centroid_hz(self.W_AM, w_r, 0.156, 0.078)
        assert got == pytest.approx(371.4e3 - sign * 50.0 * math.sqrt(3),
                                    rel=0, abs=1e-8)


class TestVonMises:
    @pytest.mark.parametrize("beta_n", [0.02, 0.1, 0.3, 1.0])
    def test_moments_match_scipy(self, beta_n):
        kappa = 1.0 / (2.0 * beta_n)
        dist = stats.vonmises(kappa)
        diff_sq, rho = checks.von_mises_moments(beta_n)
        assert diff_sq == pytest.approx(dist.var(), rel=1e-7)
        assert rho == pytest.approx(dist.expect(np.cos), rel=1e-7)

    def test_value_at_criterion_two(self):
        diff_sq, rho = checks.von_mises_moments(0.1)
        assert diff_sq == pytest.approx(0.2272, abs=5e-5)
        assert rho == pytest.approx(0.8934, abs=5e-5)


class TestThresholds:
    BASE = {"gamma_m": 2.0, "m_m": 3.0, "omega_m": 5.0, "theta_fh": -0.5,
            "a_h0": 10.0}

    def test_seo(self):
        # -2*2*3*25 / (4 * -0.5 * 10) = 15
        assert checks.seo_threshold(dict(self.BASE, k_a1=4.0)) == 15.0

    def test_mml(self):
        # SEO value -300/20 = -15, divided by 1 - 2*5/2 = -4
        p = dict(self.BASE, k_a1=-4.0, t_n=2.0)
        assert checks.mml_threshold(p) == 3.75


def write_threshold_run(tmp_path, bracket, formula=15.0):
    table = tmp_path / "seo_trajectory.txt"
    table.write_text("# time_s x_m\n0.0 1.0\n")
    manifest = {"outputs": [{"path": str(table), "sha256": hashlib.sha256(
        table.read_bytes()).hexdigest()}],
        "derived": {"threshold_formula": formula,
                    "threshold_bracket": bracket}}
    (tmp_path / "seo_manifest.json").write_text(json.dumps(manifest))
    return {"experiment": "seo", "parameters": dict(
        TestThresholds.BASE, k_a1=4.0, search_rtol=0.05)}


class TestThresholdCheck:
    def test_good_bracket_passes(self, tmp_path):
        config = write_threshold_run(tmp_path, [15.0, 15.5])
        assert checks.check_threshold(config, tmp_path) == []

    @pytest.mark.parametrize("bracket", [[14.0, 15.0], [16.0, 16.5],
                                         [15.5, 15.0]])
    def test_wide_or_displaced_bracket_fails(self, tmp_path, bracket):
        config = write_threshold_run(tmp_path, bracket)
        assert checks.check_threshold(config, tmp_path)

    def test_wrong_formula_fails(self, tmp_path):
        config = write_threshold_run(tmp_path, [15.0, 15.5], formula=15.01)
        assert checks.check_threshold(config, tmp_path)

    def test_edited_table_fails_checksum(self, tmp_path):
        config = write_threshold_run(tmp_path, [15.0, 15.5])
        (tmp_path / "seo_trajectory.txt").write_text("# time_s x_m\n0 2\n")
        assert checks.check_threshold(config, tmp_path)


class TestLatticeCheck:
    def exact(self, beta_n=0.1, lags=11):
        diff_sq, rho = checks.von_mises_moments(beta_n)
        return {"diff_sq": [diff_sq], "corr_re": list(rho ** np.arange(lags)),
                "corr_im": [0.0] * lags}

    def test_exact_values_pass(self):
        assert checks.check_lattice_values(0.1, self.exact()) == []

    def test_weak_noise_values_fail_on_the_mean_of_runs(self):
        # the Gaussian limit 2 beta_N is 12% below the exact second moment;
        # a lattice-chain run pools at least six operations
        values = dict(self.exact(), diff_sq=[0.2])
        assert checks.check_lattice_values(0.1, values, n_runs=6)
