import numpy as np
import pytest
from scipy import integrate

from ringlock.adler import (AdlerParams, PhaseTrajectory, beat_frequency,
                            closed_form_phase, integrate_adler,
                            normalized_bias, pd_spectrum_sweep,
                            sideband_amplitudes, unlocked_closed_form)
from ringlock.engine import SpectrumResult


def mean_slip_rate(traj: PhaseTrajectory) -> float:
    """Mean dphi/dtau over the largest whole number of 2*pi slips."""
    phi = traj.phi - traj.phi[0]
    k_max = int(np.floor(phi[-1] / (2 * np.pi)))
    assert k_max >= 3
    t_first = np.interp(2 * np.pi, phi, traj.tau)
    t_last = np.interp(2 * np.pi * k_max, phi, traj.tau)
    return 2 * np.pi * (k_max - 1) / (t_last - t_first)


class TestNormalizedBias:
    def params(self, v_am):
        return AdlerParams.from_threshold(
            omega_am=2 * np.pi * 371.4e3, omega_r=2 * np.pi * 371.3e3,
            v_am0=0.156, v_am=v_am)

    def test_threshold_gives_unity(self):
        assert normalized_bias(self.params(0.156)) == pytest.approx(1.0)

    def test_double_drive_halves_bias(self):
        assert normalized_bias(self.params(0.312)) == pytest.approx(0.5)

    def test_calibration_coefficient(self):
        p = self.params(0.1)
        assert p.zeta_am == pytest.approx(2 * np.pi * 100.0 / 0.156)
        assert round(p.zeta_am, 1) == 4027.7

    def test_zero_detuning_refused(self):
        # zeta_AM = 0 would leave every i_b = 0/0
        with pytest.raises(ValueError, match="omega_r"):
            AdlerParams.from_threshold(omega_am=2 * np.pi * 371.4e3,
                                       omega_r=2 * np.pi * 371.4e3,
                                       v_am0=0.156, v_am=0.1)

    def test_bias_equals_threshold_ratio(self):
        for v in (0.05, 0.2, 1.0):
            assert normalized_bias(self.params(v)) == \
                pytest.approx(0.156 / v, rel=1e-14)

    def test_zero_drive_never_locks(self):
        with pytest.raises(ZeroDivisionError):
            normalized_bias(self.params(0.0))


class TestIntegrateAdler:
    def test_zero_bias_decays_to_zero(self):
        traj = integrate_adler(0.0, 0.1, 30.0, 0.01)
        assert abs(traj.phi[-1]) < 1e-12

    def test_locked_terminal_phase(self):
        traj = integrate_adler(0.5, 0.0, 50.0, 0.01)
        assert traj.phi[-1] == pytest.approx(np.arcsin(0.5), abs=1e-12)

    def test_step_guard(self):
        with pytest.raises(ValueError):
            integrate_adler(0.5, 0.0, 10.0, 0.02)
        with pytest.raises(ValueError):
            integrate_adler(0.5, 0.0, -1.0, 0.01)

    def test_unlocked_mean_slope(self):
        traj = integrate_adler(2.0, 0.0, 400.0, 0.005)
        assert mean_slip_rate(traj) == pytest.approx(np.sqrt(3.0), abs=1e-3)

    def test_detuning_sign_symmetry(self):
        a = integrate_adler(1.5, 0.3, 50.0, 0.01)
        b = integrate_adler(-1.5, -0.3, 50.0, 0.01)
        assert np.allclose(a.phi, -b.phi, atol=1e-12)

    def test_residual_along_trajectory(self):
        # the integrator satisfies dphi/dtau = i_b - sin(phi) pointwise;
        # verify with a high-order interior finite difference
        traj = integrate_adler(2.0, 0.0, 20.0, 0.005)
        phi, d = traj.phi, 0.005
        dphi = (-phi[4:] + 8 * phi[3:-1] - 8 * phi[1:-3] + phi[:-4]) \
            / (12 * d)
        resid = dphi + np.sin(phi[2:-2]) - 2.0
        assert np.max(np.abs(resid)) < 1e-6


class TestBeatFrequency:
    def test_onset(self):
        assert beat_frequency(1.0) == 0.0

    def test_sqrt_three(self):
        assert beat_frequency(2.0) == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_just_above_onset(self):
        assert beat_frequency(1.0001) == pytest.approx(0.0141424, abs=1e-6)

    def test_locked_region_returns_zero(self):
        assert beat_frequency(0.3) == 0.0
        assert beat_frequency(-0.99) == 0.0

    def test_negative_bias_symmetry(self):
        assert beat_frequency(-2.0) == beat_frequency(2.0)


class TestUnlockedClosedForm:
    def test_mean_over_period_is_beat_frequency(self):
        # the comb function has unit mean, so the mean slip rate is sinh(b)
        i_b = 2.0
        sh = np.sqrt(3.0)
        period = 2 * np.pi / sh
        mean = integrate.quad(lambda t: unlocked_closed_form(i_b, t), 0.0,
                              period, limit=200)[0] / period
        assert mean == pytest.approx(sh, rel=1e-9)

    def test_extremes(self):
        i_b = 2.0
        tau = np.linspace(0.0, 2 * np.pi / np.sqrt(3.0), 20001)
        vals = unlocked_closed_form(i_b, tau)
        assert vals.min() == pytest.approx(i_b - 1.0, rel=1e-6)
        assert vals.max() == pytest.approx(i_b + 1.0, rel=1e-6)

    def test_locked_region_rejected(self):
        with pytest.raises(ValueError):
            unlocked_closed_form(0.9, 0.0)

    def test_phase_reconstruction_satisfies_equation(self):
        # residual of d(phi)/d(tau) + sin(phi) - i_b with the analytic
        # antiderivative: identically zero up to roundoff
        rng = np.random.default_rng(9)
        for _ in range(10):
            i_b = rng.uniform(1.05, 5.0)
            tau = rng.uniform(0.0, 20.0, 500)
            resid = unlocked_closed_form(i_b, tau) \
                + np.sin(closed_form_phase(i_b, tau)) - i_b
            assert np.max(np.abs(resid)) < 1e-8

    def test_matches_ode_from_matched_initial_condition(self):
        # starting the integrator at the closed form's phi(0) keeps the two
        # solutions together with no alignment freedom; covers the slipping,
        # the locked and the mirrored (i_b < -1) branches
        for i_b in (2.0, 0.5, -2.0):
            phi0 = closed_form_phase(i_b, 0.0)
            traj = integrate_adler(i_b, phi0, 30.0, 0.002)
            exact = closed_form_phase(i_b, traj.tau)
            assert np.max(np.abs(traj.phi - exact)) < 1e-3, i_b
            if abs(i_b) > 1.0:
                # compare slip rates pointwise (both sides are exact
                # expressions); phi -> -phi maps i_b -> -i_b
                ode_vel = i_b - np.sin(traj.phi)
                cf_vel = np.sign(i_b) * unlocked_closed_form(abs(i_b),
                                                             traj.tau)
                assert np.max(np.abs(ode_vel - cf_vel)) < 1e-3, i_b


class TestSpectrumSweep:
    @staticmethod
    def sweep():
        params = AdlerParams.from_threshold(
            omega_am=2 * np.pi * 4000.0, omega_r=2 * np.pi * 3980.0,
            v_am0=0.2, v_am=0.2)
        grid = np.array([0.4, 0.1])   # i_b = 0.5 (locked), 2.0 (unlocked)
        return params, pd_spectrum_sweep(params, grid, duration=4.0,
                                         sample_rate=16384.0,
                                         segment_len=8192)

    def test_locked_column_is_single_line(self):
        params, smap = self.sweep()
        psd = smap.psd[:, 0]
        f_am = params.omega_am / (2 * np.pi)
        peak = int(np.argmax(psd))
        assert abs(smap.freqs[peak] - f_am) <= smap.resolution
        df = smap.freqs[1] - smap.freqs[0]
        away = np.abs(smap.freqs - f_am) > 5 * df
        assert psd[away].max() < 1e-2 * psd[peak]

    def test_unlocked_sidebands(self):
        params, smap = self.sweep()
        i_b = smap.i_b[1]
        assert i_b == pytest.approx(2.0)
        beat_hz = params.zeta_am * 0.1 * np.sqrt(3.0) / (2 * np.pi)
        spec = SpectrumResult(freqs=smap.freqs, psd=smap.psd[:, 1],
                              resolution=smap.resolution,
                              segments=smap.segments)
        f_am = params.omega_am / (2 * np.pi)
        # the ladder extends from the carrier toward the free-running side
        freqs, amps = sideband_amplitudes(spec, f_am, -beat_hz, n_bands=3)
        assert abs(abs(freqs[1] - freqs[0]) - beat_hz) <= smap.resolution
        assert abs(abs(freqs[2] - freqs[1]) - beat_hz) <= smap.resolution
        rho = np.exp(-np.arccosh(i_b))
        assert amps[2] / amps[1] == pytest.approx(rho, rel=0.1)
        # carrier-to-dominant ratio: rho/(1 - rho^2)
        assert amps[0] / amps[1] == pytest.approx(rho / (1 - rho ** 2),
                                                  rel=0.1)

    def test_exact_line_powers(self):
        # cos(w_AM t - phi_S) has the carrier and a one-sided ladder with
        # exact powers, rho = exp(-arccosh(i_b)): rho^2 at the carrier and
        # rho^(2(m-1)) (1 - rho^2)^2 at rung m >= 1; each real line of
        # complex amplitude c carries |c|^2/2 = amp^2
        params = AdlerParams.from_threshold(
            omega_am=2 * np.pi * 371.4e3, omega_r=2 * np.pi * 371.3e3,
            v_am0=0.156, v_am=0.156)
        grid = 0.156 / np.array([3.12, 1.2])
        smap = pd_spectrum_sweep(params, grid, duration=0.5,
                                 sample_rate=2.0 ** 20, segment_len=2 ** 17)
        rung = np.arange(5)
        for j, (v, i_b) in enumerate(zip(grid, smap.i_b)):
            beat_hz = params.zeta_am * v * np.sqrt(i_b ** 2 - 1) \
                / (2 * np.pi)
            spec = SpectrumResult(freqs=smap.freqs, psd=smap.psd[:, j],
                                  resolution=smap.resolution,
                                  segments=smap.segments)
            _, amps = sideband_amplitudes(spec, params.omega_am / (2 * np.pi),
                                          -beat_hz, n_bands=4)
            rho = np.exp(-np.arccosh(i_b))
            exact = np.where(rung == 0, rho ** 2, rho ** (2.0 * (rung - 1))
                             * (1 - rho ** 2) ** 2)
            assert np.max(np.abs(2 * amps ** 2 - exact)) < 1e-4, i_b

    def test_short_duration_warns_in_metadata(self):
        params = AdlerParams.from_threshold(
            omega_am=2 * np.pi * 4000.0, omega_r=2 * np.pi * 3990.0,
            v_am0=0.1, v_am=0.1)
        smap = pd_spectrum_sweep(params, np.array([0.05]), duration=1.0,
                                 sample_rate=8192.0, segment_len=2048)
        assert len(smap.warnings) == 1
        assert "beat periods" in smap.warnings[0]

    def test_grid_validation(self):
        params = AdlerParams.from_threshold(2 * np.pi * 4000, 2 * np.pi
                                            * 3990, 0.1, 0.1)
        with pytest.raises(ValueError):
            pd_spectrum_sweep(params, np.array([0.0, 0.1]), 1.0, 8192.0)


class TestTrajectoryType:
    def test_requires_increasing_tau(self):
        with pytest.raises(ValueError):
            PhaseTrajectory(tau=np.array([0.0, 0.0, 1.0]),
                            phi=np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PhaseTrajectory(tau=np.arange(3.0), phi=np.zeros(4))
