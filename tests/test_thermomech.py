import math

import numpy as np
import pytest

from ringlock import thermomech
from ringlock.engine import rk4_step
from ringlock.thermomech import (AbsorptionModel, InstabilityError,
                                 InsufficientDataError, IntensityDrive,
                                 MechParams, MirrorTrajectory, NoiseChain,
                                 aluminum_device, bisect_threshold,
                                 cw_fixed_point, drive_intensity,
                                 effective_noise, effective_params, gamma_h0,
                                 gamma_h1, linear_response_oracle,
                                 mml_threshold, noise_figure,
                                 ringdown_extract, search_constraint_findings,
                                 seo_threshold, simulate, theta_t)


def small_mirror(gamma_ratio=0.005, kappa_ratio=0.01, theta_ph=0.0,
                 theta_fh=-1e-9, omega_m=2 * np.pi * 4e5):
    return MechParams(m_m=1e-12, omega_m=omega_m,
                      gamma_m=gamma_ratio * omega_m, theta_ph=theta_ph,
                      theta_fh=theta_fh, kappa_m=kappa_ratio * omega_m)


class TestThetaT:
    def test_zero_kappa(self):
        assert theta_t(0.0, 1.0) == 0.0

    def test_one_percent_ratio(self):
        w = 2 * np.pi * 4e5
        assert theta_t(0.01 * w, w) == pytest.approx(0.0099996667, abs=1e-9)

    def test_equal_rates(self):
        assert theta_t(3.0, 3.0) == pytest.approx(np.pi / 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_t(1.0, 0.0)


class TestEffectiveCoefficients:
    def test_gamma_h0_zero_intensity(self):
        assert gamma_h0(small_mirror(), AbsorptionModel(1e5, 1e4), 0.0) == 0.0

    def test_gamma_h0_sign_follows_detuning(self):
        mech = small_mirror(theta_fh=-1e-9)
        red = AbsorptionModel(1e5, +1e4)
        blue = AbsorptionModel(1e5, -1e4)
        assert gamma_h0(mech, red, 1.0) < 0.0    # destabilizing on red
        assert gamma_h0(mech, blue, 1.0) > 0.0
        assert gamma_h0(mech, red, 1.0) == -gamma_h0(mech, blue, 1.0)

    def test_gamma_h1_ratio_and_sign(self):
        mech = small_mirror(theta_fh=-1e-9)
        blue = AbsorptionModel(1e5, -1e4)
        t_n = 115.6
        g0 = gamma_h0(mech, blue, 1.0)
        g1 = gamma_h1(mech, blue, 1.0, t_n)
        assert g1 / g0 == pytest.approx(-2.0 * mech.omega_m / t_n)
        assert g1 < 0.0                          # destabilizing on blue

    def test_gamma_h1_zero_when_h0_zero(self):
        mech = small_mirror()
        assert gamma_h1(mech, AbsorptionModel(1e5, 1e4), 0.0, 10.0) == 0.0

    def test_effective_params(self):
        mech = small_mirror()
        assert effective_params(mech, 0.0, 0.0) == \
            (mech.omega_m, mech.gamma_m)
        w_eff, g_eff = effective_params(mech, -mech.gamma_m / 2,
                                        -mech.gamma_m / 2)
        assert g_eff == pytest.approx(0.0, abs=1e-18)
        pull = w_eff - mech.omega_m
        assert pull == pytest.approx(-(mech.kappa_m / mech.omega_m)
                                     * mech.gamma_m)


class TestNoiseChain:
    def chain(self):
        omega_r = 2 * np.pi * 368.2e3
        return NoiseChain(g_oa=1600.0, n_pi=1.25, gamma_om=0.1 * omega_r,
                          n_p=2e6, lambda_l=1550e-9, delta_lambda=0.2e-9,
                          l_r=553.88, n_eff=1.47,
                          omega_p=2 * np.pi * 193.4e12)

    def test_noise_figure_value(self):
        assert noise_figure(1600.0, 1.25) == pytest.approx(2.4984375)
        assert round(noise_figure(1600.0, 1.25), 3) == 2.498

    def test_noise_figure_limits(self):
        assert noise_figure(1e12, 1.25) == pytest.approx(2.5, rel=1e-9)
        assert noise_figure(1e12, 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_effective_noise_values(self):
        t_n, n_r, p_oa = effective_noise(self.chain())
        omega_m = 2 * np.pi * 368.2e3
        assert 2.0 * omega_m / t_n == pytest.approx(4.0e4, rel=0.25)
        assert n_r == pytest.approx(4.611e4, rel=1e-3)
        assert p_oa > 0.0

    def test_noiseless_classical_limit(self):
        # T_N scales as 1/<n_p>: the classical limit is noiseless
        base = self.chain()
        big = NoiseChain(**{**base.__dict__, "n_p": 1e12 * base.n_p})
        assert effective_noise(big)[0] == \
            pytest.approx(1e-12 * effective_noise(base)[0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_figure(0.5, 1.25)
        with pytest.raises(ValueError):
            NoiseChain(g_oa=0.5, n_pi=1.25, gamma_om=1.0, n_p=1.0,
                       lambda_l=1.0, delta_lambda=1.0, l_r=1.0, n_eff=1.0,
                       omega_p=1.0)


class TestThresholdFormulas:
    def test_zero_damping_zero_threshold(self):
        mech = MechParams(m_m=1e-12, omega_m=1e6, gamma_m=0.0, theta_ph=0.0,
                          theta_fh=-1e-9, kappa_m=1e4)
        assert seo_threshold(mech, AbsorptionModel(1e5, 1e4)) == 0.0

    def test_linearity_in_damping(self):
        m1 = small_mirror(gamma_ratio=0.005)
        m2 = small_mirror(gamma_ratio=0.01)
        a = AbsorptionModel(1e5, 1e4)
        assert seo_threshold(m2, a) == pytest.approx(
            2.0 * seo_threshold(m1, a))

    def test_detuning_phenomenology(self):
        # aluminum device: SEO threshold exists only on red (k_A1 > 0),
        # MML threshold only on blue (k_A1 < 0)
        mech = aluminum_device(m_m=1e-12, omega_m=2 * np.pi * 4e5,
                               gamma_m=2 * np.pi * 4e5 * 0.005,
                               theta_ph=-1.0, theta_fh=-1e-9,
                               kappa_m=2 * np.pi * 4e3)
        red = AbsorptionModel(1e5, +1e4)
        blue = AbsorptionModel(1e5, -1e4)
        t_n = 0.01 * mech.omega_m
        assert np.isfinite(seo_threshold(mech, red))
        assert seo_threshold(mech, blue) == np.inf
        assert np.isfinite(mml_threshold(mech, blue, t_n))
        assert mml_threshold(mech, red, t_n) == np.inf

    def test_mml_much_lower_than_seo(self):
        mech = small_mirror(theta_fh=-1e-9)
        red = AbsorptionModel(1e5, +1e4)
        blue = AbsorptionModel(1e5, -1e4)
        t_n = 2.0 * mech.omega_m / 4.0e4
        ratio = mml_threshold(mech, blue, t_n) / seo_threshold(mech, red)
        assert ratio == pytest.approx(2.5e-5, rel=0.25)
        assert ratio == pytest.approx(1.0 / (2 * mech.omega_m / t_n - 1.0))

    def test_infinite_noise_limit_recovers_seo(self):
        mech = small_mirror(theta_fh=-1e-9)
        red = AbsorptionModel(1e5, +1e4)
        assert mml_threshold(mech, red, 1e12 * mech.omega_m) == \
            pytest.approx(seo_threshold(mech, red), rel=1e-6)

    def test_aluminum_guard(self):
        with pytest.raises(ValueError):
            aluminum_device(1e-12, 1e6, 1e3, theta_ph=-1.0, theta_fh=+1e-9,
                            kappa_m=1e4)


class TestRingdownExtract:
    @staticmethod
    def synthetic(gamma, omega=1.0, dt=0.01, t_end=3000.0, offset=0.0):
        t = np.arange(0.0, t_end, dt)
        x = np.exp(-gamma * t) * np.cos(omega * t) + offset
        v = np.gradient(x, dt)  # crude velocity is fine for crossings
        return MirrorTrajectory(time=t, x=x, v=v, t_r_rel=np.zeros_like(t))

    def test_decaying_synthetic(self):
        w, g = ringdown_extract(self.synthetic(0.001))
        assert g == pytest.approx(0.001, rel=0.01)
        assert w == pytest.approx(1.0, rel=1e-4)

    def test_pure_cosine(self):
        w, g = ringdown_extract(self.synthetic(0.0, t_end=600.0))
        assert abs(g) < 1e-6
        assert w == pytest.approx(1.0, rel=1e-4)

    def test_growing_synthetic(self):
        w, g = ringdown_extract(self.synthetic(-0.002, t_end=1500.0))
        assert g == pytest.approx(-0.002, rel=0.01)

    def test_offset_does_not_bias(self):
        w, g = ringdown_extract(self.synthetic(0.001, offset=5.0))
        assert g == pytest.approx(0.001, rel=0.01)
        assert w == pytest.approx(1.0, rel=1e-4)

    def test_insufficient_data(self):
        tr = self.synthetic(0.0, t_end=5.0)
        with pytest.raises(InsufficientDataError):
            ringdown_extract(tr)


class TestSimulate:
    def test_pure_ringdown(self):
        mech = small_mirror(gamma_ratio=0.002)
        absorption = AbsorptionModel(1e5, 1e4)
        dt = 2 * np.pi / (200 * mech.omega_m)
        traj = simulate(mech, absorption, IntensityDrive.cw(0.0), x0=1e-9,
                        v0=0.0, t_end=60.0 / mech.gamma_m * 0.02, dt=dt)
        w, g = ringdown_extract(traj)
        assert g == pytest.approx(mech.gamma_m, rel=1e-3)
        wd = mech.omega_m * np.sqrt(1 - (mech.gamma_m / mech.omega_m) ** 2)
        assert w == pytest.approx(wd, rel=1e-6)

    def test_energy_decay_decoupled(self):
        # Theta couplings off: mechanical energy decays as exp(-2 gamma t)
        mech = small_mirror(gamma_ratio=0.005, theta_fh=0.0)
        absorption = AbsorptionModel(1e5, 1e4)
        dt = 2 * np.pi / (200 * mech.omega_m)
        t_end = 5.0 / mech.gamma_m  # ten energy decay times
        traj = simulate(mech, absorption, IntensityDrive.cw(1.0), x0=1e-9,
                        v0=0.0, t_end=t_end, dt=dt, store_every=4)
        energy = 0.5 * mech.m_m * (traj.v ** 2
                                   + (mech.omega_m * traj.x) ** 2)
        sl = slice(traj.time.size // 20, None)
        slope = np.polyfit(traj.time[sl], np.log(energy[sl]), 1)[0]
        assert slope == pytest.approx(-2.0 * mech.gamma_m, rel=0.01)

    def test_decoupled_temperature_relaxes(self):
        mech = MechParams(m_m=1e-12, omega_m=2 * np.pi * 4e5,
                          gamma_m=2 * np.pi * 4e5 * 0.005, theta_ph=0.0,
                          theta_fh=0.0, kappa_m=2 * np.pi * 4e5 * 0.02)
        absorption = AbsorptionModel(1e5, 1e4)
        l0 = 2.5
        dt = 2 * np.pi / (100 * mech.omega_m)
        traj = simulate(mech, absorption, IntensityDrive.cw(l0), x0=0.0,
                        v0=0.0, t_end=300.0 / mech.kappa_m * 2, dt=dt,
                        store_every=50)
        t_pred = l0 * absorption.a_h0 / mech.kappa_m
        assert traj.t_r_rel[-1] == pytest.approx(t_pred, rel=1e-6)

    def test_comb_drive_mean_heating(self):
        # unit-mean pulse train gives the same average temperature as CW
        mech = MechParams(m_m=1e-12, omega_m=2 * np.pi * 4e5,
                          gamma_m=0.0, theta_ph=0.0, theta_fh=0.0,
                          kappa_m=2 * np.pi * 4e5 * 0.05)
        absorption = AbsorptionModel(1e5, 0.0)
        drive = IntensityDrive.comb(1.0, beta=0.4,
                                    omega_pulse=mech.omega_m * 0.31)
        dt = 2 * np.pi / (400 * mech.omega_m)
        traj = simulate(mech, absorption, drive, x0=0.0, v0=0.0,
                        t_end=400.0 / mech.kappa_m * 0.5, dt=dt,
                        store_every=20)
        t_pred = absorption.a_h0 / mech.kappa_m
        tail = traj.t_r_rel[traj.time > 100.0 / mech.kappa_m * 0.5]
        assert np.mean(tail) == pytest.approx(t_pred, rel=2e-3)

    def test_step_guard_and_store_every(self):
        mech = small_mirror()
        with pytest.raises(ValueError):
            simulate(mech, AbsorptionModel(1e5, 1e4), IntensityDrive.cw(0.0),
                     1e-9, 0.0, 1e-3, dt=2 * np.pi / (10 * mech.omega_m))

    def test_instability_reported_with_state(self):
        # far above SEO threshold the displacement leaves |k_A1 x| <= 1; the
        # error carries the halt time, the end of the step that left, and
        # the samples stored before it
        mech = small_mirror(gamma_ratio=0.004, theta_fh=-1e-9)
        absorption = AbsorptionModel(1e5, +1e4)
        l_star = seo_threshold(mech, absorption)
        dt = 2 * np.pi / (100 * mech.omega_m)
        with pytest.raises(InstabilityError) as err:
            simulate(mech, absorption, IntensityDrive.cw(40.0 * l_star),
                     x0=3e-6, v0=0.0, t_end=1.0, dt=dt, store_every=5)
        traj, t = err.value.trajectory, err.value.t
        assert np.all(np.isfinite(traj.x))
        assert traj.time[-1] < t <= traj.time[-1] + 5 * dt
        assert t == round(t / dt) * dt       # a step's end time
        assert f"at t = {t:.6g} s" in str(err.value)
        assert t < 1.0

    def test_halts_when_thermal_frequency_reaches_zero(self):
        # with Theta_PH < 0 the heating pulses drive w = omega_m
        # + Theta_PH T_R down to zero, where the restoring force vanishes
        # and the closed-loop law's x_eq = Theta_FH T_R/(m w^2) is
        # singular: the run halts there instead of integrating on to
        # T_R ~ 1.6e4 K (Theta_PH T_R ~ -13 omega_m) by the 64th cycle
        omega_m = 2 * np.pi * 4e5
        mech = small_mirror(gamma_ratio=0.05, theta_ph=-2e3)
        absorption = AbsorptionModel(1e5, -1e4, 3e6)
        t_n = 0.01 * omega_m
        l_star = mml_threshold(mech, absorption, t_n)
        drive = IntensityDrive.closed_loop(1.03 * l_star, 1e4 * omega_m * 1e4,
                                           beta_floor=0.01, t_n=t_n)
        a0 = t_n / (omega_m * abs(absorption.k_a1))
        dt = 2 * np.pi / (5000 * omega_m)
        t_end = 64 * 2 * np.pi / omega_m
        with pytest.raises(InstabilityError,
                           match="thermal frequency") as err:
            simulate(mech, absorption, drive, x0=a0, v0=0.0, t_end=t_end,
                     dt=dt, store_every=1)
        t_r = err.value.trajectory.t_r_rel
        t_zero = omega_m / abs(mech.theta_ph)   # T_R where w = 0
        assert err.value.t < t_end
        assert np.all(t_r < t_zero)


def rk4_si_reference(mech, absorption, drive, x0, v0, dt, n):
    """(x, v, T_R) stepped in SI by engine.rk4_step, from drive_intensity
    and AbsorptionModel.value: an independent route to simulate()."""
    def derivative(t, y):
        x, v, t_r = y
        w = mech.omega_m + mech.theta_ph * t_r
        heat = drive_intensity(drive, mech, absorption, t, x, v, t_r) \
            * absorption.value(x)
        return np.array([v,
                         -2.0 * mech.gamma_m * v - w * w * x
                         + mech.theta_fh * t_r / mech.m_m,
                         heat - mech.kappa_m * t_r])

    states = [np.array([x0, v0, 0.0])]
    for i in range(n):
        states.append(rk4_step(states[-1], derivative, i * dt, dt))
    return np.array(states).T


class TestSimulateReference:
    @pytest.mark.parametrize("mode,theta_ph", [
        ("closed_loop", 0.0), ("closed_loop", -2e3),
        ("closed_loop_mid_beta", -2e3), ("closed_loop_at_rest", -2e3),
        ("cw", -2e3), ("comb", -2e3)])
    def test_matches_si_rk4(self, mode, theta_ph):
        # the nondimensional RK4 of simulate() against the SI one: RK4
        # commutes with rescaling time and state, so they agree to rounding.
        # The closed loop's beta = t_n/(2 mu_M) sits at beta_floor for a
        # coupling of 1e4 omega_m |k_A1| and near 0.5, between the floor and
        # the flat cap 30, for omega_m |k_A1|; a start at rest has amplitude
        # 0, so beta = 30 and psi = 0 at the first stage
        omega_m = 2 * np.pi * 4e5
        mech = MechParams(m_m=1e-12, omega_m=omega_m, gamma_m=0.05 * omega_m,
                          theta_ph=theta_ph, theta_fh=-1e-9,
                          kappa_m=0.01 * omega_m)
        absorption = AbsorptionModel(1e5, -1e4, 3e6)
        t_n = 0.01 * omega_m
        a0 = t_n / (omega_m * abs(absorption.k_a1))
        l0 = 50.0   # T_R ~ 45 K in 4 cycles: a 3-4% thermal frequency shift
        locked = IntensityDrive.closed_loop(
            l0, 1e4 * omega_m * abs(absorption.k_a1), beta_floor=0.05,
            t_n=t_n)
        drive = {
            "closed_loop": locked,
            "closed_loop_mid_beta": IntensityDrive.closed_loop(
                l0, omega_m * abs(absorption.k_a1), beta_floor=0.05,
                t_n=t_n),
            "closed_loop_at_rest": locked,
            "cw": IntensityDrive.cw(l0),
            "comb": IntensityDrive.comb(l0, beta=0.4,
                                        omega_pulse=0.31 * omega_m),
        }[mode]
        if mode == "closed_loop_at_rest":
            a0 = 0.0
        dt = 2 * np.pi / (500 * omega_m)
        n = 2000
        traj = simulate(mech, absorption, drive, x0=a0, v0=0.0,
                        t_end=n * dt, dt=dt, store_every=1)
        ref = rk4_si_reference(mech, absorption, drive, a0, 0.0, dt, n)
        for got, want in zip((traj.x, traj.v, traj.t_r_rel), ref):
            assert got.size == want.size == n + 1
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class TestLinearResponseOracle:
    def test_small_kappa_limit_magnitude(self):
        absorption = AbsorptionModel(1e5, +1e4)
        for ratio in (0.1, 0.01, 0.001):
            mech = small_mirror(kappa_ratio=ratio, theta_fh=-1e-9)
            dg, _ = linear_response_oracle(mech, absorption, 2.0,
                                           mech.omega_m)
            g0 = gamma_h0(mech, absorption, 2.0)
            assert abs(abs(dg) / abs(g0) - 1.0) <= 1.5 * ratio ** 2

    def test_sign_matches_gamma_h0(self):
        mech = small_mirror(theta_fh=-1e-9)
        for k_a1 in (+1e4, -1e4):
            absorption = AbsorptionModel(1e5, k_a1)
            dg, _ = linear_response_oracle(mech, absorption, 2.0,
                                           mech.omega_m)
            assert np.sign(dg) == np.sign(gamma_h0(mech, absorption, 2.0))

    def test_fixed_point_consistency(self):
        mech = small_mirror(theta_ph=-5e2, theta_fh=-1e-9)
        absorption = AbsorptionModel(1e5, 1e4, 1e6)
        t_bar, x_bar, w_t = cw_fixed_point(mech, absorption, 3.0)
        assert t_bar == pytest.approx(
            3.0 * absorption.value(x_bar) / mech.kappa_m, rel=1e-12)
        assert x_bar == pytest.approx(
            mech.theta_fh * t_bar / (mech.m_m * w_t ** 2), rel=1e-12)

    def test_oracle_equivalence_random_sets(self):
        # ringdown-extracted (omega, gamma) from the full simulation vs the
        # analytic linear response, 20 random linear-regime parameter sets
        rng = np.random.default_rng(2718)
        for trial in range(20):
            omega_m = 2 * np.pi * 10 ** rng.uniform(4.5, 6.0)
            m_m = 10 ** rng.uniform(-13.0, -11.0)
            kappa_m = omega_m * rng.uniform(0.02, 0.05)
            gamma_m = kappa_m * rng.uniform(0.2, 0.35)
            a_h0 = 10 ** rng.uniform(3.0, 6.0)
            k_a1 = float(rng.choice([-1.0, 1.0])) * 10 ** rng.uniform(3, 5)
            theta_fh = -10 ** rng.uniform(-10.0, -8.0)
            # linear regime: keep the first-order shift small enough that
            # second-order terms stay below the 1e-4 frequency tolerance
            target = min(rng.uniform(0.1, 0.3) * gamma_m, 2e-3 * omega_m)
            l0 = target * 2 * m_m * (kappa_m ** 2 + omega_m ** 2) \
                / abs(k_a1 * theta_fh * a_h0)
            mech = MechParams(m_m=m_m, omega_m=omega_m, gamma_m=gamma_m,
                              theta_ph=0.0, theta_fh=theta_fh,
                              kappa_m=kappa_m)
            absorption = AbsorptionModel(a_h0=a_h0, k_a1=k_a1)
            t_bar, x_bar, w_t = cw_fixed_point(mech, absorption, l0)
            x_amp = 5e-3 / abs(k_a1)
            # inside the simulator's absorption-expansion domain
            assert abs(k_a1) * (abs(x_bar) + x_amp) < 0.5

            dg, dw = linear_response_oracle(mech, absorption, l0, w_t)
            gamma_pred = gamma_m + dg
            omega_pred = np.sqrt((omega_m + dw) ** 2 - gamma_pred ** 2)

            dt = 2 * np.pi / (220 * omega_m)
            t_settle = 12.0 / kappa_m
            t_end = t_settle + 6.0 / gamma_pred
            traj = simulate(mech, absorption, IntensityDrive.cw(l0),
                            x0=x_bar + x_amp, v0=0.0, t_end=t_end, dt=dt)
            keep = traj.time > t_settle
            sliced = MirrorTrajectory(traj.time[keep], traj.x[keep],
                                      traj.v[keep], traj.t_r_rel[keep])
            w_fit, g_fit = ringdown_extract(sliced)
            assert g_fit == pytest.approx(gamma_pred, rel=0.02), \
                f"trial {trial}"
            assert w_fit == pytest.approx(omega_pred, rel=1e-4), \
                f"trial {trial}"


class TestProbeGrowth:
    @pytest.mark.parametrize("mode", ["cw", "closed_loop"])
    def test_findings_match_the_stored_windows(self, mode):
        # the finding holds exactly when each window the probe reads holds
        # one of the times simulate() stores; the probe refuses the rest
        mech, dt = small_mirror(), 2 * np.pi / (50 * 2 * np.pi * 4e5)
        drive = IntensityDrive(l0=1.0, mode=mode, beta_floor=0.05, t_n=1.0)
        (lo, hi), late = thermomech.REFERENCE_WINDOW, thermomech.LATE_WINDOW
        # a thermal time of lo*dt: any stored step is past the settling
        kappa_m = 1.0 / (lo * dt)
        for n_steps in range(1, 61):
            for store_every in range(1, 66):
                t = np.arange(0, n_steps + 1, store_every) * dt
                t_frac = t / t[-1] if t.size > 1 else t
                ref = np.any((t_frac > lo) & (t_frac <= hi))
                full = np.any(t_frac > late) and (mode == "closed_loop" or ref)
                findings = thermomech.probe_constraint_findings(
                    mode, 1e-8, n_steps * dt, dt, store_every, kappa_m)
                assert (findings == []) == full, (n_steps, store_every)
        with pytest.raises(ValueError, match="store_every"):
            thermomech.probe_growth(mech, AbsorptionModel(1e5, 1e4), drive,
                                    1e-8, dt, dt, 2)

    def test_reference_window_opens_after_thermal_settling(self):
        # a reference window that opens before one thermal time compares
        # the late amplitude with a transient: only the closed-loop probe,
        # whose reference is |x0|, is exempt
        mech = small_mirror()
        dt = 2 * np.pi / (50 * mech.omega_m)
        lo = thermomech.REFERENCE_WINDOW[0]
        settle = int(np.ceil(1.0 / (lo * mech.kappa_m * dt)))   # in steps
        # t_last, not t_end, counts: a step count that store_every does not
        # divide ends short of t_end
        short = next(k for k in range(2, 10) if settle % k)
        for n_steps, store_every, valid in (
                (settle, 1, True), (settle - 1, 1, False),
                (settle, short, False), (settle + short, short, True)):
            cw = thermomech.probe_constraint_findings(
                "cw", 1e-8, n_steps * dt, dt, store_every, mech.kappa_m)
            assert (cw == []) == valid, (n_steps, store_every, cw)
            assert valid or "kappa_m" in cw[0]
            assert thermomech.probe_constraint_findings(
                "closed_loop", 1e-8, n_steps * dt, dt, store_every,
                mech.kappa_m) == []
        with pytest.raises(ValueError, match="kappa_m"):
            thermomech.probe_growth(
                mech, AbsorptionModel(1e5, 1e4), IntensityDrive.cw(1.0),
                1e-8, (settle - 1) * dt, dt, 1)


def plain_bisection(grows, l_star, rtol):
    """The search as written before it reused results: both ends, then
    every midpoint, each probed."""
    calls = []

    def probe(l0):
        calls.append(l0)
        return grows(l0)
    lo, hi = 0.8 * l_star, 1.25 * l_star
    lo_grew = probe(lo)
    hi_grew = probe(hi)
    if lo_grew or not hi_grew:
        return None, calls
    while (hi - lo) / l_star > rtol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return (lo, hi), calls


class TestBisectThreshold:
    """The threshold search on synthetic classifiers; nothing simulated."""

    @staticmethod
    def recorder(grows):
        calls = []

        def probe(l0):
            calls.append(l0)
            return grows(l0)
        return probe, calls

    def test_step_functions_match_plain_bisection(self):
        rng = np.random.default_rng(12)
        l_star = 3.7e4
        for _ in range(300):
            rtol = float(rng.choice([0.3, 0.05, 0.004, 1e-9]))
            crossing = l_star * rng.uniform(0.6, 1.4)
            inclusive = bool(rng.integers(2))

            def grows(l0, c=crossing, inclusive=inclusive):
                return l0 >= c if inclusive else l0 > c
            expected, plain_calls = plain_bisection(grows, l_star, rtol)
            # known results at random points, the plain search's own
            # points among them, classified by the same step
            pool = np.concatenate([l_star * rng.uniform(0.3, 2.0, 8),
                                   rng.choice(plain_calls, 3)])
            known = [(float(l0), grows(l0))
                     for l0 in rng.choice(pool, rng.integers(0, 6))]
            probe, calls = self.recorder(grows)
            bracket, probes = bisect_threshold(probe, l_star, rtol, known)
            assert bracket == expected, (crossing, known)
            lo, hi = plain_calls[:2]
            wide = (hi - lo) / l_star > rtol
            assert len(calls) <= len(plain_calls)
            if expected is not None and wide:
                assert len(calls) < len(plain_calls)
            assert [l0 for l0, _ in probes] == calls
            assert all(grew == grows(l0) for l0, grew in probes)
            # the first midpoint, the end it leaves open, then plain
            # bisection's midpoints: [lo, hi, m1, m2, ...] becomes
            # [m1, lo if m1 grew else hi, m2, ...], less the points a known
            # result decides; without a midpoint a growing low end stops it
            if wide:
                m1 = 0.5 * (lo + hi)
                order = [m1, lo if grows(m1) else hi] + plain_calls[3:]
            else:
                order = [lo] if grows(lo) else [lo, hi]
            decayed = max((l0 for l0, g in known if not g), default=-math.inf)
            grown = min((l0 for l0, g in known if g), default=math.inf)
            assert calls == [l0 for l0 in order if decayed < l0 < grown]
            # never twice, and never at a point already known
            assert len(set(calls)) == len(calls)
            assert not set(calls) & {l0 for l0, _ in known}

    def test_known_result_decides_its_side(self):
        # the threshold workload's case: the first probe, at 1.05 L*, grew,
        # which decides the high end and three of the four midpoints; the
        # first midpoint decays and decides the low end
        l_star = 1.0e4
        probe, calls = self.recorder(lambda l0: l0 > 1.038 * l_star)
        bracket, probes = bisect_threshold(probe, l_star, 0.05,
                                           [(1.05 * l_star, True)])
        assert probes == [(1.025 * l_star, False)]
        assert bracket == plain_bisection(lambda l0: l0 > 1.038 * l_star,
                                          l_star, 0.05)[0]
        assert bracket[1] - bracket[0] <= 0.05 * l_star
        # a growth below the span decides all of it: no probe, no bracket
        probe, calls = self.recorder(lambda l0: True)
        assert bisect_threshold(probe, l_star, 0.05,
                                [(0.5 * l_star, True)]) == (None, [])
        assert calls == []

    @pytest.mark.parametrize("crossing, grew", [(0.7, True), (1.3, False)])
    def test_no_sign_change_ends_at_the_open_end(self, crossing, grew):
        # the low end grows (the high end decays): the first midpoint grows
        # (decays), and the end it leaves open is the last probe
        l_star = 1.0e4
        lo, hi = 0.8 * l_star, 1.25 * l_star
        assert bisect_threshold(lambda l0: l0 > crossing * l_star, l_star,
                                0.05) == (None, [(0.5 * (lo + hi), grew),
                                                 (lo if grew else hi, grew)])

    @pytest.mark.parametrize("rtol", [0.45, 0.5, 2.0])
    def test_span_within_rtol_probes_the_ends_only(self, rtol):
        # (1.25 - 0.8) l_star / l_star rounds below 0.45 at l_star = 1
        l_star = 1.0
        for crossing in (0.7, 1.0, 1.3):
            def grows(l0, c=crossing):
                return l0 > c
            probe, calls = self.recorder(grows)
            bracket, _ = bisect_threshold(probe, l_star, rtol)
            assert bracket == plain_bisection(grows, l_star, rtol)[0]
            assert calls == ([0.8] if crossing < 0.8 else [0.8, 1.25])

    def test_known_ends_leave_only_midpoints(self):
        l_star = 1.0e4
        lo, hi = 0.8 * l_star, 1.25 * l_star

        def grows(l0):
            return l0 > 1.1 * l_star
        expected, plain_calls = plain_bisection(grows, l_star, 0.01)
        for d, g in ((lo, hi), (0.9 * l_star, 1.2 * l_star)):
            probe, calls = self.recorder(grows)
            bracket, _ = bisect_threshold(probe, l_star, 0.01,
                                          [(d, False), (g, True)])
            assert bracket == expected
            assert calls == [l0 for l0 in plain_calls[2:] if d < l0 < g]
            assert lo < min(calls) and max(calls) < hi

    def test_non_monotone_brackets_hold_a_sign_change(self):
        rng = np.random.default_rng(7)
        l_star = 1.0
        for _ in range(400):
            table = {}

            def grows(l0):
                # an arbitrary answer per point, fixed once drawn
                return table.setdefault(l0, bool(rng.integers(2)))
            known = [(float(l0), grows(l0))
                     for l0 in rng.uniform(0.5, 1.5, rng.integers(0, 4))]
            decays = [l0 for l0, g in known if not g]
            growths = [l0 for l0, g in known if g]
            if decays and growths and max(decays) >= min(growths):
                with pytest.raises(ValueError, match="not monotone"):
                    bisect_threshold(grows, l_star, 0.01, known)
                continue
            bracket, probes = bisect_threshold(grows, l_star, 0.01, known)
            seen = known + probes
            if bracket is None:
                continue
            lo, hi = bracket
            assert (hi - lo) / l_star <= 0.01
            assert any(lo <= d < g <= hi for d, dg in seen if not dg
                       for g, gg in seen if gg), (bracket, seen)

    @pytest.mark.parametrize("rtol", [1e-13, 1e-17, 0.0, -0.1, math.nan])
    def test_too_small_rtol_raises(self, rtol):
        assert search_constraint_findings(rtol)
        probe, calls = self.recorder(lambda l0: l0 > 1.0)
        with pytest.raises(ValueError, match="search_rtol"):
            bisect_threshold(probe, 1.0, rtol)
        assert calls == []
        assert search_constraint_findings(1e-12) == []
        assert bisect_threshold(probe, 1.0, 1e-12)[0] is not None

    @pytest.mark.parametrize("l_star", [0.0, -1.0, math.inf, math.nan])
    def test_l_star_must_be_positive_and_finite(self, l_star):
        with pytest.raises(ValueError, match="l_star"):
            bisect_threshold(lambda l0: True, l_star, 0.05)


class TestClosedLoopDrive:
    def test_pulses_arrive_at_minimal_absorption(self):
        # steady mechanical mode locking: comb peaks coincide with the
        # turning point where A_H(x) is smallest
        omega_m = 2 * np.pi * 4e5
        mech = MechParams(m_m=1e-12, omega_m=omega_m, gamma_m=0.05 * omega_m,
                          theta_ph=0.0, theta_fh=-1e-9,
                          kappa_m=0.01 * omega_m)
        absorption = AbsorptionModel(1e5, -1e4)
        t_n = 0.01 * omega_m
        l_star = mml_threshold(mech, absorption, t_n)
        a0 = t_n / (omega_m * abs(absorption.k_a1))
        drive = IntensityDrive.closed_loop(l_star, 1e4 * omega_m * 1e4,
                                           beta_floor=0.05, t_n=t_n)
        dt = 2 * np.pi / (2000 * omega_m)
        n_cycles = 160
        traj = simulate(mech, absorption, drive, x0=a0, v0=0.0,
                        t_end=2 * np.pi / omega_m * n_cycles, dt=dt,
                        store_every=1)
        # analyze after the thermal equilibrium has settled (t >> 1/kappa)
        late = traj.time > 0.85 * traj.time[-1]
        x_late = traj.x[late]
        lh = np.array([drive_intensity(drive, mech, absorption, t, x, v, tr)
                       for t, x, v, tr in
                       zip(traj.time[late], x_late, traj.v[late],
                           traj.t_r_rel[late])])
        a_h = absorption.a_h0 * (1.0 + absorption.k_a1 * x_late)
        # pulse centers: local maxima of the drive above 10x the mean
        big = lh > 10.0 * drive.l0
        interior = np.zeros_like(big)
        interior[1:-1] = big[1:-1] & (lh[1:-1] >= lh[:-2]) \
            & (lh[1:-1] >= lh[2:])
        centers = np.where(interior)[0]
        assert centers.size >= 10
        lo, hi = a_h.min(), a_h.max()
        assert np.all(a_h[centers] < lo + 0.1 * (hi - lo))

    def test_beta_schedule_follows_amplitude(self):
        # weaker motion -> narrower modulation (larger beta, flatter train)
        omega_m = 2 * np.pi * 4e5
        mech = MechParams(m_m=1e-12, omega_m=omega_m, gamma_m=0.0,
                          theta_ph=0.0, theta_fh=0.0, kappa_m=0.01 * omega_m)
        absorption = AbsorptionModel(1e5, -1e4)
        drive = IntensityDrive.closed_loop(1.0, coupling=1.0, beta_floor=0.01,
                                           t_n=1.0)
        # amplitude chosen so t_n/(2 c a) = 2.0
        a = 0.25
        peak = drive_intensity(drive, mech, absorption, 0.0, a, 0.0, 0.0)
        from ringlock.comb import comb_closed
        assert peak == pytest.approx(comb_closed(0.0, 2.0), rel=1e-9)
        # tiny amplitude: effectively flat at L0
        tiny = drive_intensity(drive, mech, absorption, 0.0, 1e-12, 0.0, 0.0)
        assert tiny == pytest.approx(1.0, rel=1e-9)

    def test_drive_validation(self):
        with pytest.raises(ValueError):
            IntensityDrive(l0=-1.0)
        # zero, positive linewidths below the comb's BETA_MIN and above its
        # BETA_MAX: the constructor is the only check simulate's fused laws
        # rely on
        for beta in (0.0, 1e-8, 800.0):
            with pytest.raises(ValueError):
                IntensityDrive.comb(1.0, beta=beta, omega_pulse=1.0)
        for beta_floor in (0.0, 1e-7, 800.0):
            with pytest.raises(ValueError):
                IntensityDrive.closed_loop(1.0, coupling=1.0,
                                           beta_floor=beta_floor, t_n=1.0)
        with pytest.raises(ValueError):
            IntensityDrive(l0=1.0, mode="sawtooth")
