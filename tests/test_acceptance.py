"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 2 and 3 compare long-run stochastic statistics against
weak-noise limit formulas whose first-order corrections at the pinned
parameters (beta_N = 0.1, N = 64) exceed the stated tolerances; those two
tests measure honestly, print the quantified discrepancy, and fail.  See
the README for the analysis.
"""

import time

import numpy as np
import pytest
from scipy import special

from ringlock import adler, comb, lattice, pulses, thermomech
from ringlock.cli import ExperimentConfig, run_experiment
from ringlock.engine import SpectrumResult


def report(name: str, passed: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_criterion_01_comb_identity():
    """Series oracle vs closed form at 1e-12; unit mean at 1e-8; < 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(0.0, 2.0 * np.pi)
        beta = rng.uniform(0.01, 3.0)
        k = comb.adaptive_truncation(beta)
        err = abs(comb.comb_series(s, beta, k) - comb.comb_closed(s, beta))
        worst = max(worst, err)
    mean_err = 0.0
    for beta in (0.05, 0.5, 2.0):
        grid = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        mean_err = max(mean_err,
                       abs(comb.comb_closed(grid, beta).mean() - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and mean_err <= 1e-8 and elapsed < 1.0
    report("C1 comb identity",
           ok, f"max |series-closed| = {worst:.2e} (tol 1e-12), "
               f"max |mean-1| = {mean_err:.2e} (tol 1e-8), {elapsed:.2f} s")
    assert worst <= 1e-12
    assert mean_err <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_gibbs_steady_state():
    """Langevin chain vs the weak-noise Gibbs values at beta_N = 0.1.

    The exact stationary link distribution is ~ exp(cos(d)/(2 beta_N)),
    whose second moment is 2 beta_N (1 + beta_N + ...) and whose link
    correlation is I1/I0 = exp(-beta_N (1 + beta_N/2 + ...)); at
    beta_N = 0.1 these first-order corrections (about +13.6% and -1.3% per
    link) are larger than the stated 5% / 3-sigma tolerances, so this
    criterion fails against the weak-noise targets while the simulation
    itself is correct (see TestDetailedBalance in test_lattice.py).
    """
    t0 = time.perf_counter()
    cfg = lattice.LatticeConfig(n_modes=64, mu_m=1.0, t_n=0.2, dt=1e-3,
                                seed=20)
    stats = lattice.run_lattice(cfg, n_steps=10_000_000, burn_in=10_000,
                                sample_every=50, max_lag=10, n_batches=25)
    oracle = lattice.sample_gibbs(0.1, 64, seed=21, n_samples=10_000)
    elapsed = time.perf_counter() - t0

    var_ok = abs(stats.diff_sq / 0.2 - 1.0) <= 0.05
    corr_ok = True
    corr_lines = []
    for k in range(1, 11):
        oc = np.cos(oracle[:, :-k] - oracle[:, k:])
        o_mean = float(oc.mean())
        o_se = float(oc.mean(axis=1).std(ddof=1) / np.sqrt(oracle.shape[0]))
        se = float(np.hypot(stats.corr_se[k], o_se))
        gap = stats.corr[k].real - o_mean
        if abs(gap) > 3.0 * se:
            corr_ok = False
            corr_lines.append(f"k={k}: gap {gap:+.4f} vs 3SE {3 * se:.4f}")

    kappa = 1.0 / 0.2
    exact_var = None
    try:
        from scipy import integrate as _int
        num = _int.quad(lambda d: d * d * np.exp(kappa * (np.cos(d) - 1)),
                        -np.pi, np.pi)[0]
        den = _int.quad(lambda d: np.exp(kappa * (np.cos(d) - 1)),
                        -np.pi, np.pi)[0]
        exact_var = num / den
    except Exception:
        pass
    a1 = special.iv(1, kappa) / special.iv(0, kappa)
    detail = (f"<d^2> = {stats.diff_sq:.4f} vs weak-noise 0.2 +-5% "
              f"(exact stationary value {exact_var:.4f}); link corr "
              f"{stats.corr[1].real:.4f} vs exp(-0.1) = {np.exp(-0.1):.4f} "
              f"(exact I1/I0 = {a1:.4f}); {elapsed:.0f} s")
    report("C2 Gibbs steady state", var_ok and corr_ok and elapsed < 120.0,
           detail)
    assert elapsed < 120.0
    assert var_ok, (
        f"measured <(th_m-1 - th_m)^2> = {stats.diff_sq:.4f}, stated target "
        f"0.2 within 5%; the exact stationary value for these parameters is "
        f"{exact_var:.4f} (weak-noise correction +{exact_var/0.2-1:.1%}), "
        "so the stated tolerance is unattainable for a correct simulation")
    assert corr_ok, (
        "Langevin link correlations differ from the Gaussian weak-noise "
        "oracle by the known O(beta_N) systematic (exact I1/I0 = "
        f"{a1:.4f} vs e^-0.1 = {np.exp(-0.1):.4f} per link): "
        + "; ".join(corr_lines))


def test_criterion_03_comb_limit_of_lattice():
    """Ensemble intensity vs comb function, pointwise within 3 MC errors.

    The exact ensemble mean of the estimator at finite N carries the
    triangle (finite-chain pair-count) weight 1 - |k|/N on each Fourier
    coefficient, a deficit of relative size ~ 1/(N beta) = 16% at the pulse
    peak for N = 64, beta = 0.1 -- far outside Monte-Carlo error, so the
    pointwise comparison against the N -> infinity comb function fails.
    The estimator itself is unbiased for the finite-N expectation (see
    test_lattice.py) and converges to the comb function as N grows.
    """
    t0 = time.perf_counter()
    beta, n = 0.1, 64
    theta = lattice.sample_gibbs(beta, n, seed=30, n_samples=2000)
    amps = lattice.ModeAmplitudes(r=np.ones(n))
    s = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    mean, se = lattice.ensemble_intensity(theta, amps, s)
    target = comb.comb_closed(s, beta)
    z = np.abs(mean - target) / se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(z <= 3.0)) and elapsed < 60.0
    peak_gap = mean[0] - target[0]
    report("C3 comb limit of lattice", ok,
           f"worst |z| = {z.max():.1f} at s = {s[int(z.argmax())]:.2f}; "
           f"peak deficit {peak_gap:+.2f} of {target[0]:.2f} "
           f"(finite-N prediction {-target[0] / (n * beta) * 1.0:+.2f} "
           f"scale); {elapsed:.1f} s")
    assert elapsed < 60.0
    assert np.all(z <= 3.0), (
        f"{int(np.sum(z > 3))}/48 grid points outside 3 MC standard "
        f"errors; worst z = {z.max():.1f}. The ensemble mean at N = 64 "
        "carries the triangle weight (1-|k|/N) on each Fourier "
        "coefficient, a ~1/(N beta) = 16% peak deficit relative to the "
        "comb function, so pointwise 3-sigma agreement with the infinite-N "
        "form is unattainable at these parameters")


def test_criterion_04_pulse_convergence():
    """Round-trip map vs tanh solution: 1e-3 at g_m = 1e-3, O(g_m) scaling."""
    t0 = time.perf_counter()
    ratios = {}
    for gm in (1e-2, 1e-3, 1e-4):
        n = int(5.0 / gm)
        traj = pulses.roundtrip_iterate(0.0, gm, n).real
        steps = np.arange(1, n + 1)
        exact = gm * np.tanh(gm * steps)
        rel = np.abs(traj[1:] - exact) / exact
        ratios[gm] = rel.max() / gm
    elapsed = time.perf_counter() - t0
    dev_at_1e3 = ratios[1e-3] * 1e-3
    scaling_ok = all(0.3 <= r <= 0.7 for r in ratios.values())
    ok = dev_at_1e3 <= 1e-3 and scaling_ok and elapsed < 10.0
    report("C4 pulse convergence", ok,
           f"max rel dev at g_m=1e-3: {dev_at_1e3:.2e} (tol 1e-3); "
           f"dev/g_m = {[f'{ratios[g]:.2f}' for g in (1e-2, 1e-3, 1e-4)]} "
           f"(O(g_m) scaling); {elapsed:.2f} s")
    assert dev_at_1e3 <= 1e-3
    assert scaling_ok
    assert elapsed < 10.0


def test_criterion_05_composite_coefficients():
    """compose(time-like, freq-like) = (1+g_m^2, 1/gF, gF g_m^2, 1)."""
    cases = [(2.0 + 1.0j, 4.0 - 0.5j), (1e-6, 1e12), (0.3, 0.7 + 0.1j)]
    ok = True
    for gt, gf in cases:
        el = pulses.compose(pulses.element_time_like(gt),
                            pulses.element_freq_like(gf))
        b = 1.0 / gf
        structural = (el.b == b and el.c == gt and el.d == 1
                      and el.a == 1.0 + b * gt)
        gm2 = gt / gf
        quoted = (abs(el.a - (1.0 + gm2)) <= 4e-16 * abs(el.a)
                  and abs(el.c - gf * gm2) <= 4e-16 * abs(el.c))
        ok = ok and structural and quoted
    report("C5 composite coefficients", ok,
           "coefficients equal (1+g_m^2, 1/gamma_F, gamma_F g_m^2, 1) "
           "exactly (structural) and within 2 ulp (quoted form)")
    assert ok


def test_criterion_06_adler_locking():
    """Locking grid, mean slope, closed form, and sideband spectrum."""
    t0 = time.perf_counter()
    # locked iff |i_b| <= 1 on the grid
    lock_ok = True
    for i_b in (0.0, 0.5, 0.99):
        traj = adler.integrate_adler(i_b, 0.0, 1000.0, 0.01)
        lock_ok &= bool(np.ptp(traj.phi) < 2 * np.pi)
    for i_b in (1.01, 2.0, 5.0):
        traj = adler.integrate_adler(i_b, 0.0, 1000.0, 0.01)
        lock_ok &= bool(traj.phi[-1] - traj.phi[0] > 4 * np.pi)

    # unlocked mean slope over >= 100 beat periods
    traj = adler.integrate_adler(2.0, 0.0, 400.0, 0.005)
    phi = traj.phi - traj.phi[0]
    k_max = int(np.floor(phi[-1] / (2 * np.pi)))
    t_a = np.interp(2 * np.pi, phi, traj.tau)
    t_b = np.interp(2 * np.pi * k_max, phi, traj.tau)
    slope = 2 * np.pi * (k_max - 1) / (t_b - t_a)
    slope_ok = abs(slope - np.sqrt(3.0)) <= 1e-3

    # closed-form phase velocity vs the ODE, aligned at a slip peak
    ode_vel = 2.0 - np.sin(traj.phi)
    sh = np.sqrt(3.0)
    theta_b = np.pi - np.arctan(sh)
    peaks = np.where((ode_vel[1:-1] > ode_vel[:-2])
                     & (ode_vel[1:-1] >= ode_vel[2:])
                     & (ode_vel[1:-1] > 2.9))[0] + 1
    i0 = peaks[peaks > len(ode_vel) // 2][0]
    # quadratic refinement of the peak time
    ta, tb_, tc = traj.tau[i0 - 1: i0 + 2]
    ya, yb, yc = ode_vel[i0 - 1: i0 + 2]
    tau_peak = tb_ + 0.5 * 0.005 * (ya - yc) / (ya - 2 * yb + yc)
    shift = tau_peak - (np.round((tau_peak * sh + theta_b) / (2 * np.pi))
                        * 2 * np.pi - theta_b) / sh
    window = slice(i0 - 4000, i0 + 4000)
    cf_vel = adler.unlocked_closed_form(2.0, traj.tau[window] - shift)
    cf_ok = bool(np.max(np.abs(ode_vel[window] - cf_vel)) <= 1e-3)

    # spectrum at the reference calibration, i_b = 2
    params = adler.AdlerParams(
        omega_am=2 * np.pi * 371.4e3, omega_r=2 * np.pi * 371.3e3,
        v_am0=0.156)
    smap = adler.pd_spectrum_sweep(params, np.array([0.078]), duration=0.7,
                                   sample_rate=2.0 ** 20,
                                   segment_len=2 ** 17)
    beat_hz = params.zeta_am * 0.078 * np.sqrt(3.0) / (2 * np.pi)
    spec = SpectrumResult(freqs=smap.freqs, psd=smap.psd[:, 0],
                          resolution=smap.resolution, segments=smap.segments)
    freqs, amps = adler.sideband_amplitudes(
        spec, params.omega_am / (2 * np.pi), -beat_hz, n_bands=2)
    spacing = abs(freqs[1] - freqs[0])
    spacing_ok = abs(spacing - beat_hz) <= smap.resolution
    rho = np.exp(-np.arccosh(2.0))
    ratio = amps[2] / amps[1]
    ratio_ok = abs(ratio / rho - 1.0) <= 0.10
    elapsed = time.perf_counter() - t0

    ok = lock_ok and slope_ok and cf_ok and spacing_ok and ratio_ok \
        and elapsed < 60.0
    report("C6 Adler locking", ok,
           f"slope {slope:.5f} vs sqrt(3) = {np.sqrt(3):.5f}; "
           f"sideband spacing {spacing:.1f} Hz vs {beat_hz:.1f} Hz "
           f"(bin {smap.resolution:.1f} Hz); amp ratio {ratio:.3f} vs "
           f"e^-b = {rho:.3f}; {elapsed:.0f} s")
    assert lock_ok and slope_ok and cf_ok and spacing_ok and ratio_ok
    assert elapsed < 60.0


def test_criterion_07_calibration_chain():
    """zeta_AM from the measured threshold; i_b = V0/V exactly."""
    params = adler.AdlerParams(
        omega_am=2 * np.pi * 371.4e3, omega_r=2 * np.pi * 371.3e3,
        v_am0=0.156)
    # the 100 Hz detuning is a difference of ~371 kHz floats, so the
    # comparison against the directly-formed 2*pi*100/0.156 carries
    # cancellation noise ~1e-12 relative
    zeta_ok = round(params.zeta_am, 1) == 4027.7 and \
        params.zeta_am == pytest.approx(2 * np.pi * 100.0 / 0.156,
                                        rel=1e-9)
    bias_ok = True
    for v in (0.039, 0.078, 0.156, 0.312, 1.0):
        i_b = adler.normalized_bias(params, v)
        bias_ok &= abs(i_b / (0.156 / v) - 1.0) <= 1e-14
    report("C7 calibration chain", zeta_ok and bias_ok,
           f"zeta_AM = {params.zeta_am:.1f} rad/(s V) (= 4027.7); "
           "i_b = V0/V to machine precision")
    assert zeta_ok and bias_ok


def test_criterion_08_bolometric_oracle_equivalence():
    """Ringdown-extracted (omega, gamma) vs the linear-response oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_g, worst_w = 0.0, 0.0
    for _ in range(20):
        omega_m = 2 * np.pi * 10 ** rng.uniform(4.5, 6.0)
        m_m = 10 ** rng.uniform(-13.0, -11.0)
        kappa_m = omega_m * rng.uniform(0.02, 0.05)
        gamma_m = kappa_m * rng.uniform(0.2, 0.35)
        a_h0 = 10 ** rng.uniform(3.0, 6.0)
        k_a1 = float(rng.choice([-1.0, 1.0])) * 10 ** rng.uniform(3, 5)
        theta_fh = -10 ** rng.uniform(-10.0, -8.0)
        target = min(rng.uniform(0.1, 0.3) * gamma_m, 2e-3 * omega_m)
        l0 = target * 2 * m_m * (kappa_m ** 2 + omega_m ** 2) \
            / abs(k_a1 * theta_fh * a_h0)
        mech = thermomech.MechParams(m_m=m_m, omega_m=omega_m,
                                     gamma_m=gamma_m, theta_ph=0.0,
                                     theta_fh=theta_fh, kappa_m=kappa_m)
        absorption = thermomech.AbsorptionModel(a_h0=a_h0, k_a1=k_a1)
        _t, x_bar, w_t = thermomech.cw_fixed_point(mech, absorption, l0)
        dg, dw = thermomech.linear_response_oracle(mech, absorption, l0, w_t)
        gamma_pred = gamma_m + dg
        omega_pred = np.sqrt((omega_m + dw) ** 2 - gamma_pred ** 2)
        dt = 2 * np.pi / (220 * omega_m)
        t_settle = 12.0 / kappa_m
        traj = thermomech.simulate(
            mech, absorption, thermomech.IntensityDrive.cw(l0),
            x0=x_bar + 5e-3 / abs(k_a1), v0=0.0,
            t_end=t_settle + 6.0 / gamma_pred, dt=dt)
        keep = traj.time > t_settle
        sliced = thermomech.MirrorTrajectory(
            traj.time[keep], traj.x[keep], traj.v[keep], traj.t_r_rel[keep])
        w_fit, g_fit = thermomech.ringdown_extract(sliced)
        worst_g = max(worst_g, abs(g_fit / gamma_pred - 1.0))
        worst_w = max(worst_w, abs(w_fit / omega_pred - 1.0))

    # small-kappa limit of the oracle reproduces |gamma_H0|
    kappa_ok = True
    absorption = thermomech.AbsorptionModel(1e5, 1e4)
    for ratio in (0.1, 0.01, 0.001):
        omega_m = 2 * np.pi * 4e5
        mech = thermomech.MechParams(m_m=1e-12, omega_m=omega_m,
                                     gamma_m=0.002 * omega_m, theta_ph=0.0,
                                     theta_fh=-1e-9,
                                     kappa_m=ratio * omega_m)
        dg, _ = thermomech.linear_response_oracle(mech, absorption, 2.0,
                                                  omega_m)
        g0 = thermomech.gamma_h0(mech, absorption, 2.0)
        kappa_ok &= abs(abs(dg) / abs(g0) - 1.0) <= 1.5 * ratio ** 2
    elapsed = time.perf_counter() - t0
    ok = worst_g <= 0.02 and worst_w <= 1e-4 and kappa_ok \
        and elapsed < 300.0
    report("C8 bolometric oracle equivalence", ok,
           f"worst damping gap {worst_g:.2%} (tol 2%), worst frequency gap "
           f"{worst_w:.2e} (tol 1e-4); small-kappa deviation O(k^2/w^2); "
           f"{elapsed:.0f} s")
    assert worst_g <= 0.02
    assert worst_w <= 1e-4
    assert kappa_ok
    assert elapsed < 300.0


def test_criterion_09_threshold_bracketing():
    """Growth at 1.05 L* and decay at 0.95 L* for both instabilities."""
    t0 = time.perf_counter()
    # self-excited oscillation: CW drive, red detuning
    omega_m = 2 * np.pi * 4e5
    mech = thermomech.MechParams(m_m=1e-12, omega_m=omega_m,
                                 gamma_m=0.005 * omega_m, theta_ph=0.0,
                                 theta_fh=-1e-9, kappa_m=0.01 * omega_m)
    red = thermomech.AbsorptionModel(1e5, +1e4)
    l_seo = thermomech.seo_threshold(mech, red)
    seo_rates = {}
    for fac in (0.95, 1.05):
        traj = thermomech.simulate(
            mech, red, thermomech.IntensityDrive.cw(fac * l_seo),
            x0=1e-4 / red.k_a1, v0=0.0,
            t_end=3.0 / (0.05 * mech.gamma_m),
            dt=2 * np.pi / (150 * omega_m), store_every=3)
        keep = traj.time > 14.0 / mech.kappa_m
        sliced = thermomech.MirrorTrajectory(
            traj.time[keep], traj.x[keep], traj.v[keep], traj.t_r_rel[keep])
        seo_rates[fac] = thermomech.ringdown_extract(sliced)[1]
    seo_ok = seo_rates[0.95] > 0.0 and seo_rates[1.05] < 0.0

    # mechanical mode locking: motion-slaved pulse train, blue detuning,
    # seeded at the amplitude where pulsed pumping equals |gamma_H1|
    mech2 = thermomech.MechParams(m_m=1e-12, omega_m=omega_m,
                                  gamma_m=0.05 * omega_m, theta_ph=0.0,
                                  theta_fh=-1e-9, kappa_m=0.01 * omega_m)
    blue = thermomech.AbsorptionModel(1e5, -1e4)
    t_n = 0.01 * omega_m
    l_mml = thermomech.mml_threshold(mech2, blue, t_n)
    a0 = t_n / (omega_m * abs(blue.k_a1))
    mml_ratio = {}
    for fac in (0.95, 1.05):
        drive = thermomech.IntensityDrive.closed_loop(
            fac * l_mml, coupling=1e4 * omega_m * abs(blue.k_a1),
            beta_floor=0.01, t_n=t_n)
        traj = thermomech.simulate(mech2, blue, drive, x0=a0, v0=0.0,
                                   t_end=2 * np.pi / omega_m * 256,
                                   dt=2 * np.pi / (5000 * omega_m),
                                   store_every=25)
        x_eq = mech2.theta_fh * traj.t_r_rel[-1] / (mech2.m_m * omega_m ** 2)
        tail = traj.time > 0.75 * traj.time[-1]
        amp = np.hypot(traj.x[tail] - x_eq, traj.v[tail] / omega_m).mean()
        mml_ratio[fac] = amp / a0
    mml_ok = mml_ratio[0.95] < 1.0 and mml_ratio[1.05] > 1.0
    elapsed = time.perf_counter() - t0
    ok = seo_ok and mml_ok and elapsed < 300.0
    report("C9 threshold bracketing", ok,
           f"SEO ringdown rates {seo_rates[0.95]:+.1f}/{seo_rates[1.05]:+.1f}"
           f" 1/s at 0.95/1.05 L*; MML amplitude ratios "
           f"{mml_ratio[0.95]:.3f}/{mml_ratio[1.05]:.3f}; {elapsed:.0f} s")
    assert seo_ok
    assert mml_ok
    assert elapsed < 300.0


def test_criterion_10_noise_chain_numbers():
    """Amplifier noise figure, T_N chain, mode count, threshold ratio."""
    t0 = time.perf_counter()
    omega_m = 2 * np.pi * 368.2e3
    chain = thermomech.NoiseChain(
        g_oa=1600.0, n_pi=1.25, gamma_om=0.1 * omega_m, n_p=2e6,
        lambda_l=1550e-9, delta_lambda=0.2e-9, l_r=553.88,
        omega_p=2 * np.pi * 193.4e12)
    a_nf = thermomech.noise_figure(chain.g_oa, chain.n_pi)
    t_n, n_r, _p_oa = thermomech.effective_noise(chain)
    two_w_over_tn = 2.0 * omega_m / t_n
    ratio = 1.0 / (two_w_over_tn - 1.0)
    elapsed = time.perf_counter() - t0
    a_ok = round(a_nf, 3) == 2.498
    w_ok = abs(two_w_over_tn / 4.0e4 - 1.0) <= 0.25
    n_ok = abs(n_r / 4.61e4 - 1.0) <= 1e-3
    r_ok = abs(ratio / 2.5e-5 - 1.0) <= 0.25
    ok = a_ok and w_ok and n_ok and r_ok and elapsed < 1.0
    report("C10 noise chain", ok,
           f"alpha_NF = {a_nf:.4f} (2.498); 2w_m/T_N = {two_w_over_tn:.0f} "
           f"(4e4 +-25%); N_R = {n_r:.0f} (4.61e4); MML/SEO = {ratio:.3e} "
           f"(2.5e-5 +-25%); {elapsed * 1000:.0f} ms")
    assert a_ok and w_ok and n_ok and r_ok
    assert elapsed < 1.0


def test_criterion_11_detuning_phenomenology():
    """SEO threshold exists only on red, MML only on blue (Theta_FH < 0)."""
    mech = thermomech.aluminum_device(
        m_m=1e-12, omega_m=2 * np.pi * 368.2e3,
        gamma_m=0.005 * 2 * np.pi * 368.2e3, theta_ph=-1.0, theta_fh=-1e-9,
        kappa_m=0.01 * 2 * np.pi * 368.2e3)
    t_n = 2.0 * mech.omega_m / 4.0e4
    red = thermomech.AbsorptionModel(1e5, +1e4)
    blue = thermomech.AbsorptionModel(1e5, -1e4)
    seo_red = thermomech.seo_threshold(mech, red)
    seo_blue = thermomech.seo_threshold(mech, blue)
    mml_red = thermomech.mml_threshold(mech, red, t_n)
    mml_blue = thermomech.mml_threshold(mech, blue, t_n)
    ok = (np.isfinite(seo_red) and seo_blue == np.inf
          and np.isfinite(mml_blue) and mml_red == np.inf)
    report("C11 detuning phenomenology", ok,
           f"SEO: red {seo_red:.3g} / blue inf; "
           f"MML: blue {mml_blue:.3g} / red inf")
    assert ok


def test_criterion_12_reproducibility(tmp_path):
    """Identical config + seed + version give byte-identical tables."""
    params = {"n_modes": 16, "mu_m": 1.0, "t_n": 0.2, "dt": 0.002,
              "n_steps": 30000, "sample_every": 30, "max_lag": 5}
    digests = []
    for sub in ("a", "b"):
        man = run_experiment(ExperimentConfig("lattice", params, seed=9,
                                              output_dir=tmp_path / sub))
        digests.append([o["sha256"] for o in man.outputs])
    lattice_ok = digests[0] == digests[1]

    pulse_params = {"g_m_re": 1e-3, "n": 500}
    d2 = []
    for sub in ("c", "d"):
        man = run_experiment(ExperimentConfig("pulse", pulse_params, seed=1,
                                              output_dir=tmp_path / sub))
        d2.append([o["sha256"] for o in man.outputs])
    pulse_ok = d2[0] == d2[1]
    report("C12 reproducibility", lattice_ok and pulse_ok,
           "byte-identical output tables for repeated lattice and pulse "
           "runs (checksum comparison)")
    assert lattice_ok and pulse_ok
