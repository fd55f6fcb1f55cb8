import dataclasses

import numpy as np
import pytest
from scipy import integrate, special

from ringlock.engine import RngStream, normal_draws
from ringlock.lattice import (BOUNDARIES, LatticeConfig, LatticeState,
                              ModeAmplitudes,
                              ensemble_intensity, hamiltonian,
                              intensity_waveform, phase_correlation,
                              run_lattice, sample_gibbs, step_lattice)


def exact_link_variance(beta_n):
    """<d^2> for the true stationary link density ~ exp(cos(d)/(2 beta_N))."""
    kappa = 1.0 / (2.0 * beta_n)
    num = integrate.quad(lambda d: d * d * np.exp(kappa * (np.cos(d) - 1.0)),
                         -np.pi, np.pi, epsabs=1e-13)[0]
    den = integrate.quad(lambda d: np.exp(kappa * (np.cos(d) - 1.0)),
                         -np.pi, np.pi, epsabs=1e-13)[0]
    return num / den


def exact_link_correlation(beta_n):
    """<cos d> for the true stationary link density: I1(kappa)/I0(kappa)."""
    kappa = 1.0 / (2.0 * beta_n)
    return special.iv(1, kappa) / special.iv(0, kappa)


def per_sample_reference(thetas, cfg, max_lag):
    """Wrapped neighbor-difference square, lag-0..max_lag correlations and
    energy of each phase vector (row) of ``thetas``, one row at a time; the
    periodic chain's neighbor pairs include the wrap link.  Every statistic,
    the energy included, comes from the links built here, independently of
    the library's own link code."""
    dsq, corr, energy = [], [], []
    for th in thetas:
        d1 = np.roll(th, 1) - th if cfg.boundary == "periodic" \
            else th[:-1] - th[1:]
        dw = (d1 + np.pi) % (2 * np.pi) - np.pi
        dsq.append(np.mean(dw * dw))
        corr.append([1.0] + [np.mean(np.exp(1j * (th[:-k] - th[k:])))
                             for k in range(1, max_lag + 1)])
        energy.append(-cfg.mu_m * np.sum(np.cos(d1)))
    return np.array(dsq), np.array(corr), np.array(energy)


def vonmises_chain(beta_n, n_modes, n_samples, seed):
    """Exact stationary sampler: independent von Mises links, cumsummed."""
    rng = np.random.default_rng(seed)
    kappa = 1.0 / (2.0 * beta_n)
    d = rng.vonmises(0.0, kappa, size=(n_samples, n_modes - 1))
    theta = np.zeros((n_samples, n_modes))
    np.cumsum(d, axis=1, out=theta[:, 1:])
    return theta


class TestStepLattice:
    def test_uniform_phase_is_fixed_point(self):
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.0, dt=0.01)
        st = LatticeState(theta=np.full(8, 0.7))
        out = step_lattice(st, cfg)
        assert np.allclose(out.theta, st.theta, atol=1e-15)
        assert out.time == pytest.approx(0.01)

    def test_alternating_phase_is_unstable_equilibrium(self):
        cfg = LatticeConfig(n_modes=6, mu_m=1.0, t_n=0.0, dt=0.01)
        st = LatticeState(theta=np.array([0.0, np.pi] * 3))
        out = step_lattice(st, cfg)
        assert np.allclose(out.theta, st.theta, atol=1e-15)

    def test_reproducible_with_stream(self):
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.3, dt=0.01, seed=5)
        st = LatticeState(theta=np.zeros(8))
        a = step_lattice(st, cfg, RngStream(5))
        b = step_lattice(st, cfg, RngStream(5))
        assert np.array_equal(a.theta, b.theta)

    def test_rejects_nonfinite_state(self):
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.0, dt=0.01)
        st = LatticeState(theta=np.zeros(8))
        st.theta[3] = np.nan
        with pytest.raises(ValueError):
            step_lattice(st, cfg)

    def test_config_guards(self):
        with pytest.raises(ValueError):
            LatticeConfig(n_modes=2, mu_m=1.0, t_n=0.0, dt=0.01)
        with pytest.raises(ValueError):
            LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.0, dt=0.2)
        with pytest.raises(ValueError):
            LatticeConfig(n_modes=8, mu_m=1.0, t_n=-0.1, dt=0.01)


class TestHamiltonian:
    def test_uniform_open_chain(self):
        cfg = LatticeConfig(n_modes=10, mu_m=2.0, t_n=0.0, dt=0.01)
        st = LatticeState(theta=np.full(10, 1.3))
        assert hamiltonian(st, cfg) == pytest.approx(-2.0 * 9)

    def test_alternating_open_chain(self):
        cfg = LatticeConfig(n_modes=10, mu_m=2.0, t_n=0.0, dt=0.01)
        st = LatticeState(theta=np.array([0.0, np.pi] * 5))
        assert hamiltonian(st, cfg) == pytest.approx(+2.0 * 9)

    def test_drift_is_negative_gradient(self):
        rng = np.random.default_rng(8)
        for boundary in ("open_chain", "periodic"):
            cfg = LatticeConfig(n_modes=12, mu_m=1.4, t_n=0.0, dt=0.001,
                                boundary=boundary)
            theta = rng.uniform(-np.pi, np.pi, 12)
            st = LatticeState(theta=theta.copy())
            drift = (step_lattice(st, cfg).theta - theta) / cfg.dt
            h = 1e-6
            for m in range(12):
                tp, tm = theta.copy(), theta.copy()
                tp[m] += h
                tm[m] -= h
                grad = (hamiltonian(LatticeState(theta=tp), cfg)
                        - hamiltonian(LatticeState(theta=tm), cfg)) / (2 * h)
                assert drift[m] == pytest.approx(-grad, rel=1e-6, abs=1e-8)

    def test_global_phase_invariance(self):
        cfg = LatticeConfig(n_modes=9, mu_m=1.0, t_n=0.0, dt=0.01)
        rng = np.random.default_rng(2)
        theta = rng.uniform(-3, 3, 9)
        amps = ModeAmplitudes(r=np.ones(9))
        s = np.linspace(0, 2 * np.pi, 17)
        st0 = LatticeState(theta=theta)
        st1 = LatticeState(theta=theta + 1.234)
        assert hamiltonian(st0, cfg) == hamiltonian(st1, cfg)
        assert np.allclose(intensity_waveform(st0, amps, s),
                           intensity_waveform(st1, amps, s), rtol=1e-12)
        assert phase_correlation([st0], 3) == \
            pytest.approx(phase_correlation([st1], 3), rel=1e-12)


class TestSampleGibbs:
    def test_zero_noise_gives_equal_phases(self):
        theta = sample_gibbs(0.0, 16, seed=1, n_samples=4)
        assert np.all(theta == 0.0)

    def test_link_variance(self):
        theta = sample_gibbs(0.1, 64, seed=3, n_samples=10_000)
        d = theta[:, :-1] - theta[:, 1:]
        assert abs(d.var() / 0.2 - 1.0) < 0.03

    def test_correlation_decay(self):
        theta = sample_gibbs(0.1, 64, seed=4, n_samples=10_000)
        for k in range(1, 11):
            c = np.exp(1j * (theta[:, :-k] - theta[:, k:])).mean()
            assert abs(c.real / np.exp(-0.1 * k) - 1.0) < 0.03
            assert abs(c.imag) < 0.01

    def test_weak_noise_precondition(self):
        with pytest.raises(ValueError):
            sample_gibbs(0.6, 16, seed=0)


class TestIntensityWaveform:
    def test_coherent_sum(self):
        st = LatticeState(theta=np.zeros(16))
        amps = ModeAmplitudes(r=np.ones(16))
        v = intensity_waveform(st, amps, np.array([0.0]))
        assert v[0] == pytest.approx(16.0)

    def test_single_mode_is_flat(self):
        st = LatticeState(theta=np.zeros(16))
        r = np.zeros(16)
        r[5] = 1.0
        v = intensity_waveform(st, ModeAmplitudes(r=r),
                               np.linspace(0, 2 * np.pi, 33))
        assert np.allclose(v, 1.0 / 16.0, rtol=1e-12)

    def test_ensemble_mean_matches_finite_size_expectation(self):
        # For the Gaussian sampler the exact expectation of V(s) is the
        # triangle-weighted (finite-N) comb series; check unbiasedness.
        beta, n = 0.1, 64
        theta = sample_gibbs(beta, n, seed=7, n_samples=2000)
        amps = ModeAmplitudes(r=np.ones(n))
        s = np.linspace(0.0, 2.0 * np.pi, 25, endpoint=False)
        mean, se = ensemble_intensity(theta, amps, s)
        k = np.arange(-(n - 1), n)
        weights = (1.0 - np.abs(k) / n) * np.exp(-np.abs(k) * beta)
        expected = (weights * np.cos(np.multiply.outer(s, k))).sum(axis=1)
        z = np.abs(mean - expected) / se
        # unbiased estimator: z should look standard normal across the grid
        assert np.mean(z ** 2) < 2.5
        assert z.max() < 6.0

    def test_comb_limit_improves_with_n(self):
        # the comb-function limit holds for 1/N << beta: the peak deficit
        # scales like 1/(N beta)
        from ringlock.comb import comb_closed
        beta = 0.1
        gaps = []
        for n, seed in ((64, 1), (256, 2)):
            theta = sample_gibbs(beta, n, seed=seed, n_samples=3000)
            amps = ModeAmplitudes(r=np.ones(n))
            s = np.array([0.0])
            mean, _se = ensemble_intensity(theta, amps, s)
            gaps.append(abs(mean[0] - comb_closed(0.0, beta))
                        / comb_closed(0.0, beta))
        assert gaps[1] < gaps[0]
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.5)

    def test_size_mismatch(self):
        st = LatticeState(theta=np.zeros(8))
        with pytest.raises(ValueError):
            intensity_waveform(st, ModeAmplitudes(r=np.ones(9)),
                               np.array([0.0]))


class TestPhaseCorrelation:
    def test_lag_zero_is_exactly_one(self):
        st = LatticeState(theta=np.random.default_rng(0).uniform(0, 6, 12))
        assert phase_correlation([st], 0) == 1.0 + 0.0j

    def test_lag_out_of_range(self):
        st = LatticeState(theta=np.zeros(8))
        with pytest.raises(ValueError):
            phase_correlation([st], 8)


class TestDetailedBalance:
    """Long-run Langevin statistics against the exact stationary sampler.

    The stationary measure of the open chain factorizes over links with
    density ~ exp(cos(d)/(2 beta_N)); the Langevin run must agree with
    independent draws from that density within combined statistical error.
    """

    @pytest.mark.parametrize("beta_n", [0.05, 0.1, 0.3])
    def test_langevin_matches_exact_sampler(self, beta_n):
        n = 16
        cfg = LatticeConfig(n_modes=n, mu_m=1.0, t_n=2.0 * beta_n, dt=2e-3,
                            seed=int(beta_n * 1000))
        stats = run_lattice(cfg, n_steps=600_000, sample_every=40,
                            max_lag=5, n_batches=15)
        oracle = vonmises_chain(beta_n, n, 40_000, seed=123)
        d = oracle[:, :-1] - oracle[:, 1:]
        dw = (d + np.pi) % (2 * np.pi) - np.pi
        o_var = float((dw ** 2).mean())
        o_var_se = float((dw ** 2).mean(axis=1).std(ddof=1)
                         / np.sqrt(oracle.shape[0]))
        comb_se = np.hypot(stats.diff_sq_se, o_var_se)
        assert abs(stats.diff_sq - o_var) < 3.0 * comb_se

        for k in range(1, 6):
            oc = np.cos(oracle[:, :-k] - oracle[:, k:])
            o_corr = float(oc.mean())
            o_se = float(oc.mean(axis=1).std(ddof=1)
                         / np.sqrt(oracle.shape[0]))
            se = np.hypot(stats.corr_se[k], o_se)
            assert abs(stats.corr[k].real - o_corr) < 3.0 * se, f"lag {k}"

    def test_weak_noise_formula_has_known_systematic(self):
        # The Gaussian weak-noise value 2*beta_N underestimates the true
        # link variance by a relative O(beta_N); verify the measured run
        # sits at the exact value, not the weak-noise one.
        beta_n = 0.1
        cfg = LatticeConfig(n_modes=16, mu_m=1.0, t_n=0.2, dt=2e-3, seed=77)
        stats = run_lattice(cfg, n_steps=600_000, sample_every=40,
                            max_lag=2, n_batches=15)
        exact = exact_link_variance(beta_n)
        assert exact > 2.0 * beta_n * 1.05  # the systematic is real (>5%)
        assert abs(stats.diff_sq - exact) < 4.0 * stats.diff_sq_se
        assert abs(stats.diff_sq - 2.0 * beta_n) > 6.0 * stats.diff_sq_se


class TestRunLattice:
    def test_reproducible(self):
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.2, dt=5e-3, seed=42)
        a = run_lattice(cfg, n_steps=20_000, sample_every=20, max_lag=3)
        b = run_lattice(cfg, n_steps=20_000, sample_every=20, max_lag=3)
        assert a.diff_sq == b.diff_sq
        assert np.array_equal(a.corr, b.corr)
        assert np.array_equal(a.final_state.theta, b.final_state.theta)

    def test_matches_repeated_single_steps(self):
        # From the all-zero start a noiseless chain never moves, so the
        # run's own noise is replayed on top of noiseless single steps.  The
        # run draws its noise in blocks of 4096 rows, each from the stream's
        # next key, and 17 + 4500 steps cross into the second block.  The
        # recorded states, the final state and the statistics of the
        # sampled states (every 7th step after 17) must be those of the
        # replay, bit for bit and to rounding, on both boundaries.
        n, n_steps, burn_in, sample_every, record_every = 8, 4500, 17, 7, 13
        k = burn_in + n_steps
        for boundary in BOUNDARIES:
            cfg = LatticeConfig(n_modes=n, mu_m=1.0, t_n=0.4, dt=5e-3,
                                seed=9, boundary=boundary)
            stats = run_lattice(cfg, n_steps=n_steps, burn_in=burn_in,
                                sample_every=sample_every, max_lag=3,
                                record_every=record_every)
            still = dataclasses.replace(cfg, t_n=0.0)
            stream = RngStream(cfg.seed)
            noise = np.concatenate([normal_draws(stream, 4096 * n)
                                    for _ in range(2)]).reshape(-1, n) \
                * np.sqrt(2.0 * cfg.t_n * cfg.dt)
            st = LatticeState(theta=np.zeros(n))
            states = np.empty((k, n))
            for i in range(k):
                st = LatticeState(theta=step_lattice(st, still).theta
                                  + noise[i])
                states[i] = st.theta
            assert np.array_equal(stats.traj_theta, states[::record_every]), \
                boundary
            assert np.array_equal(stats.traj_time,
                                  (np.arange(0, k, record_every) + 1)
                                  * cfg.dt)
            assert np.array_equal(st.theta, stats.final_state.theta)
            dsq, corr, energy = per_sample_reference(
                states[burn_in::sample_every], cfg, max_lag=3)
            assert stats.n_samples == len(dsq) == 643
            assert stats.diff_sq == pytest.approx(dsq.mean(), rel=1e-12)
            assert stats.mean_energy == pytest.approx(energy.mean(),
                                                      rel=1e-12)
            assert np.allclose(stats.corr, corr.mean(axis=0), rtol=0,
                               atol=1e-12)

    def test_statistics_match_per_sample_reference(self):
        # The sampled states are read from the recorded trajectory, under
        # two schedules: every 10th step from the start, and every 7th step
        # after a burn-in of 17 with every step recorded.  23 samples in 7
        # batches of 3 leave a tail of 2 that enters the means but not the
        # batch-means errors.  The periodic chain's neighbor pairs include
        # the wrap link.
        schedules = ((0, 10, 10, 230), (17, 7, 1, 161))
        for boundary in BOUNDARIES:
            for burn_in, sample_every, record_every, n_steps in schedules:
                self._check_per_sample_reference(
                    boundary, burn_in, sample_every, record_every, n_steps)

    @staticmethod
    def _check_per_sample_reference(boundary, burn_in, sample_every,
                                    record_every, n_steps):
        cfg = LatticeConfig(n_modes=8, mu_m=1.3, t_n=0.3, dt=5e-3, seed=4,
                            boundary=boundary)
        stats = run_lattice(cfg, n_steps=n_steps, burn_in=burn_in,
                            sample_every=sample_every, max_lag=3,
                            n_batches=7, record_every=record_every)
        sampled = np.arange(burn_in, burn_in + n_steps, sample_every)
        dsq, corr, energy = per_sample_reference(
            stats.traj_theta[sampled // record_every], cfg, max_lag=3)
        assert stats.n_samples == len(dsq) == 23
        assert stats.diff_sq == pytest.approx(dsq.mean(), rel=1e-12)
        assert stats.mean_energy == pytest.approx(energy.mean(),
                                                  rel=1e-12), boundary
        assert np.allclose(stats.corr, corr.mean(axis=0), rtol=0,
                           atol=1e-12)
        b_dsq = dsq[:21].reshape(7, 3).mean(axis=1)
        b_corr = corr[:21].real.reshape(7, 3, 4).mean(axis=1)
        assert stats.diff_sq_se == pytest.approx(
            b_dsq.std(ddof=1) / np.sqrt(7), rel=1e-9)
        assert np.allclose(stats.corr_se, b_corr.std(axis=0, ddof=1)
                           / np.sqrt(7), rtol=1e-9, atol=1e-15)

    def test_periodic_boundary_runs(self):
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.1, dt=5e-3, seed=1,
                            boundary="periodic")
        stats = run_lattice(cfg, n_steps=5_000, sample_every=20, max_lag=3)
        assert np.isfinite(stats.diff_sq)

    def test_schedule_guard(self):
        # the step loop advances from one sample or record step to the
        # next, which a stride below 1 or a negative burn-in never reaches
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.1, dt=5e-3)
        for bad in ({"sample_every": 0}, {"sample_every": -3},
                    {"record_every": 0}, {"burn_in": -1}):
            with pytest.raises(ValueError):
                run_lattice(cfg, n_steps=100, **bad)

    def test_sampling_guard(self):
        # one sample, or one batch, leaves the batch-means errors NaN; two
        # samples in two batches of one give finite errors
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.1, dt=5e-3)
        for bad in ({"n_steps": 40}, {"n_steps": 30},
                    {"n_steps": 1000, "n_batches": 1}):
            with pytest.raises(ValueError):
                run_lattice(cfg, sample_every=40, **bad)
        stats = run_lattice(cfg, n_steps=41, sample_every=40, max_lag=3)
        assert stats.n_samples == 2
        assert np.isfinite(stats.diff_sq_se)
        assert np.all(np.isfinite(stats.corr_se))

    def test_lag_guard(self):
        cfg = LatticeConfig(n_modes=8, mu_m=1.0, t_n=0.1, dt=5e-3)
        with pytest.raises(ValueError):
            run_lattice(cfg, n_steps=1000, max_lag=8)
