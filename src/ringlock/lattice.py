"""Stochastic dynamics of the cavity mode phases.

Each of the N modes inside the filter band carries a phase theta_m driven by
modulation-generated sideband coupling to its neighbors and by amplifier
noise:

    d(theta_m)/dt = mu_M * [sin(theta_{m-1} - theta_m)
                            + sin(theta_{m+1} - theta_m)] + q_m,

with q_m independent white noise of strength 2*T_N.  The drift is the
gradient of H = -mu_M * sum_m cos(theta_{m-1} - theta_m), so the stationary
distribution is the Gibbs measure exp(-H/T_N).  In the weak-noise limit the
neighbor phase differences become Gaussian with variance 2*beta_N, where
beta_N = T_N / (2*mu_M), and the ensemble-averaged intensity waveform tends
to the comb function T_{beta_N}.

Amplitude fluctuations are frozen (r_m constant); phases are kept unwrapped
so cumulative diffusion stays observable, and every statistic defined here
uses phase differences wrapped to (-pi, pi], making it insensitive to both
winding and global phase.
"""

from dataclasses import dataclass, field

import numpy as np

from .engine import (InsufficientDataError, RngStream, normal_draws, require,
                     size_findings)

BOUNDARIES = ("open_chain", "periodic")
MAX_MU_DT = 0.1     # stability bound of the explicit Euler step
N_BATCHES = 20      # run_lattice's default number of batch-means blocks
NOISE_BLOCK = 4096  # rows of each block of noise that run_lattice draws


def constraint_findings(n_modes: int, mu_m: float, dt: float) -> list[str]:
    """Violations of the chain's constraints beyond the signs of its
    parameters; an empty list means valid.

    The chain needs n_modes >= 3 and the explicit Euler step
    dt*mu_m <= 0.1.  :class:`LatticeConfig` and the CLI's config
    validation both check these here.
    """
    findings = []
    if n_modes < 3:
        findings.append(f"n_modes must be >= 3 (got {n_modes})")
    if dt * mu_m > MAX_MU_DT:
        findings.append(f"dt*mu_m must be <= {MAX_MU_DT} for the explicit "
                        f"Euler step (got {dt * mu_m:g})")
    return findings


def default_burn_in(mu_m: float, dt: float) -> int:
    """:func:`run_lattice`'s default burn-in, 10/(mu_M*dt) steps."""
    return int(round(10.0 / (mu_m * dt)))


def run_findings(n_modes: int, n_steps: int, sample_every: int, max_lag: int,
                 n_batches: int = N_BATCHES, burn_in: int = 0,
                 record_every: int | None = None) -> list[str]:
    """Violations of :func:`run_lattice`'s constraints on a chain of
    ``n_modes``; an empty list means valid.

    The correlation lag must be shorter than the chain, max_lag < n_modes.
    The batch-means errors need at least two full batches, which the run
    fills when it takes two samples, ceil(n_steps/sample_every) >= 2
    (that is, n_steps > sample_every), and splits them into n_batches >= 2
    batches; fewer leave the errors NaN, which a manifest cannot hold as
    strict JSON.  The block of NOISE_BLOCK noise rows, the block of
    samples of one batch and, when ``record_every`` is given, the phase
    vectors recorded over burn_in + n_steps steps meet the size rule
    (:func:`ringlock.engine.size_findings`).  :func:`run_lattice` and the
    CLI's config validation both check these here.  ``sample_every`` and
    ``record_every`` must be >= 1.
    """
    findings = []
    if max_lag >= n_modes:
        findings.append(f"max_lag must be smaller than the chain length "
                        f"n_modes (got max_lag {max_lag}, n_modes {n_modes})")
    if not n_steps > sample_every:
        findings.append(f"n_steps must exceed sample_every: the batch-means "
                        f"errors need two samples (got n_steps {n_steps}, "
                        f"sample_every {sample_every})")
    if n_batches < 2:
        findings.append(f"n_batches must be >= 2 for the batch-means errors "
                        f"(got {n_batches})")
    batch = max(1, -(-n_steps // sample_every) // max(n_batches, 1))
    records = -(-(burn_in + n_steps) // record_every) if record_every else 0
    for rows, what in ((NOISE_BLOCK, "noise block"), (batch, "batch block"),
                       (records, "stored trajectory")):
        findings += size_findings(rows * n_modes, f"the {what}")
    return findings


@dataclass(frozen=True)
class LatticeConfig:
    """Chain size, coupling, noise strength, and integration settings.

    ``mu_m`` is the modulation amplitude (1/time), ``t_n`` the noise
    strength (1/time).  The explicit Euler step requires dt*mu_m <= 0.1.
    """

    n_modes: int
    mu_m: float
    t_n: float
    dt: float
    seed: int = 0
    boundary: str = "open_chain"  # or "periodic"

    def __post_init__(self):
        if self.mu_m <= 0.0:
            raise ValueError("mu_m must be positive")
        if self.t_n < 0.0:
            raise ValueError("t_n must be nonnegative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        require(constraint_findings(self.n_modes, self.mu_m, self.dt))
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def beta_n(self) -> float:
        return self.t_n / (2.0 * self.mu_m)


@dataclass
class LatticeState:
    """Unwrapped mode phases at a given time, where a :func:`run_lattice`
    run ended."""

    theta: np.ndarray
    time: float


@dataclass(frozen=True)
class ModeAmplitudes:
    """Frozen mode amplitudes r_m (all 1 by default elsewhere)."""

    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if np.all(self.r == 0.0):
            raise ValueError("amplitudes must not all be zero")
        if np.any(self.r < 0.0):
            raise ValueError("amplitudes must be nonnegative")


def _drift(theta: np.ndarray, coeff: float, periodic: bool):
    """Bind the chain's drift to the phase vector ``theta`` once.

    Returns a callable of no arguments that writes coeff*(L_m - L_{m+1})
    for the current contents of ``theta`` into a buffer of its own and
    returns that buffer, with link sines L_m = sin(theta_{m-1} - theta_m)
    held in a second buffer of length N + 1.  The views of ``theta`` and
    of the links, the buffers and an N-vector filled with ``coeff`` are
    made here, so each call runs subtract -> sin -> subtract -> multiply
    with positional outputs and nothing else.  ``theta`` must be updated
    in place between calls.

    The boundary links L_0 = L_N are 0 for the open chain, set once here,
    and sin(theta_{N-1} - theta_0) for the periodic chain, set on each
    call before the open chain's drift runs.
    """
    n = theta.size
    links = np.empty(n + 1)
    out = np.empty(n)
    scale = np.full(n, coeff)
    left, right, inner = theta[:-1], theta[1:], links[1:-1]
    lower, upper = links[:-1], links[1:]
    subtract, sin, multiply = np.subtract, np.sin, np.multiply
    links[0] = links[-1] = 0.0

    def drift():
        subtract(left, right, inner)
        sin(inner, inner)
        subtract(lower, upper, out)
        multiply(out, scale, out)
        return out
    if not periodic:
        return drift

    def periodic_drift():
        links[0] = links[-1] = sin(theta[-1] - theta[0])
        return drift()
    return periodic_drift


def _links(theta: np.ndarray, periodic: bool) -> np.ndarray:
    """Neighbor differences theta_{m-1} - theta_m along the last axis of
    ``theta``; the periodic chain's wrap link theta_{N-1} - theta_0 comes
    last."""
    d = theta[..., :-1] - theta[..., 1:]
    if periodic:
        d = np.concatenate((d, theta[..., -1:] - theta[..., :1]), axis=-1)
    return d


def hamiltonian(theta, config: LatticeConfig):
    """H = -mu_M * sum over neighbor pairs of cos(theta_{m-1} - theta_m) for
    the phase vectors along the last axis of ``theta``; a float for one.

    The drift of :func:`run_lattice` (:func:`_drift`) is exactly
    -dH/dtheta_m.
    """
    d = _links(np.asarray(theta, dtype=float), config.boundary == "periodic")
    return -config.mu_m * np.cos(d).sum(axis=-1)


def sample_gibbs(beta_n: float, n_modes: int, seed: int,
                 n_samples: int = 1) -> np.ndarray:
    """Weak-noise steady-state sampler for the open chain.

    Draws independent Gaussian neighbor differences with variance 2*beta_N
    and cumulative-sums them into phases (theta_0 = 0).  Valid as a
    steady-state oracle only in the weak-noise regime: the exact stationary
    link distribution is proportional to exp(cos(d)/(2*beta_N)), whose
    variance exceeds 2*beta_N by a relative O(beta_N) correction.

    Only the open chain is supported: a periodic chain constrains the
    differences to wind back to zero, which breaks their independence.

    Returns an array of shape (n_samples, n_modes), one phase vector per
    row.
    """
    if not 0.0 <= beta_n <= 0.5:
        raise ValueError("beta_n must lie in [0, 0.5] (weak-noise regime)")
    if n_modes < 2:
        raise ValueError("n_modes must be >= 2")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    stream = RngStream(seed)
    if beta_n == 0.0:
        return np.zeros((n_samples, n_modes))
    diffs = normal_draws(stream, n_samples * (n_modes - 1))
    diffs = diffs.reshape(n_samples, n_modes - 1) * np.sqrt(2.0 * beta_n)
    theta = np.zeros((n_samples, n_modes))
    np.cumsum(diffs, axis=1, out=theta[:, 1:])
    return theta


def intensity_waveform(thetas, amps: ModeAmplitudes,
                       s_grid: np.ndarray) -> np.ndarray:
    """Single-realization intensity
    V(s) = |sum_m r_m e^{i(m s + theta_m)}|^2 / N of the phase vectors along
    the last axis of ``thetas``; the last axis of the result runs over
    ``s_grid``.

    Ensemble averaging is the caller's job (see :func:`ensemble_intensity`).
    """
    thetas = np.asarray(thetas, dtype=float)
    n_modes = thetas.shape[-1]
    if amps.r.size != n_modes:
        raise ValueError("amplitude and state size mismatch")
    m = np.arange(n_modes)
    basis = np.exp(1j * np.multiply.outer(m, np.asarray(s_grid, dtype=float)))
    return np.abs((amps.r * np.exp(1j * thetas)) @ basis) ** 2 / n_modes


def ensemble_intensity(thetas: np.ndarray, amps: ModeAmplitudes,
                       s_grid: np.ndarray):
    """Mean and standard error of V(s) over an ensemble of phase vectors.

    ``thetas`` has shape (n_samples, n_modes) with n_samples >= 2, which
    the standard error needs (:class:`InsufficientDataError` otherwise).
    Returns (mean, se), each of the length of ``s_grid``.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or len(thetas) < 2:
        raise InsufficientDataError(
            f"the standard error needs (n_samples, n_modes) phases with "
            f"n_samples >= 2 (got shape {thetas.shape})")
    v = intensity_waveform(thetas, amps, s_grid)          # (n, S)
    return v.mean(axis=0), v.std(axis=0, ddof=1) / np.sqrt(len(thetas))


def phase_correlation(thetas, k: int) -> complex:
    """Time-and-site average of e^{i(theta_{m-k} - theta_m)}.

    ``thetas`` holds phase vectors along its last axis, sampled after
    burn-in: one vector, or (n_samples, n_modes).  The expected value in
    the weak-noise steady state is exp(-|k|*beta_N), real up to sampling
    noise.
    """
    thetas = np.asarray(thetas, dtype=float)
    k = abs(int(k))
    if k >= thetas.shape[-1]:
        raise ValueError("lag k must be smaller than the chain length")
    return _lag_correlations(thetas, [k])[0]


def _lag_correlations(thetas: np.ndarray, lags) -> list[complex]:
    """Means of e^{i(theta_{m-k} - theta_m)} for each k in ``lags``, over
    the sites (last axis) and the sampled phase vectors (every other axis)
    of ``thetas``.  z = e^{i theta} is formed once, and lag k is the mean
    of z_{m-k} conj(z_m); lag 0 is exactly 1."""
    z = np.exp(1j * thetas)
    return [complex((z[..., :-k] * z[..., k:].conj()).mean()) if k
            else 1.0 + 0.0j for k in lags]


def _block_means(block: np.ndarray, mu_m: float, max_lag: int,
                 periodic: bool):
    """Means over a block of sampled phase vectors (rows): the wrapped
    neighbor-difference square, the energy, and the lag-k correlations for
    k = 0..max_lag.  The neighbor pairs are those of :func:`hamiltonian`
    (:func:`_links`)."""
    d1 = _links(block, periodic)
    dw = (d1 + np.pi) % (2.0 * np.pi) - np.pi
    energy = -mu_m * float(np.cos(d1).sum()) / block.shape[0]
    corr = _lag_correlations(block, range(max_lag + 1))
    return float(np.mean(dw * dw)), energy, corr


@dataclass
class LatticeRunStats:
    """Steady-state statistics accumulated by :func:`run_lattice`.

    ``corr`` holds the site-and-time averaged e^{i(theta_{m-k}-theta_m)}
    for k = 0..max_lag; ``corr_se`` the batch-means standard error of its
    real part.  ``diff_sq`` is the wrapped neighbor-difference second
    moment with batch-means error ``diff_sq_se``.  When trajectory
    recording is on, ``traj_time``/``traj_theta`` hold the decimated phase
    history (rows = recorded steps).

    The batch-means errors understate the spread between seeds when the
    run is short beside the chain's slowest relaxation time, about
    N^2/(pi^2 mu_M): at N = 64, beta_N = 0.1 and 3e5 steps, ``diff_sq_se``
    reads 0.0038 in the mean over 40 seeds, where ``diff_sq`` spreads
    between those seeds with an sd of 0.0074, about 2x more.  Replica
    ensembles are the planned remedy (ROADMAP, open item 6).
    """

    n_samples: int
    diff_sq: float
    diff_sq_se: float
    corr: np.ndarray
    corr_se: np.ndarray
    mean_energy: float
    final_state: LatticeState = field(repr=False)
    traj_time: np.ndarray | None = None
    traj_theta: np.ndarray | None = None


def run_lattice(config: LatticeConfig, n_steps: int, burn_in: int | None = None,
                sample_every: int = 50, max_lag: int = 10,
                n_batches: int = N_BATCHES,
                record_every: int | None = None) -> LatticeRunStats:
    """Integrate the chain and accumulate steady-state statistics.

    Statistics are sampled every ``sample_every`` steps after ``burn_in``
    steps (default 10/(mu_M*dt)).  Standard errors come from batch means
    over ``n_batches`` contiguous blocks, which absorbs the autocorrelation
    of the sampled series; only one block of phase vectors is held at a
    time, and a partial last block enters the means but not the errors.
    Passing ``record_every`` stores the full phase vector every that many
    steps (trajectory files get large; keep the stride coarse).

    The drift is bound to the phase vector once (:func:`_drift`).  Noise
    comes in blocks of 4096 rows, each drawn from the stream's next key, so
    the block size is part of the random stream.  Within a block the steps
    run in intervals up to the next sample or record step, computed from
    the strides, and the loop between them is theta += drift();
    theta += noise row, with no per-step test.
    """
    if burn_in is None:
        burn_in = default_burn_in(config.mu_m, config.dt)
    n = config.n_modes
    periodic = config.boundary == "periodic"
    if burn_in < 0 or sample_every < 1 or (record_every is not None
                                           and record_every < 1):
        raise ValueError("require burn_in >= 0, sample_every >= 1 and "
                         "record_every >= 1")
    # the chain's own rules hold: LatticeConfig checked them when made
    require(run_findings(n, n_steps, sample_every, max_lag, n_batches,
                         burn_in, record_every))
    stream = RngStream(config.seed)
    theta = np.zeros(n)
    drift = _drift(theta, config.dt * config.mu_m, periodic)
    sigma = np.sqrt(2.0 * config.t_n * config.dt)

    n_total = burn_in + n_steps
    samples_expected = (n_steps + sample_every - 1) // sample_every
    batch_len = max(1, samples_expected // n_batches)
    block = np.empty((batch_len, n))
    filled = 0
    batches = []          # (diff_sq, energy, corr) means of each full block
    rec_time: list[float] = []
    rec_theta: list[np.ndarray] = []

    # indices of the next step after which to sample and to record
    next_sample = burn_in
    next_record = 0 if record_every is not None else n_total
    i = 0                 # steps taken
    while i < n_total:
        noise = normal_draws(stream, NOISE_BLOCK * n).reshape(NOISE_BLOCK, n)
        noise *= sigma
        start = i
        block_end = min(i + NOISE_BLOCK, n_total)
        while i < block_end:
            stop = min(next_sample, next_record, block_end - 1)
            for row in noise[i - start:stop + 1 - start]:
                theta += drift()
                theta += row
            i = stop + 1
            if stop == next_record:
                rec_time.append(i * config.dt)
                rec_theta.append(theta.copy())
                next_record += record_every
            if stop == next_sample:
                block[filled] = theta
                filled += 1
                if filled == batch_len:
                    batches.append(_block_means(block, config.mu_m, max_lag,
                                                periodic))
                    filled = 0
                next_sample += sample_every

    nb = len(batches)
    count = nb * batch_len + filled
    sizes = [batch_len] * nb
    if filled:
        sizes.append(filled)
        batches.append(_block_means(block[:filled], config.mu_m, max_lag,
                                    periodic))
    weights = np.array(sizes) / count
    dsq, energy, corr = (np.array(x) for x in zip(*batches))
    dsq_se = float(dsq[:nb].std(ddof=1) / np.sqrt(nb))
    corr_se = corr[:nb].real.std(axis=0, ddof=1) / np.sqrt(nb)

    return LatticeRunStats(
        n_samples=count,
        diff_sq=float(weights @ dsq),
        diff_sq_se=dsq_se,
        corr=weights @ corr,
        corr_se=corr_se,
        mean_energy=float(weights @ energy),
        final_state=LatticeState(theta=theta, time=n_total * config.dt),
        traj_time=np.array(rec_time) if record_every is not None else None,
        traj_theta=np.array(rec_theta) if record_every is not None else None,
    )
