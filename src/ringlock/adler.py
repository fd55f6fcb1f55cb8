"""Synchronization of the circulating pulse train to an external modulation.

The relative phase phi_S between the pulsing oscillation and the applied
modulation obeys

    d(phi_S)/d(tau) + sin(phi_S) = i_b,

with dimensionless time tau = zeta_AM * V_AM * t and normalized detuning
i_b = (w_AM - w_R) / (zeta_AM * V_AM).  For |i_b| <= 1 the phase locks to
arcsin(i_b); for |i_b| > 1 it slips with mean dimensionless rate
sqrt(i_b^2 - 1), and the phase velocity is a comb-function pulse train:

    d(phi_S)/d(tau) = sinh(b) * T_b(tau*sinh(b) + theta_b),
    b = arccosh(i_b),  theta_b = pi - arctan(sinh(b)).

The photodetector sees the pulse train, modeled here as a unit-amplitude
tone at the pulse phase, s(t) = cos(w_AM t - phi_S(t)); unlocked spectra
show the carrier plus a one-sided ladder of sidebands spaced by the beat
frequency with amplitudes falling off geometrically by exp(-b) per rung.

Spectra are computed from the exact stationary phase
(:func:`closed_form_phase`; Adler, Proc. IRE 34, 351 (1946)); the RK4
integration :func:`integrate_adler` is kept as the independent oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .comb import comb_closed
from .engine import (InsufficientDataError, SpectrumResult, require,
                     rk4_step, welch_psd)


@dataclass(frozen=True)
class AdlerParams:
    """Modulation, cavity, and calibration parameters.

    ``zeta_am`` converts modulation voltage to a locking rate
    (rad s^-1 V^-1); when the synchronization threshold V_AM,0 has been
    measured, zeta_am = (w_AM - w_R)/V_AM,0 so that i_b = V_AM,0/V_AM.
    """

    omega_am: float          # modulation angular frequency, rad/s
    omega_r: float           # cavity round-trip angular frequency, rad/s
    zeta_am: float           # coupling coefficient, rad/(s V)
    v_am: float              # modulation amplitude, V
    v_am0: float             # measured locking threshold, V

    def __post_init__(self):
        if self.v_am < 0.0:
            raise ValueError("v_am must be nonnegative")
        if self.v_am0 <= 0.0:
            raise ValueError("v_am0 must be positive")

    @classmethod
    def from_threshold(cls, omega_am: float, omega_r: float, v_am0: float,
                       v_am: float) -> "AdlerParams":
        """Calibrate zeta_AM from a measured synchronization threshold."""
        require(_detuning_findings(omega_am, omega_r))
        return cls(omega_am=omega_am, omega_r=omega_r,
                   zeta_am=(omega_am - omega_r) / v_am0,
                   v_am=v_am, v_am0=v_am0)

    def with_amplitude(self, v_am: float) -> "AdlerParams":
        return AdlerParams(self.omega_am, self.omega_r, self.zeta_am,
                           v_am, self.v_am0)


@dataclass(frozen=True)
class PhaseTrajectory:
    """Unwrapped relative phase sampled on a uniform dimensionless grid."""

    tau: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        if self.tau.size != self.phi.size:
            raise ValueError("tau and phi must have equal length")
        if self.tau.size >= 2 and not np.all(np.diff(self.tau) > 0):
            raise ValueError("tau must be strictly increasing")


def normalized_bias(params: AdlerParams) -> float:
    """Normalized detuning i_b = (w_AM - w_R)/(zeta_AM V_AM).

    Equals V_AM,0/V_AM under threshold calibration; |i_b| <= 1 is locked.
    """
    if params.v_am == 0.0:
        raise ZeroDivisionError("v_am = 0: no modulation, never locks")
    return (params.omega_am - params.omega_r) / (params.zeta_am * params.v_am)


def integrate_adler(i_b: float, phi0: float, tau_end: float,
                    dtau: float) -> PhaseTrajectory:
    """Fixed-step fourth-order integration of d(phi)/d(tau) = i_b - sin(phi)."""
    if dtau <= 0.0 or dtau > 0.01:
        raise ValueError("require 0 < dtau <= 0.01")
    if tau_end <= 0.0:
        raise ValueError("tau_end must be positive")
    n = int(round(tau_end / dtau))
    phi = np.empty(n + 1)
    phi[0] = phi0
    state = float(phi0)

    def rhs(_t, y):
        return i_b - math.sin(y)

    for i in range(1, n + 1):
        state = rk4_step(state, rhs, (i - 1) * dtau, dtau)
        phi[i] = state
    return PhaseTrajectory(tau=np.arange(n + 1) * dtau, phi=phi)


def beat_frequency(i_b: float) -> float:
    """Dimensionless beat angular frequency sqrt(i_b^2 - 1); 0 when locked."""
    if abs(i_b) < 1.0:
        return 0.0
    return float(np.sqrt(i_b * i_b - 1.0))


def unlocked_closed_form(i_b: float, tau) -> float | np.ndarray:
    """Closed-form phase velocity d(phi)/d(tau) in the unlocked regime.

    Valid for i_b > 1 (negative detuning follows from the phi -> -phi,
    i_b -> -i_b symmetry).  The mean over one beat period is
    sinh(b) = sqrt(i_b^2 - 1) because the comb function has unit mean.
    """
    if i_b <= 1.0:
        raise ValueError("closed form requires i_b > 1 (unlocked)")
    b = float(np.arccosh(i_b))
    sh = np.sinh(b)
    theta_b = np.pi - np.arctan(sh)
    out = sh * comb_closed(np.asarray(tau, dtype=float) * sh + theta_b, b)
    return float(out) if np.ndim(tau) == 0 else out


def closed_form_phase(i_b: float, tau) -> float | np.ndarray:
    """Exact stationary (unwrapped) phase phi_S(tau).

    Locked (|i_b| <= 1): the stable fixed point arcsin(i_b).  Unlocked
    (i_b > 1): the antiderivative of :func:`unlocked_closed_form`,
    sigma + 2 arctan(rho sin(sigma)/(1 - rho cos(sigma))) - pi/2 with
    sigma = tau*sinh(b) + theta_b and rho = exp(-b); the constant places
    sin(phi) = -1 at the comb peak (sigma = 0), the point of fastest slip.
    i_b < -1 follows from the phi -> -phi, i_b -> -i_b symmetry.
    """
    if i_b < -1.0:
        return -closed_form_phase(-i_b, tau)
    tau = np.asarray(tau, dtype=float)
    if i_b <= 1.0:
        out = np.full(tau.shape, np.arcsin(i_b))
    else:
        b = np.arccosh(i_b)
        sh = np.sinh(b)
        rho = np.exp(-b)
        sigma = tau * sh + (np.pi - np.arctan(sh))
        out = sigma + 2.0 * np.arctan(rho * np.sin(sigma)
                                      / (1.0 - rho * np.cos(sigma))) \
            - np.pi / 2.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpectrumMap:
    """Detector-signal PSD as a function of modulation amplitude."""

    v_am_grid: np.ndarray
    i_b: np.ndarray                  # normalized bias at each grid point
    freqs: np.ndarray                # Hz
    psd: np.ndarray                  # (n_freqs, n_v) power density
    resolution: float                # Hz per bin
    segments: int
    params: AdlerParams
    warnings: tuple = field(default_factory=tuple)


def constraint_findings(omega_am: float, omega_r: float, duration: float,
                        sample_rate: float) -> list[str]:
    """Violations of a threshold-calibrated sweep's constraints beyond the
    signs of its parameters; an empty list means valid.

    The detuning must be nonzero (:meth:`AdlerParams.from_threshold`
    checks it), and the detector signal of int(duration*sample_rate)
    samples must hold one Welch segment of the default length
    (:func:`pd_spectrum_sweep` checks it).  The CLI's config validation
    checks both here.
    """
    return _detuning_findings(omega_am, omega_r) + _segment_findings(
        *_signal_shape(duration, sample_rate, None))


def _detuning_findings(omega_am: float, omega_r: float) -> list[str]:
    """The calibration's finding: at omega_am == omega_r, zeta_AM =
    (omega_am - omega_r)/V_AM,0 is zero and every i_b is 0/0."""
    if omega_am == omega_r:
        return [f"omega_am must differ from omega_r (both {omega_am:g}): "
                "zero detuning leaves zeta_am = 0 and i_b undefined"]
    return []


def _signal_shape(duration: float, sample_rate: float,
                  segment_len: int | None):
    """(samples, Welch segment length) of a sweep's detector signal; the
    default length is about an eighth of the signal, rounded down to a
    power of two, and at least 4."""
    n_t = int(duration * sample_rate)
    if segment_len is None:
        segment_len = 2 ** int(np.floor(np.log2(max(n_t // 8, 4))))
    return n_t, segment_len


def _segment_findings(n_t: int, segment_len: int) -> list[str]:
    if n_t < segment_len:
        return [f"the signal of {n_t} samples (duration*sample_rate) is "
                f"shorter than one Welch segment of {segment_len}"]
    return []


def pd_spectrum_sweep(params_base: AdlerParams, v_am_grid,
                      duration: float, sample_rate: float,
                      segment_len: int | None = None) -> SpectrumMap:
    """Sweep the modulation amplitude and collect detector-signal spectra.

    For each V_AM the exact stationary phase phi_S(t) (no transient) is
    sampled at the detector times, and the synthetic detector signal
    cos(w_AM t - phi_S(t)) over ``duration`` seconds at ``sample_rate`` is
    Welch-averaged.  Locked points show a single line at w_AM;
    unlocked points a carrier plus sidebands spaced by
    zeta_AM V_AM sqrt(i_b^2-1) (rad/s) with geometric amplitude decay.
    """
    v_am_grid = np.asarray(v_am_grid, dtype=float)
    if np.any(v_am_grid <= 0.0):
        raise ValueError("v_am_grid entries must be positive")
    if duration <= 0.0 or sample_rate <= 0.0:
        raise ValueError("duration and sample_rate must be positive")

    n_t, segment_len = _signal_shape(duration, sample_rate, segment_len)
    require(_segment_findings(n_t, segment_len), InsufficientDataError)
    t = np.arange(n_t) / sample_rate

    notes = []
    i_b_vals = np.array([normalized_bias(params_base.with_amplitude(v))
                         for v in v_am_grid])
    unlocked = np.abs(i_b_vals) > 1.0
    if np.any(unlocked):
        slowest = np.min(np.abs(i_b_vals[unlocked]) ** 2 - 1.0) ** 0.5
        n_beats = duration * np.min(
            np.abs(params_base.zeta_am) * v_am_grid[unlocked]) * slowest \
            / (2.0 * np.pi)
        if n_beats < 50.0:
            notes.append(
                f"duration covers only {n_beats:.1f} beat periods at the "
                "slowest beat; spectral resolution may be insufficient")

    psd_cols = []
    freqs = None
    segments = 0
    for v, i_b in zip(v_am_grid, i_b_vals):
        rate = params_base.zeta_am * v           # d(tau)/dt, rad/s
        phi_t = closed_form_phase(i_b, abs(rate) * t)
        signal = np.cos(params_base.omega_am * t - np.sign(rate) * phi_t)
        res = welch_psd(signal, sample_rate, segment_len)
        psd_cols.append(res.psd)
        freqs = res.freqs
        segments = res.segments

    return SpectrumMap(
        v_am_grid=v_am_grid, i_b=i_b_vals, freqs=freqs,
        psd=np.column_stack(psd_cols), resolution=sample_rate / segment_len,
        segments=segments, params=params_base, warnings=tuple(notes))


def sideband_amplitudes(spectrum: SpectrumResult, carrier_freq: float,
                        spacing_hz: float, n_bands: int = 3,
                        halfwidth_bins: int = 3):
    """Band-integrated amplitudes of the carrier and its sideband ladder.

    Returns (freqs, amps): the located peak frequency and sqrt of the power
    integrated over +-halfwidth_bins around each expected line
    carrier + n*spacing for n = 0..n_bands.  Band integration makes the
    amplitude estimate insensitive to window scalloping.
    """
    freqs, psd = spectrum.freqs, spectrum.psd
    df = freqs[1] - freqs[0]
    out_f, out_a = [], []
    for n in range(n_bands + 1):
        target = carrier_freq + n * spacing_hz
        idx = int(round((target - freqs[0]) / df))
        lo = max(idx - halfwidth_bins, 0)
        hi = min(idx + halfwidth_bins + 1, psd.size)
        local = lo + int(np.argmax(psd[lo:hi]))
        lo2 = max(local - halfwidth_bins, 0)
        hi2 = min(local + halfwidth_bins + 1, psd.size)
        power = float(np.sum(psd[lo2:hi2]) * df)
        out_f.append(freqs[local])
        out_a.append(np.sqrt(power))
    return np.array(out_f), np.array(out_a)
