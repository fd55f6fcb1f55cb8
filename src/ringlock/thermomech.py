"""Bolometric optomechanics of the suspended mirror.

The mirror (mass m_m, intrinsic frequency w_m, damping gamma_m) absorbs part
of the intracavity light; the relative temperature T_R it acquires both
shifts its resonance (coefficient Theta_PH) and exerts a thermal-deformation
force (coefficient Theta_FH):

    x'' + 2 gamma_m x' + (w_m + Theta_PH T_R)^2 x = F_T / m_m,
    F_T = Theta_FH T_R,
    T_R' = H_m - kappa_m T_R,      H_m = L_H(t) A_H(x),
    A_H  = A_H0 (1 + k_A1 x + k_A2 x^2).

The displacement dependence of the absorption comes from interference in the
short cavity between the fiber tip and the mirror: k_A1 < 0 for blue and
> 0 for red detuning.  The average intensity produces the damping shift

    gamma_H0 = k_A1 Theta_FH L_0 A_H0 / (2 m_m w_m^2),

and when the cavity round-trip frequency is tuned to the mechanical
frequency, the motion-locked pulse train adds gamma_H1 = -(2 w_m/T_N)
gamma_H0, a much larger term of opposite sign.  The system self-oscillates
(SEO) or mode-locks mechanically (MML) once the total effective damping
gamma_m + gamma_H0 + gamma_H1 turns negative.

Internally the integrator works in units of 1/w_m for time and a
displacement scale chosen so |k_A1 x| stays O(0.1); public interfaces are
SI.
"""

import math
from dataclasses import dataclass

import numpy as np

from .comb import comb_closed
from .engine import InsufficientDataError

HBAR = 1.054571817e-34  # J s

# comb linewidth cap: wider than this is indistinguishable from flat
_BETA_FLAT = 30.0


class InstabilityError(RuntimeError):
    """Integration left the model's domain of validity.

    Expected (and meaningful) above the SEO/MML threshold, where the
    linear-instability growth is unbounded because saturation physics is out
    of scope.  Carries the last finite time/state and the trajectory so far.
    """

    def __init__(self, message, t, state, trajectory=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.trajectory = trajectory


@dataclass(frozen=True)
class MechParams:
    """Mechanical, thermal-coupling, and relaxation parameters (SI)."""

    m_m: float        # kg
    omega_m: float    # rad/s
    gamma_m: float    # 1/s
    theta_ph: float   # rad/(s K), frequency-temperature coefficient
    theta_fh: float   # N/K, force-temperature coefficient
    kappa_m: float    # 1/s, thermal decay rate

    def __post_init__(self):
        if self.m_m <= 0.0 or self.omega_m <= 0.0:
            raise ValueError("mass and frequency must be positive")
        if not 0.0 <= self.gamma_m < 0.1 * self.omega_m:
            raise ValueError("require gamma_m < 0.1*omega_m (weak damping)")
        if self.kappa_m <= 0.0:
            raise ValueError("kappa_m must be positive")


def aluminum_device(m_m: float, omega_m: float, gamma_m: float,
                    theta_ph: float, theta_fh: float,
                    kappa_m: float) -> MechParams:
    """MechParams with the aluminum-mirror sign convention enforced.

    Aluminum expands more than the silicon/silicon-nitride support, so both
    thermal coefficients are negative for this device family.
    """
    if theta_fh >= 0.0 or theta_ph >= 0.0:
        raise ValueError("aluminum device requires theta_fh < 0 and "
                         "theta_ph < 0")
    return MechParams(m_m, omega_m, gamma_m, theta_ph, theta_fh, kappa_m)


@dataclass(frozen=True)
class AbsorptionModel:
    """Displacement expansion of the mirror absorption coefficient."""

    a_h0: float   # K/(s * intensity-unit): heating scale
    k_a1: float   # 1/m; negative = blue detuned, positive = red detuned
    k_a2: float = 0.0  # 1/m^2

    def __post_init__(self):
        if self.a_h0 <= 0.0:
            raise ValueError("a_h0 must be positive")

    def value(self, x: float) -> float:
        return self.a_h0 * (1.0 + self.k_a1 * x + self.k_a2 * x * x)


@dataclass(frozen=True)
class IntensityDrive:
    """Intracavity intensity model L_H(t).

    Modes:
      cw          -- constant L_0
      comb        -- L_0 * T_beta(omega_pulse*t + phase): open-loop pulse
                     train from a fixed clock
      closed_loop -- pulse train slaved to the mirror: the comb argument is
                     the mirror's own oscillation phase (measured about the
                     instantaneous thermal equilibrium), with pulse peaks at
                     the turning point where the absorption A_H(x) is
                     minimal, plus an optional ``phase`` offset.  The
                     linewidth follows the motion through the modulation
                     strength mu_M = coupling * amplitude:
                     beta(t) = max(beta_floor, t_n / (2 mu_M)).
    """

    l0: float
    mode: str = "cw"
    beta: float = 0.0            # comb mode
    omega_pulse: float = 0.0     # rad/s, comb mode
    phase: float = 0.0           # rad
    coupling: float = 0.0        # 1/(m s): mu_M per meter of amplitude
    beta_floor: float = 0.0      # closed_loop
    t_n: float = 0.0             # 1/s, effective noise for the beta schedule

    def __post_init__(self):
        if self.l0 < 0.0:
            raise ValueError("l0 must be nonnegative")
        if self.mode not in ("cw", "comb", "closed_loop"):
            raise ValueError(f"unknown drive mode {self.mode!r}")
        if self.mode == "comb" and self.beta <= 0.0:
            raise ValueError("comb drive requires beta > 0")
        if self.mode == "closed_loop":
            if self.coupling < 0.0:
                raise ValueError("coupling must be nonnegative")
            if self.beta_floor <= 0.0 or self.t_n <= 0.0:
                raise ValueError(
                    "closed_loop drive requires beta_floor > 0 and t_n > 0")

    @classmethod
    def cw(cls, l0: float) -> "IntensityDrive":
        return cls(l0=l0, mode="cw")

    @classmethod
    def comb(cls, l0: float, beta: float, omega_pulse: float,
             phase: float = 0.0) -> "IntensityDrive":
        return cls(l0=l0, mode="comb", beta=beta, omega_pulse=omega_pulse,
                   phase=phase)

    @classmethod
    def closed_loop(cls, l0: float, coupling: float, beta_floor: float,
                    t_n: float, phase: float = 0.0) -> "IntensityDrive":
        return cls(l0=l0, mode="closed_loop", coupling=coupling,
                   beta_floor=beta_floor, t_n=t_n, phase=phase)


@dataclass(frozen=True)
class NoiseChain:
    """Amplifier gain/noise parameters and cavity geometry."""

    g_oa: float          # small-signal gain, dimensionless
    n_pi: float          # population inversion parameter
    gamma_om: float      # 1/s, optical mode damping rate
    n_p: float           # photons per mode
    lambda_l: float      # m
    delta_lambda: float  # m
    l_r: float           # m, ring length
    n_eff: float
    omega_p: float       # rad/s, optical carrier

    def __post_init__(self):
        if self.g_oa <= 1.0:
            raise ValueError("g_oa must exceed 1")
        if self.n_pi < 1.0:
            raise ValueError("n_pi must be >= 1")
        if min(self.lambda_l, self.delta_lambda, self.l_r) <= 0.0:
            raise ValueError("lengths must be positive")


@dataclass(frozen=True)
class MirrorTrajectory:
    """Sampled mirror state: displacement, velocity, relative temperature."""

    time: np.ndarray
    x: np.ndarray
    v: np.ndarray
    t_r_rel: np.ndarray

    def __post_init__(self):
        for name in ("time", "x", "v", "t_r_rel"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        n = self.time.size
        if not (self.x.size == n and self.v.size == n
                and self.t_r_rel.size == n):
            raise ValueError("trajectory arrays must have equal length")


def theta_t(kappa_m: float, omega: float) -> float:
    """Thermal phase lag parameter arctan(kappa_m / omega).

    The relative phase between heating and temperature in steady
    oscillation is theta_t - pi/2.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return float(np.arctan2(kappa_m, omega))


def gamma_h0(mech: MechParams, absorption: AbsorptionModel,
             l0: float) -> float:
    """Damping shift from the average optical intensity.

    k_A1 Theta_FH L_0 A_H0 / (2 m_m w_m^2); destabilizing when
    k_A1*Theta_FH < 0 (red detuning for a device with Theta_FH < 0).
    """
    return absorption.k_a1 * mech.theta_fh * l0 * absorption.a_h0 \
        / (2.0 * mech.m_m * mech.omega_m ** 2)


def gamma_h1(mech: MechParams, absorption: AbsorptionModel, l0: float,
             t_n: float) -> float:
    """Damping shift from the motion-locked pulse train.

    -(2 w_m / T_N) * gamma_h0; valid when the round-trip/mechanical
    detuning is negligible.  Opposite sign and much larger magnitude than
    gamma_h0 because 2 w_m / T_N >> 1.
    """
    if t_n <= 0.0:
        raise ValueError("t_n must be positive")
    return -(2.0 * mech.omega_m / t_n) * gamma_h0(mech, absorption, l0)


def effective_params(mech: MechParams, g_h0: float, g_h1: float):
    """Effective (frequency, damping) including the optical contributions.

    w_eff = w_m + (kappa_m/w_m)(g_h0 + g_h1);
    gamma_eff = gamma_m + g_h0 + g_h1.  Instability iff gamma_eff < 0.
    """
    total = g_h0 + g_h1
    return (mech.omega_m + (mech.kappa_m / mech.omega_m) * total,
            mech.gamma_m + total)


def seo_threshold(mech: MechParams, absorption: AbsorptionModel) -> float:
    """Average intensity at which CW-driven self-oscillation starts.

    Solves gamma_m + gamma_h0(L) = 0:
    L* = -2 gamma_m m_m w_m^2 / (k_A1 Theta_FH A_H0).  Returns inf when the
    sign combination is stabilizing (no finite threshold).
    """
    slope = absorption.k_a1 * mech.theta_fh * absorption.a_h0 \
        / (2.0 * mech.m_m * mech.omega_m ** 2)
    if slope >= 0.0:
        return float("inf")
    return -mech.gamma_m / slope


def mml_threshold(mech: MechParams, absorption: AbsorptionModel,
                  t_n: float) -> float:
    """Average intensity at which mechanical mode locking starts.

    Solves gamma_m + gamma_h0(L) + gamma_h1(L) = 0 with
    gamma_h1 = -(2 w_m/T_N) gamma_h0, i.e. a threshold smaller than the SEO
    one by roughly T_N/(2 w_m).  Returns inf for the stabilizing sign
    combination (for Theta_FH < 0 the MML threshold exists on blue
    detuning, where the SEO one does not).
    """
    if t_n <= 0.0:
        raise ValueError("t_n must be positive")
    slope = absorption.k_a1 * mech.theta_fh * absorption.a_h0 \
        / (2.0 * mech.m_m * mech.omega_m ** 2)
    slope_total = slope * (1.0 - 2.0 * mech.omega_m / t_n)
    if slope_total >= 0.0:
        return float("inf")
    return -mech.gamma_m / slope_total


def noise_figure(g_oa: float, n_pi: float) -> float:
    """Amplifier noise figure 2 n_PI (G - 1) / G."""
    if g_oa <= 1.0:
        raise ValueError("g_oa must exceed 1")
    return 2.0 * n_pi * (g_oa - 1.0) / g_oa


def effective_noise(chain: NoiseChain):
    """Derived noise parameters (T_N, N_R, P_OA).

    T_N = gamma_OM alpha_NF G_OA / (4 <n_p>);
    N_R = L_R dlambda / lambda_L^2;
    P_OA = gamma_OM hbar w_p N_R <n_p>.
    """
    a_nf = noise_figure(chain.g_oa, chain.n_pi)
    t_n = chain.gamma_om * a_nf * chain.g_oa / (4.0 * chain.n_p)
    n_r = chain.l_r * chain.delta_lambda / chain.lambda_l ** 2
    p_oa = chain.gamma_om * HBAR * chain.omega_p * n_r * chain.n_p
    return t_n, n_r, p_oa


def cw_fixed_point(mech: MechParams, absorption: AbsorptionModel,
                   l0: float, max_iter: int = 200, tol: float = 1e-15):
    """Static operating point (T_bar, x_bar, omega_tilde) under CW drive.

    Solves the coupled equilibrium T = L0 A_H(x)/kappa,
    x = Theta_FH T / (m (w_m + Theta_PH T)^2) by fixed-point iteration.
    """
    t_bar, x_bar = 0.0, 0.0
    for _ in range(max_iter):
        w = mech.omega_m + mech.theta_ph * t_bar
        t_new = l0 * absorption.value(x_bar) / mech.kappa_m
        x_new = mech.theta_fh * t_new / (mech.m_m * w * w)
        if abs(t_new - t_bar) <= tol * max(1.0, abs(t_new)) and \
           abs(x_new - x_bar) <= tol * max(1.0, abs(x_new)):
            t_bar, x_bar = t_new, x_new
            break
        t_bar, x_bar = t_new, x_new
    omega_tilde = mech.omega_m + mech.theta_ph * t_bar
    return t_bar, x_bar, omega_tilde


def linear_response_oracle(mech: MechParams, absorption: AbsorptionModel,
                           l0: float, omega_drive: float):
    """Exact linear-response damping and frequency shifts under CW drive.

    Linearizing about the static operating point, the temperature response
    to x = x0 cos(w t) has magnitude S x0 / sqrt(kappa^2 + w^2) and phase
    lag pi/2 - theta_t, where S = L0 A_H0 (k_A1 + 2 k_A2 x_bar) is the
    heating slope.  Projecting the resulting force onto the velocity and
    displacement quadratures gives

        delta_gamma = C S / (2 (kappa^2 + w^2)),
        pull        = -C S kappa / (2 w_tilde (kappa^2 + w^2)),

    with C = Theta_FH/m - 2 w_tilde Theta_PH x_bar, valid at any
    kappa/omega ratio.  Returned ``delta_omega`` includes the static
    thermal shift: delta_omega = (w_tilde - w_m) + pull.

    In the kappa << w limit |delta_gamma| -> |gamma_h0| with relative
    deviation kappa^2/w^2.
    """
    if omega_drive <= 0.0:
        raise ValueError("omega_drive must be positive")
    t_bar, x_bar, omega_tilde = cw_fixed_point(mech, absorption, l0)
    s_heat = l0 * absorption.a_h0 * (absorption.k_a1
                                     + 2.0 * absorption.k_a2 * x_bar)
    c_force = mech.theta_fh / mech.m_m \
        - 2.0 * omega_tilde * mech.theta_ph * x_bar
    den = mech.kappa_m ** 2 + omega_drive ** 2
    delta_gamma = c_force * s_heat / (2.0 * den)
    pull = -c_force * s_heat * mech.kappa_m / (2.0 * omega_tilde * den)
    delta_omega = (omega_tilde - mech.omega_m) + pull
    return delta_gamma, delta_omega


def _intensity_law(drive: IntensityDrive, mech: MechParams,
                   absorption: AbsorptionModel):
    """The drive's law L_H(t, x, v, t_r) (SI), with its constants bound once.

    :func:`drive_intensity` evaluates it once; :func:`simulate` builds it
    before its time loop and calls it at every RK4 stage.
    """
    l0 = drive.l0
    if drive.mode == "cw":
        return lambda t, x, v, t_r: l0
    if drive.mode == "comb":
        omega_pulse, phase, beta = drive.omega_pulse, drive.phase, drive.beta

        def comb_law(t, x, v, t_r):
            return l0 * comb_closed(omega_pulse * t + phase, beta)
        return comb_law

    # closed_loop: phase and linewidth slaved to the mirror motion
    omega_m, theta_ph = mech.omega_m, mech.theta_ph
    fh_per_m = mech.theta_fh / mech.m_m
    offset = drive.phase - (math.pi if absorption.k_a1 > 0.0 else 0.0)
    coupling, beta_floor, t_n = drive.coupling, drive.beta_floor, drive.t_n

    def closed_loop_law(t, x, v, t_r):
        w = omega_m + theta_ph * t_r
        xc = x - fh_per_m * t_r / (w * w)
        vn = v / omega_m
        amp = math.hypot(xc, vn)
        psi = math.atan2(-vn, xc) if amp > 0.0 else 0.0
        mu_m = coupling * amp
        if mu_m > 0.0:
            beta = max(beta_floor, t_n / (2.0 * mu_m))
        else:
            beta = _BETA_FLAT
        return l0 * comb_closed(psi + offset, min(beta, _BETA_FLAT))
    return closed_loop_law


def drive_intensity(drive: IntensityDrive, mech: MechParams,
                    absorption: AbsorptionModel, t: float, x: float,
                    v: float, t_r: float) -> float:
    """Instantaneous intensity L_H for any drive mode (SI inputs).

    For the closed_loop mode the pulse train is slaved to the mirror: the
    oscillation phase is measured about the instantaneous thermal
    equilibrium x_eq = Theta_FH T_R/(m w^2), and the comb peak is placed at
    the turning point where A_H(x) is minimal (x > 0 side for k_A1 < 0).
    """
    return _intensity_law(drive, mech, absorption)(t, x, v, t_r)


def simulate(mech: MechParams, absorption: AbsorptionModel,
             drive: IntensityDrive, x0: float, v0: float, t_end: float,
             dt: float, store_every: int = 1) -> MirrorTrajectory:
    """Integrate the coupled (x, v, T_R) system with fixed-step RK4.

    The step must resolve the mechanical period: dt <= 2 pi/(50 w_m).
    Integration is carried out in nondimensional variables (time unit
    1/w_m, displacement unit 0.1/|k_A1|) and converted back to SI in the
    returned trajectory, decimated by ``store_every``.

    Above an instability threshold the linear growth is unbounded; the run
    halts with :class:`InstabilityError` once |k_A1 x| > 1 (the absorption
    expansion is invalid there), once the thermal frequency
    omega_m + Theta_PH T_R reaches zero (the restoring force vanishes and
    the closed-loop law's x_eq is singular there), or once the state stops
    being finite.
    """
    if dt <= 0.0 or dt > 2.0 * np.pi / (50.0 * mech.omega_m):
        raise ValueError("require 0 < dt <= 2*pi/(50*omega_m)")
    if t_end <= dt:
        raise ValueError("t_end must exceed dt")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")

    w0 = mech.omega_m
    x_ref = 0.1 / abs(absorption.k_a1) if absorption.k_a1 != 0.0 \
        else max(abs(x0), 1e-9)
    t_ref = drive.l0 * absorption.a_h0 / mech.kappa_m if drive.l0 > 0.0 \
        else 1.0

    # nondimensional coefficients
    g = mech.gamma_m / w0
    kap = mech.kappa_m / w0
    c_ph = mech.theta_ph * t_ref / w0
    c_fh = mech.theta_fh * t_ref / (mech.m_m * x_ref * w0 * w0)
    ka1 = absorption.k_a1 * x_ref
    ka2 = absorption.k_a2 * x_ref * x_ref
    h_scale = absorption.a_h0 / (t_ref * w0)
    v_ref = x_ref * w0
    law = _intensity_law(drive, mech, absorption)

    def rhs(tau, xs, ws, th):
        lh = law(tau / w0, xs * x_ref, ws * v_ref, th * t_ref)
        heat = lh * h_scale * (1.0 + ka1 * xs + ka2 * xs * xs)
        freq = 1.0 + c_ph * th
        return (ws,
                -2.0 * g * ws - freq * freq * xs + c_fh * th,
                heat - kap * th)

    n_steps = int(round(t_end / dt))
    h = dt * w0
    xs, ws, th = x0 / x_ref, v0 / (x_ref * w0), 0.0

    n_store = n_steps // store_every + 1
    time = np.empty(n_store)
    xa = np.empty(n_store)
    va = np.empty(n_store)
    ta = np.empty(n_store)
    time[0], xa[0], va[0], ta[0] = 0.0, x0, v0, 0.0
    j = 1

    kx_limit = 1.0 / abs(ka1) if ka1 != 0.0 else math.inf
    for i in range(1, n_steps + 1):
        a1, b1, c1 = rhs((i - 1) * h, xs, ws, th)
        a2, b2, c2 = rhs((i - 0.5) * h, xs + 0.5 * h * a1, ws + 0.5 * h * b1,
                         th + 0.5 * h * c1)
        a3, b3, c3 = rhs((i - 0.5) * h, xs + 0.5 * h * a2, ws + 0.5 * h * b2,
                         th + 0.5 * h * c2)
        a4, b4, c4 = rhs(i * h, xs + h * a3, ws + h * b3, th + h * c3)
        xs += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        ws += h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        th += h / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)

        bad = not (math.isfinite(xs) and math.isfinite(ws)
                   and math.isfinite(th))
        if bad or abs(xs) > kx_limit or 1.0 + c_ph * th <= 0.0:
            partial = MirrorTrajectory(time[:j], xa[:j], va[:j], ta[:j])
            t_last = partial.time[-1]
            if bad or abs(xs) > kx_limit:
                reason = "integration left the linear-absorption domain"
            else:
                reason = ("the thermal frequency omega_m + theta_ph*T_R "
                          "reached zero")
            raise InstabilityError(
                f"{reason} at t = {i * dt:.6g} s",
                t=t_last,
                state=(partial.x[-1], partial.v[-1], partial.t_r_rel[-1]),
                trajectory=partial)
        if i % store_every == 0:
            time[j] = i * dt
            xa[j] = xs * x_ref
            va[j] = ws * x_ref * w0
            ta[j] = th * t_ref
            j += 1

    return MirrorTrajectory(time[:j], xa[:j], va[:j], ta[:j])


def ringdown_extract(traj: MirrorTrajectory):
    """Fit (omega, gamma) to an exponentially enveloped oscillation.

    Extrema are located from the zero crossings of the velocity;
    consecutive maximum/minimum pairs give offset-free amplitude samples
    whose log-envelope is regressed linearly for gamma (negative gamma
    means growth).  The frequency comes from a linear fit of
    velocity-crossing times, which are spaced by exactly half a period for
    any exponential envelope.
    """
    t, x, v = traj.time, traj.x, traj.v
    sign_change = np.where(np.diff(np.sign(v)) != 0)[0]
    # refine crossing times by linear interpolation of v
    if sign_change.size < 5:
        raise InsufficientDataError(
            f"only {sign_change.size} extrema found; need at least 5")
    tc = t[sign_change] - v[sign_change] * (
        (t[sign_change + 1] - t[sign_change])
        / (v[sign_change + 1] - v[sign_change]))
    # half-period spacing: linear fit, slope = pi/omega
    idx = np.arange(tc.size)
    slope = np.polyfit(idx, tc, 1)[0]
    omega_fit = np.pi / slope

    # amplitude at each extremum: quadratic interpolation of x around the
    # crossing sample
    x_ext = np.empty(tc.size)
    for n, i0 in enumerate(sign_change):
        lo = max(i0 - 1, 0)
        hi = min(i0 + 3, t.size)
        coeff = np.polyfit(t[lo:hi] - tc[n], x[lo:hi], 2)
        x_ext[n] = coeff[-1]
    # consecutive max/min pairs cancel any static offset
    amp = np.abs(x_ext[1:] - x_ext[:-1]) / 2.0
    t_mid = (tc[1:] + tc[:-1]) / 2.0
    good = amp > 0.0
    if np.count_nonzero(good) < 4:
        raise InsufficientDataError("too few usable extremum pairs")
    gamma_fit = -np.polyfit(t_mid[good], np.log(amp[good]), 1)[0]
    return float(omega_fit), float(gamma_fit)
