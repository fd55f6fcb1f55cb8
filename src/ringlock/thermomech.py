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

Every quantity is SI, inside the integrator as at its interfaces: float64
needs no rescaling, and RK4 commutes with a change of units.
"""

import math
from math import exp, expm1, hypot, isfinite
from dataclasses import dataclass

import numpy as np

from . import comb, engine
from .comb import closed_factors, comb_closed
from .engine import InsufficientDataError, IntegrationError, require

HBAR = 1.054571817e-34  # J s


class InstabilityError(IntegrationError):
    """Integration left the model's domain of validity.

    Expected (and meaningful) above the SEO/MML threshold, where the
    linear-instability growth is unbounded because saturation physics is out
    of scope.  ``t`` is the end time of the step that left the domain, and
    ``trajectory`` the samples stored before it.
    """


# fewest RK4 steps per mechanical period that simulate() accepts
MIN_STEPS_PER_CYCLE = 50


def mech_constraint_findings(m_m: float, omega_m: float, gamma_m: float,
                             kappa_m: float) -> list[str]:
    """Violations of :class:`MechParams`' constraints; an empty list means
    valid.  The constructor and the CLI's config validation check them
    here.
    """
    findings = []
    if not (m_m > 0.0 and omega_m > 0.0):
        findings.append("mass and frequency must be positive")
    elif not 0.0 <= gamma_m < 0.1 * omega_m:
        findings.append(f"require gamma_m < 0.1*omega_m (weak damping; got "
                        f"gamma_m/omega_m = {gamma_m / omega_m:g})")
    if not kappa_m > 0.0:
        findings.append("kappa_m must be positive")
    return findings


def step_constraint_findings(dt: float, omega_m: float) -> list[str]:
    """Violations of :func:`simulate`'s step constraint: the RK4 step must
    resolve the mechanical period, dt <= 2 pi/(50 omega_m).  An empty list
    means valid; ``simulate`` and the CLI's config validation check it
    here.
    """
    if dt <= 0.0 or dt > 2.0 * np.pi / (MIN_STEPS_PER_CYCLE * omega_m):
        return [f"require 0 < dt <= 2*pi/({MIN_STEPS_PER_CYCLE}*omega_m): "
                f"at least {MIN_STEPS_PER_CYCLE} steps per mechanical "
                f"period (got {2.0 * np.pi / (dt * omega_m):.6g})"]
    return []


def noise_constraint_findings(g_oa: float, n_pi: float) -> list[str]:
    """Violations of :class:`NoiseChain`'s amplifier constraints beyond the
    signs of its parameters; an empty list means valid.  The constructor
    and the CLI's config validation check them here.
    """
    findings = _gain_findings(g_oa)
    if not n_pi >= 1.0:
        findings.append(f"n_pi must be >= 1 (got {n_pi:g})")
    return findings


def _gain_findings(g_oa: float) -> list[str]:
    """The amplifier gain's finding, g_oa > 1, which :func:`noise_figure`
    also needs."""
    if not g_oa > 1.0:
        return [f"g_oa must exceed 1 (got {g_oa:g})"]
    return []


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
        require(mech_constraint_findings(self.m_m, self.omega_m,
                                         self.gamma_m, self.kappa_m))


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
    """Intracavity intensity model L_H, a function of the mirror's state.

    Modes:
      cw          -- constant L_0
      closed_loop -- pulse train slaved to the mirror: the comb argument is
                     the mirror's own oscillation phase (measured about the
                     instantaneous thermal equilibrium), with pulse peaks at
                     the turning point where the absorption A_H(x) is
                     minimal.  The linewidth follows the motion through
                     the modulation strength mu_M = coupling * amplitude:
                     beta = max(beta_floor, t_n / (2 mu_M)), and inf
                     (a flat train) where mu_M = 0.
    """

    l0: float
    mode: str = "cw"
    coupling: float = 0.0        # 1/(m s): mu_M per meter of amplitude
    beta_floor: float = 0.0      # closed_loop
    t_n: float = 0.0             # 1/s, effective noise for the beta schedule

    def __post_init__(self):
        if self.l0 < 0.0:
            raise ValueError("l0 must be nonnegative")
        if self.mode not in ("cw", "closed_loop"):
            raise ValueError(f"unknown drive mode {self.mode!r}")
        if self.mode == "closed_loop":
            if self.coupling < 0.0:
                raise ValueError("coupling must be nonnegative")
            if self.t_n <= 0.0:
                raise ValueError("closed_loop drive requires t_n > 0")
            # the floor bounds every beta of the law from below
            require(comb.constraint_findings(
                self.beta_floor, "closed_loop drive: beta_floor"))

    @classmethod
    def cw(cls, l0: float) -> "IntensityDrive":
        return cls(l0=l0, mode="cw")

    @classmethod
    def closed_loop(cls, l0: float, coupling: float, beta_floor: float,
                    t_n: float) -> "IntensityDrive":
        return cls(l0=l0, mode="closed_loop", coupling=coupling,
                   beta_floor=beta_floor, t_n=t_n)


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
    omega_p: float       # rad/s, optical carrier

    def __post_init__(self):
        require(noise_constraint_findings(self.g_oa, self.n_pi))
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
    sign combination is stabilizing (no finite threshold).  Under CW light
    there is no pulse term gamma_h1, so this is :func:`mml_threshold` at
    T_N = inf, where 1 - 2 w_m/T_N is exactly 1.
    """
    return mml_threshold(mech, absorption, math.inf)


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
    slope = gamma_h0(mech, absorption, 1.0)
    slope_total = slope * (1.0 - 2.0 * mech.omega_m / t_n)
    if slope_total >= 0.0:
        return float("inf")
    return -mech.gamma_m / slope_total


# the threshold search's interval, in units of the formula threshold
SEARCH_SPAN = (0.8, 1.25)
# the finest relative bracket width the search accepts: far below it the
# midpoint of a bracket rounds to one of its ends and the width stops
# shrinking, so the bisection would never end
MIN_SEARCH_RTOL = 1e-12


def search_constraint_findings(rtol: float) -> list[str]:
    """Violations of :func:`bisect_threshold`'s tolerance constraint,
    rtol >= 1e-12; an empty list means valid.  The search and the CLI's
    config validation check it here.
    """
    if not rtol >= MIN_SEARCH_RTOL:
        return [f"require search_rtol >= {MIN_SEARCH_RTOL:g}: a finer "
                f"bracket is below float resolution (got {rtol:g})"]
    return []


def bisect_threshold(grows, l_star: float, rtol: float, known=()):
    """Bracket the simulated growth threshold in ``SEARCH_SPAN`` * l_star.

    ``grows(l0) -> bool`` runs one probe.  Bisection already assumes one
    crossing, that is, growth monotone in L0; under that premise a growth
    at g decides every L0 >= g and a decay at d every L0 <= d.  ``grows``
    is called only where no earlier result decides the answer: the
    results passed in ``known`` as ``(l0, grew)`` pairs, and the search's
    own, which bisection never needs twice.  The first midpoint is taken
    before the span's ends: its growth decides the high end and its decay
    the low end, so only the other end is classified after it.  The later
    midpoints follow in plain bisection's order, with the same floats,
    until (hi - lo)/l_star <= rtol; when the span is no wider than rtol
    there is no midpoint and both ends are classified.  Under the premise
    the bracket, or None, is the one plain bisection finds, and an end of
    it may be decided by another result rather than probed.

    Returns ``(bracket, probes)``: ``bracket`` is ``(lo, hi)``, or None
    when the low end grows or the high end decays (no sign change inside
    the span); ``probes`` lists the ``(l0, grew)`` calls made, in order.
    Every decayed result lies below every grown one, so a bracket holds a
    decayed and a grown L0, each probed or known, with lo <= d < g <= hi.
    """
    require(search_constraint_findings(rtol))
    if not 0.0 < l_star < math.inf:
        raise ValueError(f"l_star must be positive and finite (got {l_star})")
    # the highest known decay and the lowest known growth.  A probe's own
    # result never decides a later point: the end the first midpoint
    # decides is never classified, and every later midpoint lies strictly
    # inside the bracket the earlier results left
    decayed = max((l0 for l0, grew in known if not grew), default=-math.inf)
    grown = min((l0 for l0, grew in known if grew), default=math.inf)
    if not decayed < grown:
        raise ValueError(f"known results are not monotone in L0: a decay at "
                         f"{decayed!r} is not below a growth at {grown!r}")
    probes = []

    def classify(l0):
        if l0 >= grown:
            return True
        if l0 <= decayed:
            return False
        grew = bool(grows(l0))
        probes.append((l0, grew))
        return grew

    lo, hi = SEARCH_SPAN[0] * l_star, SEARCH_SPAN[1] * l_star
    ends_open = True    # the first midpoint decides one, the other is next
    while (hi - lo) / l_star > rtol:
        mid = 0.5 * (lo + hi)
        if classify(mid):
            if ends_open and classify(lo):
                return None, probes
            hi = mid
        elif ends_open and not classify(hi):
            return None, probes
        else:
            lo = mid
        ends_open = False
    if ends_open and (classify(lo) or not classify(hi)):
        return None, probes
    return (lo, hi), probes


def noise_figure(g_oa: float, n_pi: float) -> float:
    """Amplifier noise figure 2 n_PI (G - 1) / G."""
    require(_gain_findings(g_oa))
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
                   l0: float):
    """Static operating point (T_bar, x_bar, omega_tilde) under CW drive.

    Solves the coupled equilibrium T = L0 A_H(x)/kappa,
    x = Theta_FH T / (m (w_m + Theta_PH T)^2) by fixed-point iteration, to
    a step of 1e-15 relative (absolute below 1).  Raises
    ``ArithmeticError`` when 200 iterations end unconverged (with
    Theta_PH = k_A2 = 0 each iteration multiplies the error by the loop
    gain 2 gamma_H0/kappa_m, so it fails once |gain| >= 1) or when the point
    lies outside the model's domain, omega_tilde = w_m + Theta_PH T <= 0.
    """
    t_bar, x_bar = 0.0, 0.0
    for _ in range(200):
        w = mech.omega_m + mech.theta_ph * t_bar
        t_new = l0 * absorption.value(x_bar) / mech.kappa_m
        x_new = mech.theta_fh * t_new / (mech.m_m * w * w)
        converged = abs(t_new - t_bar) <= 1e-15 * max(1.0, abs(t_new)) \
            and abs(x_new - x_bar) <= 1e-15 * max(1.0, abs(x_new))
        t_bar, x_bar = t_new, x_new
        if converged:
            break
    else:
        raise ArithmeticError(
            f"the CW static point at L0 = {l0:.6g} did not converge in 200 "
            f"fixed-point iterations (last T_R = {t_bar:.6g} K)")
    omega_tilde = mech.omega_m + mech.theta_ph * t_bar
    if not omega_tilde > 0.0:
        raise ArithmeticError(
            f"the CW static point at L0 = {l0:.6g} has thermal frequency "
            f"omega_m + Theta_PH*T_R = {omega_tilde:.6g} rad/s, outside the "
            "model's domain (> 0)")
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


def drive_intensity(drive: IntensityDrive, mech: MechParams,
                    absorption: AbsorptionModel, x: float, v: float,
                    t_r: float) -> float:
    """Instantaneous intensity L_H for any drive mode, from the mirror's
    state (SI inputs); no mode reads the time.

    For the closed_loop mode the pulse train is slaved to the mirror: the
    oscillation phase is measured about the instantaneous thermal
    equilibrium x_eq = Theta_FH T_R/(m w^2), and the comb peak is placed at
    the turning point where A_H(x) is minimal (x > 0 side for k_A1 < 0).

    This is the reference law, evaluated through
    :func:`ringlock.comb.comb_closed`; :func:`simulate` runs its own
    inline copy of each mode's law, and the tests hold the two together.
    """
    if drive.mode == "cw":
        return drive.l0
    w = mech.omega_m + mech.theta_ph * t_r
    xc = x - mech.theta_fh / mech.m_m * t_r / (w * w)
    vn = v / mech.omega_m
    mu_m = drive.coupling * math.hypot(xc, vn)
    beta = max(drive.beta_floor, drive.t_n / (2.0 * mu_m)) if mu_m > 0.0 \
        else math.inf
    psi = math.atan2(-vn, xc)
    offset = -math.pi if absorption.k_a1 > 0.0 else 0.0
    return drive.l0 * comb_closed(psi + offset, beta)


def _rhs(drive: IntensityDrive, mech: MechParams,
         absorption: AbsorptionModel):
    """The right-hand side (x', v', T_R') of one drive mode, in SI.

    The constants are bound once and each mode's drive law is written
    inline, so an RK4 stage is a single call.  The law is
    :func:`drive_intensity`'s, with L0 A_H0 bound as one factor.  The
    closed loop's is in algebraic form, without atan2 or sin: the comb's
    2 sin^2((psi + offset)/2) is a ratio of xc, vn and the amplitude, and
    the floor linewidth's factors are folded at build time; it agrees with
    the reference to rounding.  The drive's constructor keeps every comb
    linewidth in the domain of :func:`ringlock.comb.comb_closed`: the
    closed loop's beta_floor bounds every stage's beta from below.  No law
    reads the time, so a right-hand side takes the state (x, v, T_R) alone.
    """
    w0, theta_ph = mech.omega_m, mech.theta_ph
    m2g = -2.0 * mech.gamma_m
    fh_per_m = mech.theta_fh / mech.m_m
    kap = mech.kappa_m
    l0a = drive.l0 * absorption.a_h0
    ka1, ka2 = absorption.k_a1, absorption.k_a2
    if drive.mode == "cw":
        def cw_rhs(x, v, t_r):
            w = w0 + theta_ph * t_r
            return (v,
                    m2g * v - w * w * x + fh_per_m * t_r,
                    l0a * (1.0 + ka1 * x + ka2 * x * x) - kap * t_r)
        return cw_rhs

    # closed_loop: phase and linewidth slaved to the mirror motion.  With
    # psi = atan2(-vn, xc), cos(psi) = xc/amp, so the comb's
    # 2 sin^2((psi + offset)/2) is s2 = 1 + y/amp for y = -xc (blue,
    # offset 0) or y = xc (red, offset -pi), and with r = exp(-beta) the
    # heating is L0 A_H0 (1 - r^2) / ((1 - r)^2 + 2 r s2).
    # For y < 0, s2 = (vn/amp) (vn/(amp - y)) avoids the cancellation.
    # The denominator is at least (1 - r)^2 > 0.  -beta = b_amp/amp with
    # b_amp = -t_n/(2 coupling), so the floor is an amplitude bound; a
    # coupling of 0 (b_amp = -inf, no floor) and amp = 0 give r = 0, the
    # flat comb L0 A_H0.
    sign = 1.0 if ka1 > 0.0 else -1.0
    b_amp = -0.5 * drive.t_n / drive.coupling if drive.coupling > 0.0 \
        else -math.inf
    amp_floor = -b_amp / drive.beta_floor
    num_floor, den_floor, two_r_floor = closed_factors(drive.beta_floor)
    num_floor *= l0a

    def closed_loop_rhs(x, v, t_r):
        w = w0 + theta_ph * t_r
        xc = x - fh_per_m * t_r / (w * w)
        vn = v / w0
        amp = hypot(xc, vn)
        if amp > 0.0:
            y = sign * xc
            s2 = 1.0 + y / amp if y >= 0.0 else vn / amp * (vn / (amp - y))
            if amp >= amp_floor:
                heat = num_floor / (den_floor + two_r_floor * s2)
            else:
                r, one_minus_r = exp(b_amp / amp), -expm1(b_amp / amp)
                heat = l0a * one_minus_r * (1.0 + r) \
                    / (one_minus_r * one_minus_r + 2.0 * r * s2)
        else:
            heat = l0a
        return (v,
                m2g * v - w * w * x + fh_per_m * t_r,
                heat * (1.0 + ka1 * x + ka2 * x * x) - kap * t_r)
    return closed_loop_rhs


def simulate(mech: MechParams, absorption: AbsorptionModel,
             drive: IntensityDrive, x0: float, v0: float, t_end: float,
             dt: float, store_every: int = 1) -> MirrorTrajectory:
    """Integrate the coupled (x, v, T_R) system in SI with fixed-step RK4.

    The step must resolve the mechanical period: dt <= 2 pi/(50 w_m).  The
    returned trajectory is decimated by ``store_every``.  Each drive mode
    has one fused right-hand side, built once per run with the drive law
    inline; :func:`drive_intensity` is the reference for that law.  Every
    law is autonomous, so the stages carry no time; sample i is stored at
    time i*dt.  The step's constants are taken once, each the value its
    plain expression rounds to.  After each step one test reads each
    component of the state.

    Above an instability threshold the linear growth is unbounded; the run
    halts with :class:`InstabilityError`, at the end time of the step that
    left the domain, once |k_A1 x| > 1 (the absorption
    expansion is invalid there), once the thermal frequency
    omega_m + Theta_PH T_R reaches zero (the restoring force vanishes and
    the closed-loop law's x_eq is singular there), or once the state stops
    being finite.  A state that is not finite halts with the absorption
    domain's message.
    """
    require(step_constraint_findings(dt, mech.omega_m))
    if t_end <= dt:
        raise ValueError("t_end must exceed dt")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")

    rhs = _rhs(drive, mech, absorption)
    w0, theta_ph = mech.omega_m, mech.theta_ph
    x_limit = 1.0 / abs(absorption.k_a1) if absorption.k_a1 != 0.0 \
        else math.inf
    n_steps = int(round(t_end / dt))
    x, v, t_r = x0, v0, 0.0

    n_store = n_steps // store_every + 1
    time = np.empty(n_store)
    xa = np.empty(n_store)
    va = np.empty(n_store)
    ta = np.empty(n_store)
    time[0], xa[0], va[0], ta[0] = 0.0, x0, v0, 0.0
    j = 1

    # the step's constants, as the plain expressions round them
    half, sixth = 0.5 * dt, dt / 6.0
    for i in range(1, n_steps + 1):
        a1, b1, c1 = rhs(x, v, t_r)
        a2, b2, c2 = rhs(x + half * a1, v + half * b1, t_r + half * c1)
        a3, b3, c3 = rhs(x + half * a2, v + half * b2, t_r + half * c2)
        a4, b4, c4 = rhs(x + dt * a3, v + dt * b3, t_r + dt * c3)
        x += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        v += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        t_r += sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)

        inside = (isfinite(x) and isfinite(v) and isfinite(t_r)
                  and -x_limit <= x <= x_limit)
        if not (inside and w0 + theta_ph * t_r > 0.0):
            reason = ("the thermal frequency omega_m + theta_ph*T_R reached "
                      "zero" if inside else
                      "integration left the linear-absorption domain")
            raise InstabilityError(
                f"{reason} at t = {i * dt:.6g} s", t=i * dt,
                trajectory=MirrorTrajectory(time[:j], xa[:j], va[:j], ta[:j]))
        if i % store_every == 0:
            time[j], xa[j], va[j], ta[j] = i * dt, x, v, t_r
            j += 1

    return MirrorTrajectory(time[:j], xa[:j], va[:j], ta[:j])


# the growth probe's amplitude windows, as fractions of the last stored
# time: it classifies the late one, t/t_last > 0.8, and under CW compares
# it with the reference one, 0.3 < t/t_last <= 0.5, after thermal settling
LATE_WINDOW = 0.8
REFERENCE_WINDOW = (0.3, 0.5)


def probe_constraint_findings(mode: str, x0: float, t_end: float, dt: float,
                              store_every: int, kappa_m: float) -> list[str]:
    """Violations of :func:`probe_growth`'s constraints; an empty list means
    valid.  A closed-loop probe measures growth against |x0|, so needs
    x0 != 0, and every window the probe reads must hold a stored sample.
    Any other probe compares with its reference window, which must open
    after the thermal settling: REFERENCE_WINDOW[0]*kappa_m*t_last >= 1,
    with t_last the last stored time.  The four stored arrays of
    :func:`simulate` meet the size rule (:func:`ringlock.engine.size_findings`).
    The probe and the CLI's config validation check them here.
    """
    findings = ["mml requires x0 != 0 (the seed amplitude)"] \
        if mode == "closed_loop" and x0 == 0.0 else []
    # simulate() stores t/t_last = k/n for k = 0..n, so (lo, hi] holds a
    # sample iff floor(hi*n) > lo*n; the late window holds k = n whenever
    # the reference window holds a sample
    n = int(round(t_end / dt)) // store_every
    findings += engine.size_findings(4 * (n + 1), "the stored trajectory")
    lo, hi = (LATE_WINDOW, 1.0) if mode == "closed_loop" else REFERENCE_WINDOW
    if not math.floor(hi * n) > lo * n:
        findings.append(f"store_every = {store_every} leaves the growth "
                        f"probe no sample at {lo:g} < t/t_last <= {hi:g}")
    # any other probe's reference window opens at lo*t_last, and must open
    # after the thermal settling its ratio cancels
    settled = lo * kappa_m * n * store_every * dt
    if mode != "closed_loop" and not settled >= 1.0:
        findings.append(f"require {lo:g}*kappa_m*t_last >= 1: the growth "
                        f"probe's reference window opens before one thermal "
                        f"time 1/kappa_m (got {settled:.3g})")
    return findings


def probe_growth(mech: MechParams, absorption: AbsorptionModel,
                 drive: IntensityDrive, x0: float, t_end: float, dt: float,
                 store_every: int):
    """Run one trajectory from rest at x0; report (grew?, amplitude ratio,
    trajectory, halt time or None).

    A run that halts with :class:`InstabilityError` counts as grown, with
    ratio inf.  The amplitude is measured about the instantaneous thermal
    equilibrium and averaged over the late window.  The SEO instability
    grows or decays exponentially, so under CW that mean is compared with
    the reference window's, which cancels the thermal-settling transient.
    The closed-loop MML amplitude instead self-regulates to (L0/L*) times
    the seed within a few pumping times, so under ``closed_loop`` it is
    compared with |x0| directly.
    """
    require(probe_constraint_findings(drive.mode, x0, t_end, dt,
                                      store_every, mech.kappa_m))
    try:
        traj = simulate(mech, absorption, drive, x0=x0, v0=0.0, t_end=t_end,
                        dt=dt, store_every=store_every)
    except InstabilityError as err:
        return True, np.inf, err.trajectory, err.t
    w_inst = mech.omega_m + mech.theta_ph * traj.t_r_rel
    x_eq = mech.theta_fh * traj.t_r_rel / (mech.m_m * w_inst ** 2)
    amp = np.hypot(traj.x - x_eq, traj.v / mech.omega_m)
    t_frac = traj.time / traj.time[-1]
    late = float(amp[t_frac > LATE_WINDOW].mean())
    lo, hi = REFERENCE_WINDOW
    reference = abs(x0) if drive.mode == "closed_loop" \
        else float(amp[(t_frac > lo) & (t_frac <= hi)].mean())
    return late > reference, late / reference, traj, None


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
