"""Moebius-transformation algebra for Gaussian pulse parameters.

A Gaussian pulse E(t) = E_0 exp(-gamma t^2 + i w_p t) is characterized by the
complex parameter gamma; Re(gamma) > 0 sets the width and Im(gamma) the
chirp.  Each cavity element maps the inverse parameter u = 1/gamma through

    u_out = (A u + B) / (C u + D),

so elements compose by 2x2 matrix multiplication.  Amplitude modulators act
additively on gamma itself (time-like, C = gamma_T), filters and gain
bandwidth act additively on 1/gamma (frequency-like, B = 1/gamma_F).

One round trip (modulator then filter) composes to coefficients
(1 + g_m^2, 1/gamma_F, gamma_F g_m^2, 1) with g_m = sqrt(gamma_T/gamma_F).
In normalized form g = gamma/gamma_F the round-trip map reads

    g' = (g + g_m^2) / (1 + g + g_m^2),

whose continuum limit for |g_m| << 1 is dg/dtau_R = g_m^2 - g^2 with the
well-known solution g = g_m tanh(g_m (tau_R - tau_R0)): of the two fixed
points +/- g_m only the positive-real one is stable.
"""

from dataclasses import dataclass

import numpy as np

from .engine import require, size_findings

SPEED_OF_LIGHT = 299792458.0  # m/s


class PoleError(ArithmeticError):
    """Moebius map evaluated at (or mapped onto) a pole."""

    def __init__(self, message, gamma=None):
        super().__init__(message)
        self.gamma = gamma


class UnstableIterationError(ArithmeticError):
    """Round-trip iteration left the perturbative regime (|g| > 1)."""


@dataclass(frozen=True)
class MoebiusElement:
    """Coefficients (a, b, c, d) acting on the inverse pulse parameter."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("degenerate element: AD - BC = 0")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


IDENTITY = MoebiusElement(1, 0, 0, 1)


def element_time_like(gamma_t: complex) -> MoebiusElement:
    """Element of a modulator: gamma_out = gamma_in + gamma_T."""
    return MoebiusElement(1, 0, complex(gamma_t), 1)


def element_freq_like(gamma_f: complex) -> MoebiusElement:
    """Element of a filter/gain band: 1/gamma_out = 1/gamma_in + 1/gamma_F."""
    gamma_f = complex(gamma_f)
    if gamma_f == 0:
        raise ValueError("gamma_f must be nonzero")
    return MoebiusElement(1, 1.0 / gamma_f, 0, 1)


def compose(first: MoebiusElement, second: MoebiusElement) -> MoebiusElement:
    """Element equivalent to applying ``first`` then ``second``; a product
    whose determinant rounds to 0 is refused as a degenerate element."""
    m = second.matrix @ first.matrix
    return MoebiusElement(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def apply(element: MoebiusElement, gamma: complex) -> complex:
    """Transform a pulse parameter through one element."""
    gamma = complex(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    u = 1.0 / gamma
    den = element.c * u + element.d
    if den == 0:
        raise PoleError("denominator vanished", gamma=gamma)
    u_out = (element.a * u + element.b) / den
    if u_out == 0:
        raise PoleError("transformed parameter is infinite", gamma=gamma)
    return 1.0 / u_out


def roundtrip_map(g: complex, g_m: complex) -> complex:
    """Normalized round-trip map g' = (g + g_m^2)/(1 + g + g_m^2).

    This is the composite (time-like then frequency-like) element written in
    units of gamma_F; unlike :func:`apply` it is regular at g = 0.
    """
    gm2 = g_m * g_m
    den = 1.0 + g + gm2
    if den == 0:
        raise PoleError("round-trip map pole", gamma=g)
    return (g + gm2) / den


def discrete_fixed_points(g_m: complex):
    """Fixed points (p, q) of :func:`roundtrip_map`: g(1 + g + g_m^2) =
    g + g_m^2, that is g^2 + g_m^2 g - g_m^2 = 0.

    p = -g_m^2/2 + g_m sqrt(1 + g_m^2/4) continues the continuum point +g_m,
    q continues -g_m.  Their multipliers are reciprocal, so one attracts
    the iteration and the other repels it: p for Re(g_m) > 0.
    """
    root = g_m * np.sqrt(g_m * g_m + 4.0)
    return (-g_m * g_m + root) / 2.0, (-g_m * g_m - root) / 2.0


def constraint_findings(g_m: complex, n: int) -> list[str]:
    """Violations of the round-trip map's perturbative domain, |g_m| < 1,
    and of the size rule (:func:`ringlock.engine.size_findings`) on a
    trajectory of ``n`` round trips; an empty list means valid.
    :func:`roundtrip_iterate` and the CLI's config validation check them
    here.
    """
    findings = size_findings(n + 1, f"the trajectory of {n} round trips")
    if not abs(g_m) < 1.0:
        findings.append(f"|g_m| must be < 1 (got {abs(g_m):g})")
    return findings


def roundtrip_iterate(g0: complex, g_m: complex, n: int) -> np.ndarray:
    """Iterate the normalized round-trip map n times.

    Returns the trajectory [g_0, g_1, ..., g_n].  Raises
    :class:`UnstableIterationError` if |g| exceeds 1, which signals that the
    perturbative normalization has broken down.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require(constraint_findings(g_m, n))
    out = np.empty(n + 1, dtype=complex)
    g = complex(g0)
    out[0] = g
    for i in range(1, n + 1):
        g = roundtrip_map(g, g_m)
        if abs(g) > 1.0:
            raise UnstableIterationError(
                f"|g| = {abs(g):.3g} > 1 after {i} round trips")
        out[i] = g
    return out


def continuous_solution(g_m: complex, g0: complex, tau_r: float) -> complex:
    """The continuum law dg/dtau_R = g_m^2 - g^2 through g(0) = g0.

    At the fixed points g0 = +/-g_m it holds still; at g_m = 0 it is
    g0/(1 + g0 tau_R), which the round-trip map g' = g/(1 + g) meets
    exactly (a ``ZeroDivisionError`` at its pole); otherwise it is
    g_m tanh(g_m (tau_R - tau_R0)), with tau_R0 = -artanh(g0/g_m)/g_m.
    """
    if g0 in (g_m, -g_m):
        return g0
    if g_m == 0:
        return g0 / (1.0 + g0 * tau_r)
    tau_r0 = complex(-np.arctanh(np.complex128(g0) / g_m) / g_m)
    arg = g_m * (tau_r - tau_r0)
    # tanh poles sit at i pi/2 + i k pi; only reachable near the imag axis
    if abs(arg.real) < 20.0 and abs(np.cosh(arg)) < 1e-12:
        raise PoleError("tanh pole", gamma=arg)
    return g_m * complex(np.tanh(arg))


def gamma_f_from_band(delta_lambda: float, lambda_l: float,
                      n_eff: float) -> float:
    """|gamma_F|^(1/2) in rad/s from an optical bandwidth.

    |gamma_F|^(1/2) = (2 pi c / (lambda_L n_eff)) * (delta_lambda / lambda_L)
    with all lengths in meters.
    """
    if delta_lambda <= 0 or lambda_l <= 0 or n_eff <= 0:
        raise ValueError("all inputs must be positive")
    return (2.0 * np.pi * SPEED_OF_LIGHT / (lambda_l * n_eff)) \
        * (delta_lambda / lambda_l)
