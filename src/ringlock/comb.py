"""The comb function: a periodic train of pulses with exponentially decaying
Fourier coefficients.

With the pulse contrast r = exp(-beta), the closed form is

    T_beta(s) = (1 - r^2) / (1 - 2 r cos(s) + r^2)
              = (1 - r^2) / ((1 - r)^2 + 4 r sin^2(s/2))
              = sum_k exp(i*k*s - |k|*beta),

a strictly positive, 2*pi-periodic pulse train with unit mean and Fourier
coefficients exp(-|k|*beta); it equals sinh(beta)/(cosh(beta) - cos(s)).
Taking 1 - r as -expm1(-beta) and the denominator as a sum of squares, the
closed form is evaluated with no cancellation near the peak, and it is
finite for every beta in [BETA_MIN, inf]: beta = inf is the flat profile,
r = 0.  Small beta gives sharp pulses (peak ~ 2/beta), large beta a flat
profile.  The truncated series doubles as an independent oracle for the
closed form; the geometric tail bound makes the truncation error
certifiable.
"""

import math

import numpy as np

from .engine import require

# the narrowest pulse accepted, about 1e-6 rad wide with a peak near 2e6.
# No float limit sets it: the closed form is finite for every beta > 0.
# It bounds requests to the range the tests check.
BETA_MIN = 1e-6
# the most terms comb_series sums, n_points*K: a bound on its work (about a
# second at 2**25 terms), not on its memory, which its blocks bound
MAX_SERIES_TERMS = 2 ** 25
# the most terms comb_series forms at once, rows*K: each of its float64
# arrays of terms stays within 8 MiB
SERIES_BLOCK_TERMS = 2 ** 20


def constraint_findings(beta: float, name: str = "beta") -> list[str]:
    """Violations of the comb's linewidth domain, beta >= BETA_MIN (inf
    included); an empty list means valid.

    ``name`` is the parameter the finding reports, for a linewidth that a
    caller knows by another name or in a context ("closed_loop drive:
    beta_floor").
    Every comb function, the drives of :mod:`ringlock.thermomech` and the
    CLI's config validation check it here.
    """
    if not beta > 0.0:
        return [f"{name} must be positive (got {beta})"]
    if beta < BETA_MIN:
        return [f"{name} must be >= {BETA_MIN} (got {beta})"]
    return []


def series_findings(n_points: int, K: int) -> list[str]:
    """Violations of :func:`comb_series`' size rule, n_points*K <=
    MAX_SERIES_TERMS; an empty list means valid.  The series and the CLI's
    config validation check it here.
    """
    if n_points * K > MAX_SERIES_TERMS:
        return [f"the comb series of K = {K} terms at {n_points} points "
                f"needs n_points*K <= {MAX_SERIES_TERMS} (got {n_points * K});"
                " raise beta or lower n_points"]
    return []


def closed_factors(beta: float):
    """(1 - r^2, (1 - r)^2, 2 r) with r = exp(-beta): the factors of
    :func:`comb_closed` that do not depend on the phase ``s``, as Python
    floats, with 1 - r taken as -expm1(-beta).

    The comb is num / (den + two_r * 2 sin^2(s/2)).  :func:`comb_closed`
    and the time loops that step Python floats take them here, once per
    ``beta``; the caller checks ``beta``'s domain.
    """
    r, one_minus_r = math.exp(-beta), -math.expm1(-beta)
    return one_minus_r * (1.0 + r), one_minus_r * one_minus_r, 2.0 * r


def comb_closed(s, beta: float):
    """Closed-form comb function (1 - r^2)/((1 - r)^2 + 4 r sin^2(s/2)),
    r = exp(-beta), through :func:`closed_factors`.

    Near the peak at small beta, cosh(beta) - cos(s) would cost up to
    2 eps/beta^2 of relative accuracy to cancellation; this form brings the
    peak coth(beta/2) out within a few ulp, and gives 1 at beta = inf.

    Strictly positive and 2*pi-periodic in ``s``; accepts scalars or arrays
    and evaluates both with numpy (a scalar ``s`` gives an ``np.float64``).
    """
    require(constraint_findings(beta))
    num, den, two_r = closed_factors(beta)
    sn = np.sin(0.5 * np.asarray(s))
    return num / (den + 2.0 * two_r * (sn * sn))


def comb_series(s, beta: float, K: int):
    """Truncated Fourier series 1 + 2*sum_{k=1..K} exp(-k*beta)*cos(k*s).

    Converges to :func:`comb_closed` as K grows, with absolute error at most
    ``series_tail_bound(beta, K)``.  It sums size(s)*K terms, at most
    ``MAX_SERIES_TERMS``, over blocks of points of at most
    ``SERIES_BLOCK_TERMS`` terms (one point at least).  Each point's sum
    over k is the same reduction at any block size, so the blocks change
    no bit of the result.
    """
    require(constraint_findings(beta))
    if K < 1:
        raise ValueError("K must be >= 1")
    require(series_findings(np.size(s), K))
    s = np.asarray(s, dtype=float)
    k = np.arange(1, K + 1)
    weights, rows = np.exp(-k * beta), max(1, SERIES_BLOCK_TERMS // K)
    sums = np.empty(s.size)
    for i in range(0, s.size, rows):
        terms = weights * np.cos(np.multiply.outer(s.flat[i:i + rows], k))
        sums[i:i + rows] = terms.sum(axis=-1)
    out = 1.0 + 2.0 * sums.reshape(s.shape)
    return out if out.ndim else float(out)


def comb_fourier_coeff(k: int, beta: float) -> float:
    """Fourier coefficient exp(-|k|*beta) of the comb function."""
    require(constraint_findings(beta))
    return float(np.exp(-abs(k) * beta)) if k else 1.0


def series_tail_bound(beta: float, K: int) -> float:
    """Bound on |comb_series(s,beta,K) - comb_closed(s,beta)|, any s.

    The dropped terms form a geometric series:
    2*exp(-(K+1)*beta)/(1 - exp(-beta)).
    """
    require(constraint_findings(beta))
    return 2.0 * np.exp(-(K + 1) * beta) / (1.0 - np.exp(-beta))


def adaptive_truncation(beta: float, tol: float = 1e-13) -> int:
    """Smallest cutoff K whose tail bound is below ``tol``.

    The default leaves an order of magnitude between the analytic tail and
    1e-12 so that float64 summation roundoff (up to a few 1e-13 near the
    pulse peak at small beta) cannot push the total error past 1e-12.
    """
    require(constraint_findings(beta))
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    # solve 2 e^{-(K+1) beta} / (1 - e^{-beta}) <= tol for K
    K = int(np.ceil(np.log(2.0 / (tol * (1.0 - np.exp(-beta)))) / beta)) - 1
    return max(K, 1)


def comb_hwhm(beta: float) -> float:
    """Half width at half maximum of the comb pulse, in radians.

    The peak value is coth(beta/2) at s = 0; the half-maximum point solves
    cos(s*) = 2 - cosh(beta), giving s* = arccos(2 - cosh(beta)) when
    beta < acosh(3).  For broader profiles the half-maximum point leaves the
    principal branch and the full half-period pi is returned.

    For small beta, s* = beta + beta**3/12 + O(beta**5): the HWHM tends to
    beta itself, while the first-order linewidth quoted for this profile in
    the mode-locking literature is beta/2 (a different width convention).
    Both numbers are trivially related; this function returns the HWHM.
    """
    require(constraint_findings(beta))
    if beta >= math.acosh(3.0):
        return float(np.pi)
    return float(np.arccos(2.0 - np.cosh(beta)))
