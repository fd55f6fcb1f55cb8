"""The comb function: a periodic train of pulses with exponentially decaying
Fourier coefficients.

The closed form is

    T_beta(s) = sinh(beta) / (cosh(beta) - cos(s))
              = sum_k exp(i*k*s - |k|*beta),

a strictly positive, 2*pi-periodic pulse train with unit mean and Fourier
coefficients exp(-|k|*beta).  Since cosh(beta) - cos(s) equals
2 sinh^2(beta/2) + 2 sin^2(s/2), the closed form is evaluated with no
cancellation near the peak.  Small beta gives sharp pulses (peak ~ 2/beta),
large beta a flat profile.  The truncated series doubles as an independent
oracle for the closed form; the geometric tail bound makes the truncation
error certifiable.
"""

import math

import numpy as np

from .engine import require

# coth(beta/2) overflows float range well before this; keep requests sane
BETA_MIN = 1e-6
# sinh(beta) overflows float range just above 710
BETA_MAX = 700.0


def constraint_findings(beta: float, name: str = "beta") -> list[str]:
    """Violations of the comb's linewidth domain, BETA_MIN <= beta <=
    BETA_MAX; an empty list means valid.

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
    if beta > BETA_MAX:
        return [f"{name} must be <= {BETA_MAX} (got {beta})"]
    return []


def closed_factors(beta: float):
    """(sinh(beta), sinh(beta/2)^2): the factors of :func:`comb_closed`
    that do not depend on the phase ``s``, as Python floats.

    Time loops that step Python floats bind them once per ``beta`` and
    write the comb inline; the caller checks ``beta``'s domain.  They come
    from ``math.sinh``, which may differ from numpy's by an ulp, so such a
    loop agrees with :func:`comb_closed` to a few ulp.
    """
    sh = math.sinh(0.5 * beta)
    return math.sinh(beta), sh * sh


def comb_closed(s, beta: float):
    """Closed-form comb function sinh(beta)/(cosh(beta) - cos(s)).

    The denominator is evaluated as 2 sinh^2(beta/2) + 2 sin^2(s/2), the
    same function free of the cancellation in cosh(beta) - cos(s), which
    near the peak at small beta cost up to 2 eps/beta^2 of relative
    accuracy; the peak coth(beta/2) now comes out within a few ulp.

    Strictly positive and 2*pi-periodic in ``s``; accepts scalars or arrays
    and evaluates both with numpy (a scalar ``s`` gives an ``np.float64``).
    """
    require(constraint_findings(beta))
    sh, sn = np.sinh(0.5 * beta), np.sin(0.5 * np.asarray(s))
    return np.sinh(beta) / (2.0 * (sh * sh + sn * sn))


def comb_series(s, beta: float, K: int):
    """Truncated Fourier series 1 + 2*sum_{k=1..K} exp(-k*beta)*cos(k*s).

    Converges to :func:`comb_closed` as K grows, with absolute error at most
    ``series_tail_bound(beta, K)``.
    """
    require(constraint_findings(beta))
    if K < 1:
        raise ValueError("K must be >= 1")
    s = np.asarray(s, dtype=float)
    k = np.arange(1, K + 1)
    terms = np.exp(-k * beta) * np.cos(np.multiply.outer(s, k))
    out = 1.0 + 2.0 * terms.sum(axis=-1)
    return out if out.ndim else float(out)


def comb_fourier_coeff(k: int, beta: float) -> float:
    """Fourier coefficient exp(-|k|*beta) of the comb function."""
    require(constraint_findings(beta))
    return float(np.exp(-abs(k) * beta))


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
    cosh(beta) < 3.  For broader profiles the half-maximum point leaves the
    principal branch and the full half-period pi is returned.

    For small beta, s* = beta + beta**3/12 + O(beta**5): the HWHM tends to
    beta itself, while the first-order linewidth quoted for this profile in
    the mode-locking literature is beta/2 (a different width convention).
    Both numbers are trivially related; this function returns the HWHM.
    """
    require(constraint_findings(beta))
    if np.cosh(beta) >= 3.0:
        return float(np.pi)
    return float(np.arccos(2.0 - np.cosh(beta)))
