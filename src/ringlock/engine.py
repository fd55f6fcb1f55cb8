"""Shared numerical infrastructure, in numpy alone: reproducible random
streams, a fixed-step RK4 stepper, Welch power spectral densities, and the
package's failure contract.

Every module fails in one of two ways.  Bad input raises ``ValueError``
(through :func:`require` wherever a ``*_constraint_findings`` function
defines the rule).  A numerical failure, a run that left the model's
domain or stopped being finite, raises an ``ArithmeticError``:
:class:`IntegrationError` and its subclass
:class:`ringlock.thermomech.InstabilityError`,
:class:`ringlock.pulses.UnstableIterationError` and
:class:`ringlock.pulses.PoleError`, like the ``OverflowError`` of
``math``.  Anything else is a program defect.

All stochastic simulations in this package draw their noise through
:class:`RngStream`, which is counter-based: the pair ``(seed, counter)``
fully determines every draw, on every platform, so parallel parameter
sweeps can derive independent substreams without coordination.
"""

from dataclasses import dataclass

import numpy as np


class IntegrationError(ArithmeticError):
    """An integration left its domain or stopped being finite.

    ``t`` is the end time of the step that failed, set only by an
    integrator that keeps a clock (:func:`ringlock.thermomech.simulate`'s
    :class:`ringlock.thermomech.InstabilityError`); ``trajectory``, when
    the integrator keeps one, holds the samples stored before it.
    """

    def __init__(self, message, t=None, trajectory=None):
        super().__init__(message)
        self.t = t
        self.trajectory = trajectory


class InsufficientDataError(ValueError):
    """Signal or trajectory too short for the requested estimate."""


def require(findings: list[str], error: type = ValueError) -> None:
    """Raise ``error`` listing every finding, joined by "; ", unless
    ``findings`` is empty."""
    if findings:
        raise error("; ".join(findings))


# the most float64 cells that one array of a run may hold (256 MiB)
MAX_CELLS = 2 ** 25


def size_findings(cells: int, what: str) -> list[str]:
    """The size rule: the array ``what`` of ``cells`` float64 cells holds at
    most MAX_CELLS; an empty list means it does.

    Each experiment's config validation checks its largest arrays here, so
    a run that could not allocate them, or would fill the memory as it
    went, is refused before it starts (the comb's series keeps its own
    rule, :func:`ringlock.comb.series_findings`).
    """
    return [f"{what} needs {cells} cells; one array may hold {MAX_CELLS}"] \
        if cells > MAX_CELLS else []


def _seed_findings(seed) -> list[str]:
    """Violations of the seed's domain, an integer in [0, 2**64) (the
    first word of the Philox key); an empty list means valid.

    :class:`RngStream` and the CLI's config validation check it here, so a
    seed outside the key's range is refused rather than reduced modulo
    2**64 onto another seed's stream.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        return [f"seed: expected an integer (got {seed!r})"]
    if not 0 <= seed < 2 ** 64:
        return [f"seed must lie in [0, 2**64) (got {seed})"]
    return []


@dataclass
class RngStream:
    """Counter-based random stream.

    Each call to :func:`normal_draws` keys a fresh Philox generator with
    ``(seed, counter)`` and then increments ``counter``, so the stream is a
    reproducible sequence of independent blocks.  Substreams for parallel
    work are derived by offsetting the counter (see :func:`substream`).
    ``seed`` must be an integer in [0, 2**64).
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        require(_seed_findings(self.seed))


def substream(stream: RngStream, run_index: int) -> RngStream:
    """Derive an independent substream for a parallel run.

    Substreams are spaced 2**32 counter values apart, so they never collide
    as long as no single run makes more than 2**32 draw calls.
    ``run_index`` must lie in [0, 2**32 - 1): the counter
    (run_index + 1)*2**32 is a 64-bit word of the Philox key, and 2**32 - 1
    would wrap it to 0, the parent stream's own start.
    """
    if not 0 <= run_index < 2 ** 32 - 1:
        raise ValueError(f"run_index must lie in [0, 2**32 - 1) "
                         f"(got {run_index})")
    return RngStream(seed=stream.seed, counter=(run_index + 1) << 32)


def normal_draws(stream: RngStream, n: int) -> np.ndarray:
    """Return ``n`` independent standard normal draws and advance the stream.

    Identical ``(seed, counter)`` gives an identical vector on all platforms
    (Philox is a pure counter-based generator with no platform-dependent
    state).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    key = np.array([stream.seed, stream.counter & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    stream.counter += 1
    return gen.standard_normal(n)


def rk4_step(state, derivative, dt: float):
    """One classical fourth-order Runge-Kutta step of the autonomous law
    d(state)/dt = derivative(state).

    ``state`` may be a float or an array; ``derivative(state)`` must return
    the same kind (an array of the same shape).  A scalar ODE stepped on
    Python floats avoids numpy's per-call overhead.  Raises
    :class:`IntegrationError` if the result is not finite.
    """
    k1 = derivative(state)
    k2 = derivative(state + (0.5 * dt) * k1)
    k3 = derivative(state + (0.5 * dt) * k2)
    k4 = derivative(state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError("non-finite state after RK4 step")
    return out


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectral density estimate.

    Normalized as a density: the integral of ``psd`` over ``freqs``
    approximates the signal variance (Parseval, up to window correction).
    """

    freqs: np.ndarray
    psd: np.ndarray
    resolution: float  # Hz per bin
    segments: int


def segment_findings(n: int, segment_len: int) -> list[str]:
    """The Welch rule that one segment of ``segment_len`` fits in a signal
    of ``n`` samples; an empty list means it does.  :func:`welch_psd` and
    the adler sweep's config validation check it here."""
    if n < segment_len:
        return [f"the signal of {n} samples is shorter than one Welch "
                f"segment of {segment_len}"]
    return []


def welch_psd(signal: np.ndarray, sample_rate: float,
              segment_len: int) -> SpectrumResult:
    """Welch's one-sided PSD of a real signal (Welch, IEEE Trans. Audio
    Electroacoust. 15, 70 (1967)): periodic Hann window, 50% overlap, no
    detrending, density scaling.

    ``segment_len`` must be a power of two no longer than the signal
    (:func:`segment_findings`); samples past the last whole segment are not
    used.
    """
    signal = np.asarray(signal, dtype=float)
    if segment_len < 2 or (segment_len & (segment_len - 1)) != 0:
        raise ValueError("segment_len must be a power of two")
    require(segment_findings(signal.size, segment_len), InsufficientDataError)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len)
                                / segment_len)
    frames = np.lib.stride_tricks.sliding_window_view(
        signal, segment_len)[::segment_len // 2]
    psd = np.mean(np.abs(np.fft.rfft(frames * window)) ** 2, axis=0) \
        / (sample_rate * np.sum(window ** 2))
    psd[1:-1] *= 2.0    # fold negative frequencies; segment_len is even
    return SpectrumResult(
        freqs=np.fft.rfftfreq(segment_len, 1.0 / sample_rate), psd=psd,
        resolution=sample_rate / segment_len, segments=frames.shape[0])
