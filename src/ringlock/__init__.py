"""ringlock: mode locking, synchronization, and bolometric instabilities in
a fiber ring cavity with a mechanical mirror.  The library needs numpy
alone; other packages serve only the tests, as independent oracles.

Subpackages by physical layer:

- :mod:`ringlock.comb`       pulse-train comb function and its series oracle
- :mod:`ringlock.lattice`    stochastic dynamics of the cavity mode phases
- :mod:`ringlock.pulses`     Moebius algebra for Gaussian pulse parameters
- :mod:`ringlock.adler`      injection locking of the pulse train
- :mod:`ringlock.thermomech` bolometric optomechanics of the mirror
- :mod:`ringlock.engine`     RNG streams, RK4 stepper, numpy Welch PSD
- :mod:`ringlock.cli`        config-driven experiment runner
"""

__version__ = "0.14.0"

from . import adler, comb, engine, lattice, pulses, thermomech  # noqa: F401
