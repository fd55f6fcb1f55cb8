"""Workload configs for the benchmark, generated from a seed.

Each workload is one kind of ``ringlock run`` config.  Operation ``index``
of a run with seed ``seed`` gets its own config, drawn from
``numpy.random.default_rng([seed, index])``, so the same seed always gives
the same sequence of inputs.

The seed changes the numbers the program sees but not the amount of work:

- ``lattice-chain`` changes only the noise seed of the chain;
- ``adler-sweep`` flips the sign of the 100 Hz detuning and moves the ends
  of the V_AM grid by at most 0.5%;
- ``mml-search`` rescales the mirror's frequency, mass, heating scale and
  absorption slope.  The thresholds move by factors of
  several, but the nondimensional equations ``thermomech.simulate``
  integrates stay the same, so every probe takes the same number of steps.
"""

import math

import numpy as np

WORKLOADS = ("lattice-chain", "adler-sweep", "mml-search")

# criterion C2's chain: N = 64, beta_N = t_n / (2 mu_m) = 0.1
LATTICE_BASE = {"n_modes": 64, "mu_m": 1.0, "t_n": 0.2, "dt": 1e-3,
                "n_steps": 200_000}

# paper calibration: f_AM - f_R = 100 Hz at the 0.156 V threshold
ADLER_F_AM = 371.4e3
ADLER_DETUNING_HZ = 100.0
ADLER_BASE = {"v_am0": 0.156, "v_min": 0.05, "v_max": 0.21, "n_v": 3,
              "duration": 0.0625, "sample_rate": 1048576.0}


def _mml_params(rng: np.random.Generator) -> dict:
    """Blue detuning, pulse train slaved to the mirror motion."""
    omega_m = 2.0 * math.pi * 4e5 * 10.0 ** rng.uniform(-0.1, 0.1)
    mass_scale = 10.0 ** rng.uniform(-0.3, 0.3)   # scales m_m and theta_fh
    k_a1 = 1e4 * 10.0 ** rng.uniform(-0.3, 0.3)
    return {
        "m_m": 1e-12 * mass_scale,
        "omega_m": omega_m,
        "gamma_m": 0.05 * omega_m,
        "kappa_m": 0.01 * omega_m,
        "theta_ph": 0.0,
        "theta_fh": -1e-9 * mass_scale,
        "a_h0": 1e5 * 10.0 ** rng.uniform(-0.3, 0.3),
        "k_a1": -k_a1,
        "t_n": 0.01 * omega_m,
        "coupling": 1e4 * omega_m * k_a1,
        "beta_floor": 0.05,
        "n_cycles": 16,
        "steps_per_cycle": 500,
        "store_every": 10,
        "search": True,
        "search_rtol": 0.05,
    }


def make_config(workload: str, seed: int, index: int) -> dict:
    """Return the config (as JSON-ready dict) for one operation."""
    rng = np.random.default_rng([seed, index])
    if workload == "lattice-chain":
        return {"experiment": "lattice",
                "seed": int(rng.integers(2 ** 31)),
                "parameters": dict(LATTICE_BASE)}
    if workload == "adler-sweep":
        sign = 1.0 if rng.integers(2) else -1.0
        omega_am = 2.0 * math.pi * ADLER_F_AM
        params = dict(ADLER_BASE)
        params.update(
            omega_am=omega_am,
            omega_r=omega_am - sign * 2.0 * math.pi * ADLER_DETUNING_HZ,
            v_min=ADLER_BASE["v_min"] * (1.0 + 0.005 * rng.uniform(-1, 1)),
            v_max=ADLER_BASE["v_max"] * (1.0 + 0.005 * rng.uniform(-1, 1)))
        return {"experiment": "adler", "seed": 0, "parameters": params}
    if workload == "mml-search":
        return {"experiment": "mml", "seed": 0, "parameters": _mml_params(rng)}
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     + ", ".join(WORKLOADS))
