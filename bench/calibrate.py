"""Measure the seed-to-seed spread of the lattice-chain statistics.

    python3 bench/calibrate.py

Runs ``ringlock.lattice.run_lattice`` at the lattice-chain workload's size
for N_SEEDS seeds (about 2 min on one core) that the benchmark never
draws, and writes ``lattice_calibration.json`` beside this file: for the
neighbor-difference second moment and for the real and imaginary parts of
corr[k], the sd between seeds and the mean offset from the exact von Mises
value.  ``checks.py`` sets its lattice tolerances from the sd; the offset
is kept as a record of the program's bias, not used by the checks.
"""

import json
import sys
from pathlib import Path

import numpy as np

import checks
import workloads

SEED_BASE = 900_000   # far from the seeds numpy's default_rng hands out
N_SEEDS = 40


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from ringlock import lattice

    p = workloads.LATTICE_BASE
    rows = {"diff_sq": [], "corr_re": [], "corr_im": []}
    reported_se = []
    for seed in range(SEED_BASE, SEED_BASE + N_SEEDS):
        cfg = lattice.LatticeConfig(n_modes=p["n_modes"], mu_m=p["mu_m"],
                                    t_n=p["t_n"], dt=p["dt"], seed=seed)
        stats = lattice.run_lattice(cfg, n_steps=p["n_steps"])
        rows["diff_sq"].append([stats.diff_sq])
        rows["corr_re"].append(stats.corr.real)
        rows["corr_im"].append(stats.corr.imag)
        reported_se.append(stats.diff_sq_se)
        print(f"seed {seed}: diff_sq {stats.diff_sq:.5f} "
              f"(reported se {stats.diff_sq_se:.5f})", file=sys.stderr)

    diff_sq, rho = checks.von_mises_moments(p["t_n"] / (2.0 * p["mu_m"]))
    exact = {"diff_sq": np.array([diff_sq]),
             "corr_re": rho ** np.arange(len(rows["corr_re"][0])),
             "corr_im": np.zeros(len(rows["corr_im"][0]))}
    out = {"workload": "lattice-chain", "parameters": p,
           "seeds": [SEED_BASE, SEED_BASE + N_SEEDS]}
    for key, values in rows.items():
        values = np.array(values)
        out[key] = {"bias": (values.mean(axis=0) - exact[key]).tolist(),
                    "sd": values.std(axis=0, ddof=1).tolist()}
    out["diff_sq"]["reported_se_mean"] = float(np.mean(reported_se))
    checks.CALIBRATION.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["diff_sq"]))


if __name__ == "__main__":
    main()
