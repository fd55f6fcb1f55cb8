"""Output checks computed apart from the program.

Every expected value here comes from the config and from closed forms
(exact stationary moments, Gabor's mean-frequency identity, Parseval, the
threshold formulas), never from a stored copy of an earlier output.  Only
the width of the lattice tolerances is measured: the spread between seeds,
from ``calibrate.py``.  The checks still hold after a correct change that
draws a different random stream or replaces integration with a closed form.

``check_lattice``, ``check_adler`` and ``check_threshold`` take the config
an operation ran and its output directory (``check_lattice`` also the values
``lattice_values`` read from it) and return a list of failure messages
(empty when all hold).
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

CALIBRATION = Path(__file__).with_name("lattice_calibration.json")

# z-score for the lattice statistics: with ~20 checked numbers per run
# and hundreds of runs per benchmark, 6 sd keeps false alarms rare even
# if the calibrated sd is 30% low
LATTICE_Z = 6.0
# the Welch centroid weights the instantaneous frequency by the squared
# Hann window; with two beats per segment it matches the plain time average
# to about 0.01 bin
CENTROID_TOL_BINS = 0.1
POWER_RTOL = 1e-3
# relative band around the formula threshold that the bisection bracket
# must lie in (the simulated boundary sits about +1.1% from the formula)
THRESHOLD_BAND = 0.08
EXACT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms

def von_mises_moments(beta_n: float) -> tuple[float, float]:
    """Exact <d^2> and <cos d> of the link density ~ exp(K cos d).

    With K = 1/(2 beta_N) these are the stationary link statistics of the
    open chain at any noise level, not only the weak-noise Gaussian limit
    2 beta_N.
    """
    kappa = 1.0 / (2.0 * beta_n)

    def weight(d):
        return math.exp(kappa * (math.cos(d) - 1.0))

    norm = integrate.quad(weight, -math.pi, math.pi, epsabs=0, epsrel=1e-13)[0]
    second = integrate.quad(lambda d: d * d * weight(d), -math.pi, math.pi,
                            epsabs=0, epsrel=1e-13)[0]
    return second / norm, float(special.i1e(kappa) / special.i0e(kappa))


def adler_centroid_hz(omega_am: float, omega_r: float, v_am0: float,
                      v_am: float) -> float:
    """Mean frequency of the detector tone cos(w_AM t - phi_S(t)).

    For a constant-envelope signal the power-weighted mean frequency is the
    time average of the instantaneous frequency (Gabor).  The slip rate of
    phi_S averages to zeta_AM V sqrt(i_b^2 - 1) when unlocked and to 0 when
    locked, with zeta_AM = (w_AM - w_R)/V_AM,0 and i_b = V_AM,0/V.
    """
    zeta = (omega_am - omega_r) / v_am0
    i_b = (omega_am - omega_r) / (zeta * v_am)
    slip = zeta * v_am * math.sqrt(max(i_b * i_b - 1.0, 0.0))
    return (omega_am - slip) / (2.0 * math.pi)


def seo_threshold(p: dict) -> float:
    """L* = -2 gamma_m m_m w_m^2 / (k_A1 Theta_FH A_H0)."""
    return -2.0 * p["gamma_m"] * p["m_m"] * p["omega_m"] ** 2 \
        / (p["k_a1"] * p["theta_fh"] * p["a_h0"])


def mml_threshold(p: dict) -> float:
    """The SEO threshold divided by (1 - 2 w_m / T_N)."""
    return seo_threshold(p) / (1.0 - 2.0 * p["omega_m"] / p["t_n"])


# ---------------------------------------------------------------------------
# spectra

def spectrum_power(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Integral of a one-sided density over a uniform frequency grid."""
    return float(np.sum(psd) * (freqs[1] - freqs[0]))


def spectrum_centroid(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Power-weighted mean frequency."""
    return float(np.sum(freqs * psd) / np.sum(psd))


# ---------------------------------------------------------------------------
# outputs on disk

def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and rows of a table written by ``ringlock run``."""
    with open(path) as fh:
        header = fh.readline().lstrip("#").split()
        rows = np.loadtxt(fh, ndmin=2)
    return header, rows


def check_manifest(out_dir: Path, experiment: str) -> tuple[dict, list[str]]:
    """Load the manifest and compare each listed sha256 with the bytes."""
    manifest_path = out_dir / f"{experiment}_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    failures = []
    for entry in manifest["outputs"]:
        path = out_dir / Path(entry["path"]).name
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            failures.append(f"{path.name}: sha256 {digest} differs from "
                            f"manifest {entry['sha256']}")
    return manifest, failures


def _close(name, value, expected, tol) -> list[str]:
    if not abs(value - expected) <= tol:
        return [f"{name} = {value!r}, expected {expected!r} +- {tol:.3g}"]
    return []


def lattice_tolerances(n_runs: int = 1) -> dict:
    """Allowed |value - exact| for the lattice statistics.

    The calibration file holds the sd between seeds, measured with the
    program at the workload's size over ``n_cal`` seeds (see
    ``calibrate.py``): the batch-means error the program reports
    understates that spread.  A mean over ``n_runs`` independent runs
    narrows the random part by sqrt(n_runs).  The term sd/sqrt(n_cal)
    allows for an offset from the exact value too small for the
    calibration to resolve; a larger offset fails the check.
    """
    cal = json.loads(CALIBRATION.read_text())
    n_cal = cal["seeds"][1] - cal["seeds"][0]
    scale = LATTICE_Z / math.sqrt(n_runs) + 1.0 / math.sqrt(n_cal)
    return {key: [scale * s for s in cal[key]["sd"]]
            for key in ("diff_sq", "corr_re", "corr_im")}


def lattice_values(out_dir: Path) -> dict:
    """The statistics a lattice run produced, as checked below."""
    manifest = json.loads((out_dir / "lattice_manifest.json").read_text())
    _, rows = read_table(out_dir / "lattice_correlations.txt")
    return {"diff_sq": [manifest["derived"]["neighbor_diff_sq"]],
            "corr_re": rows[:, 1].tolist(), "corr_im": rows[:, 2].tolist(),
            "k": rows[:, 0].tolist()}


def check_lattice_values(beta_n: float, values: dict,
                         n_runs: int = 1) -> list[str]:
    """Compare lattice statistics (single or averaged) with the exact ones."""
    diff_sq, rho = von_mises_moments(beta_n)
    tol = lattice_tolerances(n_runs)
    lags = len(values["corr_re"])
    if len(tol["corr_re"]) < lags:
        return [f"{lags} lags but calibration covers {len(tol['corr_re'])}"]
    failures = _close("neighbor_diff_sq", values["diff_sq"][0], diff_sq,
                      tol["diff_sq"][0])
    for k in range(lags):
        failures += _close(f"corr[{k}].real", values["corr_re"][k], rho ** k,
                           tol["corr_re"][k])
        failures += _close(f"corr[{k}].imag", values["corr_im"][k], 0.0,
                           tol["corr_im"][k])
    return failures


def check_lattice(config: dict, out_dir: Path,
                  values: dict) -> list[str]:
    """Check one lattice run whose ``lattice_values`` are ``values``."""
    _, failures = check_manifest(out_dir, "lattice")
    p = config["parameters"]
    expected_k = list(range(len(values["k"])))
    if values["k"] != expected_k:
        failures.append(f"lag column {values['k']} is not {expected_k}")
    return failures + check_lattice_values(p["t_n"] / (2.0 * p["mu_m"]),
                                           values)


def check_adler(config: dict, out_dir: Path) -> list[str]:
    _, failures = check_manifest(out_dir, "adler")
    p = config["parameters"]
    grid = np.linspace(p["v_min"], p["v_max"], p["n_v"])
    detuning = p["omega_am"] - p["omega_r"]
    i_b = detuning / (detuning / p["v_am0"] * grid)
    _, grid_rows = read_table(out_dir / "adler_grid.txt")
    if not np.allclose(grid_rows[:, 0], grid, rtol=1e-12, atol=0) \
            or not np.allclose(grid_rows[:, 1], i_b, rtol=1e-12, atol=0):
        failures.append("grid table differs from the V_AM grid and i_b "
                        "recomputed from the config")
    header, rows = read_table(out_dir / "adler_spectrum_map.txt")
    freqs = rows[:, 0]
    bin_hz = freqs[1] - freqs[0]
    if rows.shape[1] != p["n_v"] + 1:
        return failures + [f"spectrum map has {rows.shape[1] - 1} columns, "
                           f"config asks for {p['n_v']}"]
    for j, v in enumerate(grid.tolist()):
        psd = rows[:, j + 1]
        name = header[j + 1]
        failures += _close(f"{name} power", spectrum_power(freqs, psd), 0.5,
                           0.5 * POWER_RTOL)
        expected = adler_centroid_hz(p["omega_am"], p["omega_r"],
                                     p["v_am0"], v)
        failures += _close(f"{name} centroid (Hz)",
                           spectrum_centroid(freqs, psd), expected,
                           CENTROID_TOL_BINS * bin_hz)
    return failures


def check_threshold(config: dict, out_dir: Path) -> list[str]:
    kind = config["experiment"]
    manifest, failures = check_manifest(out_dir, kind)
    p = config["parameters"]
    derived = manifest["derived"]
    l_star = seo_threshold(p) if kind == "seo" else mml_threshold(p)
    failures += _close("threshold_formula", derived["threshold_formula"],
                       l_star, EXACT_RTOL * l_star)
    if "threshold_bracket" not in derived:
        return failures + [f"no bracket: {derived.get('search_note')}"]
    lo, hi = derived["threshold_bracket"]
    if not hi - lo <= p["search_rtol"] * l_star * (1.0 + EXACT_RTOL):
        failures.append(f"bracket [{lo!r}, {hi!r}] wider than "
                        f"search_rtol * L* = {p['search_rtol'] * l_star!r}")
    band = THRESHOLD_BAND
    if not (1.0 - band) * l_star <= lo < hi <= (1.0 + band) * l_star:
        failures.append(f"bracket [{lo / l_star:.4f}, {hi / l_star:.4f}] L* "
                        f"outside [{1 - band}, {1 + band}] L*")
    return failures
