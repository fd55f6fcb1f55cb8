"""Config-driven experiment runner.

Every physical module is exposed as an experiment; a run reads a JSON
config, writes plain-text tables plus a JSON manifest (config echo, library
version, checksums, derived quantities), and is bit-reproducible for a
given (config, seed, version).

Command line:

    ringlock run CONFIG [--seed N] [--out DIR]
    ringlock validate CONFIG
    ringlock preset paper

Exit codes: 0 success, 2 validation failure (by the schema or by the
library's own checks during the run), 3 numerical failure.  The output
directory may also be set with the RINGLOCK_OUT environment variable (the
--out flag wins).
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, adler, comb, lattice, pulses, thermomech
from .engine import IntegrationError


# ---------------------------------------------------------------------------
# config schema

@dataclass(frozen=True)
class ParamSpec:
    unit: str
    required: bool = True
    default: object = None
    kind: type = float
    positive: bool = False
    nonnegative: bool = False
    choices: tuple = ()


SCHEMAS = {
    "comb": {
        "beta": ParamSpec("dimensionless", positive=True),
        "n_points": ParamSpec("count", required=False, default=512, kind=int,
                              positive=True),
    },
    "lattice": {
        "n_modes": ParamSpec("count", kind=int, positive=True),
        "mu_m": ParamSpec("1/s", positive=True),
        "t_n": ParamSpec("1/s", nonnegative=True),
        "dt": ParamSpec("s", positive=True),
        "n_steps": ParamSpec("count", kind=int, positive=True),
        "burn_in": ParamSpec("count", required=False, default=None, kind=int,
                             nonnegative=True),
        "sample_every": ParamSpec("count", required=False, default=50,
                                  kind=int, positive=True),
        "max_lag": ParamSpec("count", required=False, default=10, kind=int,
                             positive=True),
        "store_trajectory": ParamSpec("flag", required=False, default=False,
                                      kind=bool),
        "traj_every": ParamSpec("count", required=False, default=1000,
                                kind=int, positive=True),
        "boundary": ParamSpec("enum", required=False, default="open_chain",
                              kind=str, choices=lattice.BOUNDARIES),
    },
    "pulse": {
        "g_m_re": ParamSpec("dimensionless"),
        "g_m_im": ParamSpec("dimensionless", required=False, default=0.0),
        "g0_re": ParamSpec("dimensionless", required=False, default=0.0),
        "g0_im": ParamSpec("dimensionless", required=False, default=0.0),
        "n": ParamSpec("round trips", kind=int, positive=True),
    },
    "adler": {
        "omega_am": ParamSpec("rad/s", positive=True),
        "omega_r": ParamSpec("rad/s", positive=True),
        "v_am0": ParamSpec("V", positive=True),
        "v_min": ParamSpec("V", positive=True),
        "v_max": ParamSpec("V", positive=True),
        "n_v": ParamSpec("count", kind=int, positive=True),
        "duration": ParamSpec("s", positive=True),
        "sample_rate": ParamSpec("Hz", positive=True),
    },
    "seo": {
        "m_m": ParamSpec("kg", positive=True),
        "omega_m": ParamSpec("rad/s", positive=True),
        "gamma_m": ParamSpec("1/s", positive=True),
        "theta_ph": ParamSpec("rad/(s K)"),
        "theta_fh": ParamSpec("N/K"),
        "kappa_m": ParamSpec("1/s", positive=True),
        "a_h0": ParamSpec("K/(s intensity)", positive=True),
        "k_a1": ParamSpec("1/m"),
        "k_a2": ParamSpec("1/m^2", required=False, default=0.0),
        "l0_factor": ParamSpec("threshold units", required=False,
                               default=1.05, positive=True),
        "x0": ParamSpec("m", required=False, default=None),
        "n_cycles": ParamSpec("count", required=False, default=400, kind=int,
                              positive=True),
        "steps_per_cycle": ParamSpec("count", required=False, default=200,
                                     kind=int, positive=True),
        "store_every": ParamSpec("count", required=False, default=10,
                                 kind=int, positive=True),
        "search": ParamSpec("flag", required=False, default=True, kind=bool),
        "search_rtol": ParamSpec("dimensionless", required=False,
                                 default=0.05, positive=True),
    },
    "noise": {
        "g_oa": ParamSpec("dimensionless", positive=True),
        "n_pi": ParamSpec("dimensionless", positive=True),
        "gamma_om": ParamSpec("1/s", positive=True),
        "n_p": ParamSpec("photons", positive=True),
        "lambda_l": ParamSpec("m", positive=True),
        "delta_lambda": ParamSpec("m", positive=True),
        "l_r": ParamSpec("m", positive=True),
        "n_eff": ParamSpec("dimensionless", positive=True),
        "omega_p": ParamSpec("rad/s", positive=True),
        "omega_m": ParamSpec("rad/s", positive=True),
    },
}
# mml shares the seo mechanics plus the noise strength and loop settings
SCHEMAS["mml"] = dict(SCHEMAS["seo"]) | {
    "t_n": ParamSpec("1/s", positive=True),
    "coupling": ParamSpec("1/(m s)", positive=True),
    "beta_floor": ParamSpec("dimensionless", positive=True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict
    seed: int = 0
    output_dir: Path = Path("ringlock_out")


@dataclass
class RunManifest:
    experiment: str
    config: dict
    version: str
    timestamp: str
    seed: int
    outputs: list = field(default_factory=list)
    derived: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True,
                          default=str)


def validate_config(config: ExperimentConfig) -> list[str]:
    """Return all schema violations; an empty list means valid.

    A lattice config that meets the schema is also checked against the
    chain's own constraints (:func:`ringlock.lattice.constraint_findings`).
    """
    findings = []
    schema = SCHEMAS.get(config.experiment)
    if schema is None:
        return [f"unknown experiment {config.experiment!r}; choose from "
                + ", ".join(sorted(SCHEMAS))]
    params = config.parameters
    for key in params:
        if key not in schema:
            findings.append(f"unknown key {key!r}")
    for key, spec in schema.items():
        if key not in params:
            if spec.required:
                findings.append(f"required key {key!r} absent "
                                f"(unit: {spec.unit})")
            continue
        raw = params[key]
        if isinstance(raw, dict):
            if set(raw) - {"value", "unit"}:
                findings.append(f"{key}: only 'value' and 'unit' fields are "
                                "allowed")
                continue
            if "unit" in raw and raw["unit"] != spec.unit:
                findings.append(f"{key}: unit {raw['unit']!r} does not match "
                                f"schema unit {spec.unit!r}")
            raw = raw.get("value")
        if spec.kind is bool:
            if not isinstance(raw, bool):
                findings.append(f"{key}: expected a boolean")
            continue
        if spec.kind is str:
            if not isinstance(raw, str):
                findings.append(f"{key}: expected a string")
            elif spec.choices and raw not in spec.choices:
                findings.append(f"{key}: {raw!r} is not one of "
                                + ", ".join(spec.choices))
            continue
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            findings.append(f"{key}: expected a number")
            continue
        if isinstance(raw, float) and not np.isfinite(raw):
            findings.append(f"{key}: expected a finite number")
            continue
        if spec.kind is int and int(raw) != raw:
            findings.append(f"{key}: expected an integer")
            continue
        if spec.positive and not raw > 0:
            findings.append(f"{key} must be positive")
        if spec.nonnegative and raw < 0:
            findings.append(f"{key} must be nonnegative")
    if not findings and config.experiment == "lattice":
        findings = lattice.constraint_findings(
            _param(config, "n_modes"), _param(config, "mu_m"),
            _param(config, "dt"), _param(config, "max_lag"))
    return findings


def _param(config: ExperimentConfig, key: str):
    spec = SCHEMAS[config.experiment][key]
    raw = config.parameters.get(key, spec.default)
    if isinstance(raw, dict):
        raw = raw.get("value")
    if raw is None:
        return None
    if spec.kind in (bool, str):
        return raw
    return spec.kind(raw)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(manifest: RunManifest, out_dir: Path, name: str,
                 header: list[str], columns: list[np.ndarray]) -> Path:
    lines = ["# " + " ".join(header)]
    rows = len(columns[0])
    for i in range(rows):
        lines.append(" ".join(_fmt(col[i]) for col in columns))
    text = "\n".join(lines) + "\n"
    path = out_dir / f"{manifest.experiment}_{name}.txt"
    _write_atomic(path, text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    manifest.outputs.append({"name": name, "path": str(path),
                             "sha256": digest, "rows": rows})
    return path


# ---------------------------------------------------------------------------
# experiment handlers

def _run_comb(config, manifest, out_dir):
    beta = _param(config, "beta")
    n = _param(config, "n_points")
    s = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    closed = comb.comb_closed(s, beta)
    k = comb.adaptive_truncation(beta)
    series = comb.comb_series(s, beta, k)
    _write_table(manifest, out_dir, "profile",
                 ["s_rad", "t_beta", "t_beta_series"], [s, closed, series])
    manifest.derived.update({
        "beta": beta,
        "hwhm_rad": comb.comb_hwhm(beta),
        "small_beta_hwhm_estimate": beta,
        "peak": float(comb.comb_closed(0.0, beta)),
        "mean_over_period": float(np.mean(closed)),
        "series_cutoff": k,
    })


def _run_lattice(config, manifest, out_dir):
    cfg = lattice.LatticeConfig(
        n_modes=_param(config, "n_modes"), mu_m=_param(config, "mu_m"),
        t_n=_param(config, "t_n"), dt=_param(config, "dt"),
        seed=config.seed, boundary=_param(config, "boundary"))
    store_traj = _param(config, "store_trajectory")
    stats = lattice.run_lattice(
        cfg, n_steps=_param(config, "n_steps"),
        burn_in=_param(config, "burn_in"),
        sample_every=_param(config, "sample_every"),
        max_lag=_param(config, "max_lag"),
        record_every=_param(config, "traj_every") if store_traj else None)
    ks = np.arange(stats.corr.size)
    _write_table(manifest, out_dir, "correlations",
                 ["k", "re_corr", "im_corr", "se"],
                 [ks, stats.corr.real, stats.corr.imag, stats.corr_se])
    if store_traj:
        header = ["time"] + [f"theta_{m}" for m in range(cfg.n_modes)]
        cols = [stats.traj_time] + [stats.traj_theta[:, m]
                                    for m in range(cfg.n_modes)]
        _write_table(manifest, out_dir, "trajectory", header, cols)
    manifest.derived.update({
        "beta_n": cfg.beta_n,
        "neighbor_diff_sq": stats.diff_sq,
        "neighbor_diff_sq_se": stats.diff_sq_se,
        "weak_noise_prediction": 2.0 * cfg.beta_n,
        "mean_energy": stats.mean_energy,
        "n_samples": stats.n_samples,
    })


def _run_pulse(config, manifest, out_dir):
    g_m = complex(_param(config, "g_m_re"), _param(config, "g_m_im"))
    g0 = complex(_param(config, "g0_re"), _param(config, "g0_im"))
    n = _param(config, "n")
    traj = pulses.roundtrip_iterate(g0, g_m, n)
    idx = np.arange(n + 1)
    closed = np.array([pulses.continuous_solution(g_m, float(i), 0.0)
                       for i in idx]) if g0 == 0 else np.full(n + 1, np.nan,
                                                              dtype=complex)
    _write_table(manifest, out_dir, "trajectory",
                 ["round_trip", "re_g", "im_g", "re_tanh", "im_tanh"],
                 [idx, traj.real, traj.imag, closed.real, closed.imag])
    # the map depends on g_m^2 alone; the sign with Re >= 0 gives the
    # attracting fixed points, of the map and of its continuum limit
    g_s = g_m if g_m.real >= 0.0 else -g_m
    fixed = complex(pulses.discrete_fixed_points(g_s)[0])
    manifest.derived.update({
        "g_m": [g_m.real, g_m.imag],
        "final_g": [float(traj[-1].real), float(traj[-1].imag)],
        "fixed_point": [fixed.real, fixed.imag],
        "continuum_fixed_point": [g_s.real, g_s.imag],
    })


def _run_adler(config, manifest, out_dir):
    params = adler.AdlerParams.from_threshold(
        omega_am=_param(config, "omega_am"), omega_r=_param(config, "omega_r"),
        v_am0=_param(config, "v_am0"), v_am=_param(config, "v_am0"))
    grid = np.linspace(_param(config, "v_min"), _param(config, "v_max"),
                       _param(config, "n_v"))
    smap = adler.pd_spectrum_sweep(params, grid,
                                   duration=_param(config, "duration"),
                                   sample_rate=_param(config, "sample_rate"))
    cols = [smap.freqs] + [smap.psd[:, j] for j in range(grid.size)]
    header = ["freq_hz"] + [f"psd_v{j}" for j in range(grid.size)]
    _write_table(manifest, out_dir, "spectrum_map", header, cols)
    _write_table(manifest, out_dir, "grid",
                 ["v_am_volt", "i_b"], [grid, smap.i_b])
    manifest.derived.update({
        "zeta_am": params.zeta_am,
        "v_am0": params.v_am0,
        "resolution_hz": smap.resolution,
        "segments": smap.segments,
        "warnings": list(smap.warnings),
    })


def _mech_from_config(config):
    mech = thermomech.MechParams(
        m_m=_param(config, "m_m"), omega_m=_param(config, "omega_m"),
        gamma_m=_param(config, "gamma_m"), theta_ph=_param(config, "theta_ph"),
        theta_fh=_param(config, "theta_fh"), kappa_m=_param(config, "kappa_m"))
    absorption = thermomech.AbsorptionModel(
        a_h0=_param(config, "a_h0"), k_a1=_param(config, "k_a1"),
        k_a2=_param(config, "k_a2"))
    return mech, absorption


def _threshold_drive(kind, config, l0):
    if kind == "seo":
        return thermomech.IntensityDrive.cw(l0)
    return thermomech.IntensityDrive.closed_loop(
        l0, coupling=_param(config, "coupling"),
        beta_floor=_param(config, "beta_floor"), t_n=_param(config, "t_n"))


def _classify(kind, config, mech, absorption, l0, x0, dt, t_end,
              store_every):
    """Run one trajectory and report (grew?, amplitude ratio, trajectory).

    The SEO instability grows or decays exponentially, so a late window of
    the oscillation amplitude (about the instantaneous thermal equilibrium)
    is compared against an early one, which cancels the thermal-settling
    transient.  The closed-loop MML amplitude instead self-regulates to
    (L0/L*) times the seed within a few pumping times, so it is compared
    against the seed amplitude directly.
    """
    try:
        traj = thermomech.simulate(mech, absorption,
                                   _threshold_drive(kind, config, l0),
                                   x0=x0, v0=0.0, t_end=t_end, dt=dt,
                                   store_every=store_every)
    except thermomech.InstabilityError as err:
        return True, np.inf, err.trajectory, err.t
    w_inst = mech.omega_m + mech.theta_ph * traj.t_r_rel
    x_eq = mech.theta_fh * traj.t_r_rel / (mech.m_m * w_inst ** 2)
    amp = np.hypot(traj.x - x_eq, traj.v / mech.omega_m)
    t_frac = traj.time / traj.time[-1]
    late = float(amp[t_frac > 0.8].mean())
    if kind == "mml":
        reference = abs(x0)
    else:
        reference = float(amp[(t_frac > 0.3) & (t_frac <= 0.5)].mean())
    return late > reference, late / reference, traj, None


def _run_threshold_experiment(config, manifest, out_dir, kind: str):
    mech, absorption = _mech_from_config(config)
    if kind == "seo":
        l_star = thermomech.seo_threshold(mech, absorption)
    else:
        l_star = thermomech.mml_threshold(mech, absorption,
                                          _param(config, "t_n"))
    manifest.derived["threshold_formula"] = l_star
    if kind == "mml" and np.isfinite(l_star):
        seo_opposite = thermomech.seo_threshold(
            mech, thermomech.AbsorptionModel(
                a_h0=absorption.a_h0, k_a1=-absorption.k_a1,
                k_a2=absorption.k_a2))
        manifest.derived["seo_threshold_opposite_detuning"] = seo_opposite
        manifest.derived["threshold_ratio"] = l_star / seo_opposite
    if not np.isfinite(l_star):
        manifest.derived["note"] = ("stabilizing sign combination: "
                                    "no finite threshold")
        return
    x0 = _param(config, "x0")
    if x0 is None:
        # canonical seeds: mode locking is probed at the amplitude where
        # the slaved-pulse pumping equals |gamma_H1|
        if kind == "mml":
            x0 = _param(config, "t_n") / (mech.omega_m
                                          * abs(absorption.k_a1))
        else:
            x0 = 1e-4 / abs(absorption.k_a1)
    dt = 2.0 * np.pi / (_param(config, "steps_per_cycle") * mech.omega_m)
    t_end = _param(config, "n_cycles") * 2.0 * np.pi / mech.omega_m
    store_every = _param(config, "store_every")

    l0 = _param(config, "l0_factor") * l_star
    grew, ratio, traj, halted = _classify(kind, config, mech, absorption,
                                          l0, x0, dt, t_end, store_every)
    _write_table(manifest, out_dir, "trajectory",
                 ["time_s", "x_m", "v_m_per_s", "t_r_kelvin"],
                 [traj.time, traj.x, traj.v, traj.t_r_rel])
    manifest.derived.update({
        "l0": l0,
        "l0_over_threshold": _param(config, "l0_factor"),
        "amplitude_start": abs(x0),
        "amplitude_ratio": ratio,
        "classification": "grew" if grew else "decayed",
        "halted_at": halted,
    })

    if _param(config, "search"):
        rtol = _param(config, "search_rtol")
        lo, hi = 0.8 * l_star, 1.25 * l_star
        lo_grew = _classify(kind, config, mech, absorption, lo, x0, dt,
                            t_end, store_every)[0]
        hi_grew = _classify(kind, config, mech, absorption, hi, x0, dt,
                            t_end, store_every)[0]
        if lo_grew or not hi_grew:
            manifest.derived["search_note"] = (
                "no growth/decay sign change inside [0.8, 1.25] x formula "
                "threshold; simulated value not bracketed")
        else:
            while (hi - lo) / l_star > rtol:
                mid = 0.5 * (lo + hi)
                if _classify(kind, config, mech, absorption, mid, x0, dt,
                             t_end, store_every)[0]:
                    hi = mid
                else:
                    lo = mid
            simulated = 0.5 * (lo + hi)
            manifest.derived.update({
                "threshold_simulated": simulated,
                "threshold_bracket": [lo, hi],
                "threshold_relative_gap": simulated / l_star - 1.0,
            })


def _run_noise(config, manifest, out_dir):
    chain = thermomech.NoiseChain(
        g_oa=_param(config, "g_oa"), n_pi=_param(config, "n_pi"),
        gamma_om=_param(config, "gamma_om"), n_p=_param(config, "n_p"),
        lambda_l=_param(config, "lambda_l"),
        delta_lambda=_param(config, "delta_lambda"),
        l_r=_param(config, "l_r"), n_eff=_param(config, "n_eff"),
        omega_p=_param(config, "omega_p"))
    t_n, n_r, p_oa = thermomech.effective_noise(chain)
    omega_m = _param(config, "omega_m")
    names = ["alpha_nf", "t_n_per_s", "n_r_modes", "p_oa_watt",
             "two_omega_m_over_t_n", "mml_to_seo_threshold_ratio"]
    values = [thermomech.noise_figure(chain.g_oa, chain.n_pi), t_n, n_r,
              p_oa, 2.0 * omega_m / t_n, 1.0 / (2.0 * omega_m / t_n - 1.0)]
    _write_table(manifest, out_dir, "derived",
                 ["quantity", "value"],
                 [np.array(names, dtype=object), np.array(values)])
    manifest.derived.update(dict(zip(names, values)))


_HANDLERS = {
    "comb": _run_comb,
    "lattice": _run_lattice,
    "pulse": _run_pulse,
    "adler": _run_adler,
    "seo": lambda c, m, o: _run_threshold_experiment(c, m, o, "seo"),
    "mml": lambda c, m, o: _run_threshold_experiment(c, m, o, "mml"),
    "noise": _run_noise,
}


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Validate, dispatch, and write outputs plus manifest atomically."""
    findings = validate_config(config)
    if findings:
        raise ValueError("invalid config: " + "; ".join(findings))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        experiment=config.experiment,
        config={"experiment": config.experiment,
                "parameters": config.parameters, "seed": config.seed},
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        seed=config.seed)
    _HANDLERS[config.experiment](config, manifest, out_dir)
    _write_atomic(out_dir / f"{config.experiment}_manifest.json",
                  manifest.to_json() + "\n")
    return manifest


# ---------------------------------------------------------------------------
# reference device preset

PAPER_PRESET = {
    "rgml": {
        "omega_r": {"value": 2 * np.pi * 371.3e3, "unit": "rad/s",
                    "note": "ring round-trip frequency, mode-locking runs"},
        "omega_am": {"value": 2 * np.pi * 371.4e3, "unit": "rad/s",
                     "note": "modulation frequency, 100 Hz above the ring"},
        "v_am0": {"value": 0.156, "unit": "V",
                  "note": "measured synchronization threshold amplitude"},
        "zeta_am": {"value": 2 * np.pi * 100.0 / 0.156, "unit": "rad/(s V)",
                    "note": "locking-rate calibration from the threshold"},
    },
    "cavity": {
        "lambda_l": {"value": 1550e-9, "unit": "m",
                     "note": "optical wavelength"},
        "n_eff": {"value": 1.47, "unit": "dimensionless",
                  "note": "fiber mode effective index"},
        "delta_lambda_fbg": {"value": 0.2e-9, "unit": "m",
                             "note": "grating filter bandwidth"},
        "delta_lambda_oa": {"value": 50e-9, "unit": "m",
                            "note": "amplifier gain bandwidth"},
        "l_r": {"value": 553.88, "unit": "m",
                "note": "ring length tuned so the round trip matches the "
                        "mechanical period"},
    },
    "mechanics": {
        "omega_m_seo": {"value": 2 * np.pi * 415e3, "unit": "rad/s",
                        "note": "mirror frequency, self-oscillation runs"},
        "omega_r_seo": {"value": 2 * np.pi * 2.48e6, "unit": "rad/s",
                        "note": "ring frequency, self-oscillation runs "
                                "(far from the mirror frequency)"},
        "omega_m_mml": {"value": 2 * np.pi * 368.2e3, "unit": "rad/s",
                        "note": "mirror frequency, mechanical mode locking"},
        "kappa_m_over_omega_m": {"value": 0.01, "unit": "dimensionless",
                                 "note": "thermal decay rate ratio"},
        "theta_fh_sign": {"value": -1, "unit": "sign",
                          "note": "aluminum mirror: thermal force "
                                  "coefficient is negative"},
        "theta_ph_sign": {"value": -1, "unit": "sign",
                          "note": "aluminum mirror: thermal frequency "
                                  "coefficient is negative"},
        "gamma_t_sqrt": {"value": 2 * np.pi * 4e6, "unit": "rad/s",
                         "note": "modulation strength |gamma_T|^(1/2) of "
                                 "the narrowest observed pulses (rad/s "
                                 "reading; the Hz reading is 2*pi smaller)"},
    },
    "amplifier": {
        "g_oa": {"value": 1600.0, "unit": "dimensionless",
                 "note": "small-signal gain"},
        "n_pi": {"value": 1.25, "unit": "dimensionless",
                 "note": "population inversion parameter"},
        "gamma_om_over_omega_r": {"value": 0.1, "unit": "dimensionless",
                                  "note": "optical mode damping ratio"},
        "n_p": {"value": 2e6, "unit": "photons",
                "note": "average photon number per mode, mode-locking runs"},
    },
    "unknown_device_constants": {
        "m_m": {"unit": "kg", "note": "mirror motional mass; required user "
                "input, typical scale 1e-12 for a 100 um trampoline"},
        "theta_fh": {"unit": "N/K", "note": "thermal force coefficient; "
                     "required user input, negative for this device"},
        "theta_ph": {"unit": "rad/(s K)", "note": "thermal frequency "
                     "coefficient; required user input, negative"},
        "a_h0": {"unit": "K/(s intensity)", "note": "heating scale per "
                 "unit intensity; required user input"},
        "k_a1": {"unit": "1/m", "note": "linear absorption-displacement "
                 "slope; sign follows short-cavity detuning"},
        "k_a2": {"unit": "1/m^2", "note": "quadratic absorption term"},
    },
}


def preset_text(name: str) -> str:
    if name != "paper":
        raise ValueError(f"unknown preset {name!r}; available: paper")
    return json.dumps(PAPER_PRESET, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# entry point

def _load_config(path: str, seed_override, out_override) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    out = out_override or os.environ.get("RINGLOCK_OUT") \
        or raw.get("output_dir", "ringlock_out")
    return ExperimentConfig(experiment=raw.get("experiment", ""),
                            parameters=raw.get("parameters", {}),
                            seed=int(seed), output_dir=Path(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringlock",
        description="Ring-cavity mode-locking experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")

    p_pre = sub.add_parser("preset", help="print a bundled parameter set")
    p_pre.add_argument("name")

    args = parser.parse_args(argv)

    if args.command == "preset":
        try:
            print(preset_text(args.name))
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return 0

    try:
        config = _load_config(args.config,
                              getattr(args, "seed", None),
                              getattr(args, "out", None))
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2

    if args.command == "validate":
        findings = validate_config(config)
        for f in findings:
            print(f"finding: {f}")
        if findings:
            return 2
        print("config valid")
        return 0

    findings = validate_config(config)
    if findings:
        for f in findings:
            print(f"finding: {f}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(config)
    except (thermomech.InstabilityError, IntegrationError,
            pulses.UnstableIterationError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        # a constraint the schema does not express, checked by the library
        print(f"error: invalid config: {err}", file=sys.stderr)
        return 2
    print(f"wrote {len(manifest.outputs)} output file(s) to "
          f"{config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
