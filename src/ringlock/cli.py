"""Config-driven experiment runner.

Every physical module is exposed as an experiment; a run reads a JSON
config, writes plain-text tables plus a JSON manifest (config echo, library
version, checksums, derived quantities), and is bit-reproducible for a
given (config, seed, version).

Command line:

    ringlock run CONFIG [--seed N] [--out DIR]
    ringlock validate CONFIG
    ringlock preset paper

Exit codes: 0 success, 2 validation failure (by the schema, or a
``ValueError`` the library raises during the run), 3 numerical failure (an
``ArithmeticError``, the base of every numerical failure the library
raises); any other exception is a program defect and ends in a traceback.
The output directory may also be set with the RINGLOCK_OUT environment
variable (the --out flag wins).
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, adler, comb, engine, lattice, pulses, thermomech


# ---------------------------------------------------------------------------
# config schema

# the default of a key that a config must give
REQUIRED = object()


@dataclass(frozen=True)
class ParamSpec:
    unit: str
    default: object = REQUIRED
    kind: type = float
    positive: bool = False
    nonnegative: bool = False
    choices: tuple = ()


SCHEMAS = {
    "comb": {
        "beta": ParamSpec("dimensionless", positive=True),
        "n_points": ParamSpec("count", default=512, kind=int, positive=True),
    },
    "lattice": {
        "n_modes": ParamSpec("count", kind=int, positive=True),
        "mu_m": ParamSpec("1/s", positive=True),
        "t_n": ParamSpec("1/s", nonnegative=True),
        "dt": ParamSpec("s", positive=True),
        "n_steps": ParamSpec("count", kind=int, positive=True),
        "burn_in": ParamSpec("count", default=None, kind=int,
                             nonnegative=True),
        "sample_every": ParamSpec("count", default=50, kind=int,
                                  positive=True),
        "max_lag": ParamSpec("count", default=10, kind=int, positive=True),
        "store_trajectory": ParamSpec("flag", default=False, kind=bool),
        "traj_every": ParamSpec("count", default=1000, kind=int,
                                positive=True),
        "boundary": ParamSpec("enum", default="open_chain", kind=str,
                              choices=lattice.BOUNDARIES),
    },
    "pulse": {
        "g_m_re": ParamSpec("dimensionless"),
        "g_m_im": ParamSpec("dimensionless", default=0.0),
        "g0_re": ParamSpec("dimensionless", default=0.0),
        "g0_im": ParamSpec("dimensionless", default=0.0),
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
        "k_a2": ParamSpec("1/m^2", default=0.0),
        "l0_factor": ParamSpec("threshold units", default=1.05,
                               positive=True),
        "x0": ParamSpec("m", default=None),
        "n_cycles": ParamSpec("count", default=400, kind=int, positive=True),
        "steps_per_cycle": ParamSpec("count", default=200, kind=int,
                                     positive=True),
        "store_every": ParamSpec("count", default=10, kind=int,
                                 positive=True),
        "search": ParamSpec("flag", default=True, kind=bool),
        "search_rtol": ParamSpec("dimensionless", default=0.05,
                                 positive=True),
    },
    "noise": {
        "g_oa": ParamSpec("dimensionless", positive=True),
        "n_pi": ParamSpec("dimensionless", positive=True),
        "gamma_om": ParamSpec("1/s", positive=True),
        "n_p": ParamSpec("photons", positive=True),
        "lambda_l": ParamSpec("m", positive=True),
        "delta_lambda": ParamSpec("m", positive=True),
        "l_r": ParamSpec("m", positive=True),
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
        """Strict JSON: a non-finite number, which strict parsers reject,
        is a handler's defect and raises ``RuntimeError``; a handler writes
        ``null`` with its reason in a sibling field instead."""
        try:
            return json.dumps(dataclasses.asdict(self), indent=2,
                              sort_keys=True, allow_nan=False)
        except ValueError as err:
            raise RuntimeError(f"manifest of {self.experiment!r}: {err}") \
                from err


def validate_config(config: ExperimentConfig) -> list[str]:
    """Return all schema violations; an empty list means valid.

    A config that meets the schema is also checked against the library's
    own constraints (the findings of its ``_EXPERIMENTS`` entry), so every
    input the run would reject fails here.
    """
    return _parse(config)[1]


def _parse(config: ExperimentConfig) -> tuple[dict, list[str]]:
    """(values, findings): the one reading of a config.

    The seed and output directory are checked first; ``values`` maps every
    schema key to its value, unwrapped from a ``{"value", "unit"}`` record,
    cast to its spec's kind and defaulted when absent; it is complete only
    when ``findings`` is empty.
    """
    findings = engine._seed_findings(config.seed)
    if not isinstance(config.output_dir, (str, os.PathLike)):
        findings.append("output_dir: expected a string or a path (got "
                        f"{config.output_dir!r})")
    schema = SCHEMAS.get(config.experiment) \
        if isinstance(config.experiment, str) else None
    if schema is None:
        return {}, findings + [f"unknown experiment {config.experiment!r}; "
                               "choose from " + ", ".join(sorted(SCHEMAS))]
    params = config.parameters
    if not isinstance(params, dict):
        return {}, findings + ["parameters: expected a JSON object (got "
                               f"{json.dumps(params, default=repr)})"]
    findings += [f"unknown key {key!r}" for key in params
                 if key not in schema]
    values = {}
    for key, spec in schema.items():
        if key not in params:
            if spec.default is REQUIRED:
                findings.append(f"required key {key!r} absent "
                                f"(unit: {spec.unit})")
            values[key] = spec.default
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
            values[key] = raw
            continue
        if spec.kind is str:
            if not isinstance(raw, str):
                findings.append(f"{key}: expected a string")
            elif spec.choices and raw not in spec.choices:
                findings.append(f"{key}: {raw!r} is not one of "
                                + ", ".join(spec.choices))
            values[key] = raw
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
        values[key] = spec.kind(raw)
    if not findings:
        check, _ = _EXPERIMENTS[config.experiment]
        findings = check(values)
    return values, findings


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _cells(col):
    """The text of each cell of one column, in one pass over the column.

    A float64 array iterates as ``np.float64``, a subclass of ``float``, so
    ``float.__repr__`` writes the text ``_fmt`` gives.  Anything else
    (lists, integer, object, bool, float32 and complex arrays) goes
    through ``_fmt`` cell by cell.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return map(float.__repr__, col)
    return map(_fmt, col)


def _write_atomic(path: Path, text: str) -> None:
    # a fresh name beside the target, created as open() creates a file,
    # with mode 0o666 & ~umask (mkstemp's 0600 would survive the replace)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    lengths = [len(col) for col in columns]
    if len(set(lengths)) != 1:
        # a handler's defect, not a config's: main reports a ValueError
        # as an invalid config, so this is not one
        raise RuntimeError(f"table {name!r}: columns must share one "
                           f"length, got lengths {lengths}")
    rows = lengths[0]
    lines = map(" ".join, zip(*map(_cells, columns)))
    text = "\n".join(["# " + " ".join(header), *lines]) + "\n"
    path = out_dir / f"{manifest.experiment}_{name}.txt"
    _write_atomic(path, text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    manifest.outputs.append({"name": name, "path": str(path),
                             "sha256": digest, "rows": rows})
    return path


# ---------------------------------------------------------------------------
# experiment handlers

def _run_comb(p, manifest, out_dir):
    beta = p["beta"]
    s = np.linspace(0.0, 2.0 * np.pi, p["n_points"], endpoint=False)
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


def _run_lattice(p, manifest, out_dir):
    cfg = lattice.LatticeConfig(
        n_modes=p["n_modes"], mu_m=p["mu_m"], t_n=p["t_n"], dt=p["dt"],
        seed=manifest.seed, boundary=p["boundary"])
    store_traj = p["store_trajectory"]
    stats = lattice.run_lattice(
        cfg, n_steps=p["n_steps"], burn_in=p["burn_in"],
        sample_every=p["sample_every"], max_lag=p["max_lag"],
        record_every=p["traj_every"] if store_traj else None)
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


def _run_pulse(p, manifest, out_dir):
    g_m = complex(p["g_m_re"], p["g_m_im"])
    g0 = complex(p["g0_re"], p["g0_im"])
    n = p["n"]
    traj = pulses.roundtrip_iterate(g0, g_m, n)
    idx = np.arange(n + 1)
    closed = np.array([pulses.continuous_solution(g_m, g0, float(i))
                       for i in idx])
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


def _run_adler(p, manifest, out_dir):
    params = adler.AdlerParams(p["omega_am"], p["omega_r"], p["v_am0"])
    grid = np.linspace(p["v_min"], p["v_max"], p["n_v"])
    smap = adler.pd_spectrum_sweep(params, grid, duration=p["duration"],
                                   sample_rate=p["sample_rate"])
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


def _threshold_times(p):
    """(t_end, dt) of a seo/mml probe: n_cycles mechanical periods of
    steps_per_cycle RK4 steps each."""
    return (p["n_cycles"] * 2.0 * np.pi / p["omega_m"],
            2.0 * np.pi / (p["steps_per_cycle"] * p["omega_m"]))


def _run_threshold(p, manifest, out_dir):
    mml = manifest.experiment == "mml"
    mech = thermomech.MechParams(
        m_m=p["m_m"], omega_m=p["omega_m"], gamma_m=p["gamma_m"],
        theta_ph=p["theta_ph"], theta_fh=p["theta_fh"], kappa_m=p["kappa_m"])
    absorption = thermomech.AbsorptionModel(
        a_h0=p["a_h0"], k_a1=p["k_a1"], k_a2=p["k_a2"])
    l_star = thermomech.mml_threshold(mech, absorption, p["t_n"]) if mml \
        else thermomech.seo_threshold(mech, absorption)
    if not np.isfinite(l_star):
        manifest.derived.update(threshold_formula=None, note=(
            "stabilizing sign combination: no finite threshold"))
        return
    manifest.derived["threshold_formula"] = l_star
    if mml:
        seo_opposite = thermomech.seo_threshold(
            mech, dataclasses.replace(absorption, k_a1=-absorption.k_a1))
        if np.isfinite(seo_opposite):
            manifest.derived["seo_threshold_opposite_detuning"] = seo_opposite
            manifest.derived["threshold_ratio"] = l_star / seo_opposite
        else:
            manifest.derived.update(
                seo_threshold_opposite_detuning=None, threshold_ratio=None,
                opposite_detuning_note=("stabilizing sign combination on "
                                        "the opposite detuning: no finite "
                                        "SEO threshold"))
    # the steady thermal shift Theta_PH*T_R at the largest L0 probed: at
    # -omega_m or below, simulate() halts every such probe on its
    # thermal-frequency guard, so the classification says nothing
    l0_max = l_star * max(p["l0_factor"],
                          thermomech.SEARCH_SPAN[1] if p["search"] else 0.0)
    shift = mech.theta_ph * l0_max * absorption.a_h0 / mech.kappa_m
    if shift <= -mech.omega_m:
        manifest.derived["domain_note"] = (
            f"at L0 = {l0_max:.6g} the steady thermal shift "
            f"Theta_PH*L0*A_H0/kappa_m is {shift / mech.omega_m:.3g} omega_m,"
            " outside the model's small-shift domain: a probe whose thermal"
            " frequency omega_m + Theta_PH*T_R reaches zero halts there, and"
            " its 'grew' marks that halt, not an instability")
    # canonical seeds, when x0 is not given: mode locking is probed at the
    # amplitude where the slaved-pulse pumping equals |gamma_H1|
    l0 = p["l0_factor"] * l_star
    if mml:
        drive = thermomech.IntensityDrive.closed_loop(
            l0, p["coupling"], p["beta_floor"], p["t_n"])
        x0 = p["t_n"] / (mech.omega_m * abs(absorption.k_a1))
    else:
        drive = thermomech.IntensityDrive.cw(l0)
        x0 = 1e-4 / abs(absorption.k_a1)
    x0 = x0 if p["x0"] is None else p["x0"]
    run = (x0, *_threshold_times(p), p["store_every"])
    grew, ratio, traj, halted = thermomech.probe_growth(
        mech, absorption, drive, *run)
    _write_table(manifest, out_dir, "trajectory",
                 ["time_s", "x_m", "v_m_per_s", "t_r_kelvin"],
                 [traj.time, traj.x, traj.v, traj.t_r_rel])
    manifest.derived.update({
        "l0": l0,
        "l0_over_threshold": p["l0_factor"],
        "amplitude_start": abs(x0),
        # a halted probe's ratio is inf: halted_at says why it is null
        "amplitude_ratio": ratio if halted is None else None,
        "classification": "grew" if grew else "decayed",
        "halted_at": halted,
    })

    if p["search"]:
        # the first probe is passed on: under the search's monotone premise
        # it decides every L0 on its side
        bracket, probes = thermomech.bisect_threshold(
            lambda l: thermomech.probe_growth(
                mech, absorption, dataclasses.replace(drive, l0=l), *run)[0],
            l_star, p["search_rtol"], [(l0, grew)])
        manifest.derived["search_probes"] = [
            [l, "grew" if g else "decayed"] for l, g in probes]
        if bracket is None:
            span_lo, span_hi = thermomech.SEARCH_SPAN
            manifest.derived["search_note"] = (
                f"no growth/decay sign change inside [{span_lo:g}, "
                f"{span_hi:g}] x formula threshold; simulated value not "
                "bracketed")
        else:
            simulated = 0.5 * sum(bracket)
            manifest.derived.update({
                "threshold_simulated": simulated,
                "threshold_bracket": list(bracket),
                "threshold_relative_gap": simulated / l_star - 1.0,
            })


def _run_noise(p, manifest, out_dir):
    chain = thermomech.NoiseChain(
        g_oa=p["g_oa"], n_pi=p["n_pi"], gamma_om=p["gamma_om"], n_p=p["n_p"],
        lambda_l=p["lambda_l"], delta_lambda=p["delta_lambda"],
        l_r=p["l_r"], omega_p=p["omega_p"])
    t_n, n_r, p_oa = thermomech.effective_noise(chain)
    omega_m = p["omega_m"]
    names = ["alpha_nf", "t_n_per_s", "n_r_modes", "p_oa_watt",
             "two_omega_m_over_t_n", "mml_to_seo_threshold_ratio"]
    values = [thermomech.noise_figure(chain.g_oa, chain.n_pi), t_n, n_r,
              p_oa, 2.0 * omega_m / t_n, 1.0 / (2.0 * omega_m / t_n - 1.0)]
    _write_table(manifest, out_dir, "derived",
                 ["quantity", "value"],
                 [np.array(names, dtype=object), np.array(values)])
    manifest.derived.update(dict(zip(names, values)))


def _threshold_findings(p: dict, mode: str) -> list[str]:
    """The library's constraints on a seo (``mode`` "cw") or mml
    ("closed_loop") config: the mirror, the step, the growth probe, the
    search when it runs, and the mml drive's beta_floor."""
    findings = thermomech.mech_constraint_findings(
        p["m_m"], p["omega_m"], p["gamma_m"], p["kappa_m"])
    t_end, dt = _threshold_times(p)
    findings += thermomech.step_constraint_findings(dt, p["omega_m"])
    findings += thermomech.probe_constraint_findings(
        mode, p["x0"], t_end, dt, p["store_every"], p["kappa_m"])
    if p["search"]:
        findings += thermomech.search_constraint_findings(p["search_rtol"])
    if mode == "closed_loop":
        findings += comb.constraint_findings(p["beta_floor"], "beta_floor")
    return findings


# experiment -> (the library's constraints on a schema-valid config's
# values, each defined once in its module; the handler that runs it)
_EXPERIMENTS = {
    "comb": (lambda p: comb.constraint_findings(p["beta"]) or
             comb.series_findings(p["n_points"],
                                  comb.adaptive_truncation(p["beta"])),
             _run_comb),
    "lattice": (lambda p: lattice.constraint_findings(
        p["n_modes"], p["mu_m"], p["dt"]) + lattice.run_findings(
        p["n_modes"], p["n_steps"], p["sample_every"], p["max_lag"],
        burn_in=lattice.default_burn_in(p["mu_m"], p["dt"])
        if p["burn_in"] is None else p["burn_in"],
        record_every=p["traj_every"] if p["store_trajectory"] else None),
        _run_lattice),
    "pulse": (lambda p: pulses.constraint_findings(
        complex(p["g_m_re"], p["g_m_im"]), p["n"]), _run_pulse),
    "adler": (lambda p: adler.constraint_findings(
        p["omega_am"], p["omega_r"], p["duration"], p["sample_rate"],
        p["n_v"]),
        _run_adler),
    "seo": (lambda p: _threshold_findings(p, "cw"), _run_threshold),
    "mml": (lambda p: _threshold_findings(p, "closed_loop"), _run_threshold),
    "noise": (lambda p: thermomech.noise_constraint_findings(
        p["g_oa"], p["n_pi"]), _run_noise),
}


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Validate, dispatch, and write outputs plus manifest atomically."""
    values, findings = _parse(config)
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
    _, run = _EXPERIMENTS[config.experiment]
    run(values, manifest, out_dir)
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

def _load_config(path: str):
    """(config, findings): a config file read into an ExperimentConfig, as
    written, with a finding for each top-level key that is not one of its
    fields; None in place of the config for a file that is not a JSON
    object.  Its values are :func:`validate_config`'s to check.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        return None, ["a config must be a JSON object at the top level"]
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    known = {"experiment": "", "parameters": {}} | {
        key: value for key, value in raw.items() if key in fields}
    return ExperimentConfig(**known), [f"unknown top-level key {key!r}"
                                       for key in raw if key not in fields]


def _seed_arg(text: str) -> int:
    """``--seed``: an integer that :class:`ringlock.engine.RngStream`
    accepts."""
    try:
        return engine.RngStream(int(text)).seed
    except ValueError as err:
        raise argparse.ArgumentTypeError(err) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringlock",
        description="Ring-cavity mode-locking experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=_seed_arg, default=None)
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
        config, findings = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2

    if config is not None:
        # the file's own values are checked, also where an option wins
        findings += validate_config(config)
        if args.command == "run":
            config = dataclasses.replace(
                config, seed=config.seed if args.seed is None else args.seed,
                output_dir=(args.out or os.environ.get("RINGLOCK_OUT")
                            or config.output_dir))
    stream = sys.stdout if args.command == "validate" else sys.stderr
    for f in findings:
        print(f"finding: {f}", file=stream)
    if findings:
        return 2
    if args.command == "validate":
        print("config valid")
        return 0
    try:
        manifest = run_experiment(config)
    except ArithmeticError as err:
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
