import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringlock import engine, pulses, thermomech
from ringlock.cli import (ExperimentConfig, RunManifest, _fmt, _write_table,
                          main, preset_text, run_experiment, validate_config)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def strict_json(path):
    """The JSON file at ``path``, parsed as a strict parser reads it:
    ``NaN`` and ``+-Infinity`` are refused."""
    def refuse(constant):
        raise ValueError(f"{path}: non-standard constant {constant}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


LATTICE_PARAMS = {"n_modes": 16, "mu_m": 1.0, "t_n": 0.2, "dt": 0.002,
                  "n_steps": 40000, "sample_every": 40, "max_lag": 5}
NOISE_PARAMS = {
    "g_oa": 1600.0, "n_pi": 1.25, "gamma_om": 0.1 * 2 * np.pi * 368.2e3,
    "n_p": 2e6, "lambda_l": 1550e-9, "delta_lambda": 0.2e-9, "l_r": 553.88,
    "n_eff": 1.47, "omega_p": 2 * np.pi * 193.4e12,
    "omega_m": 2 * np.pi * 368.2e3}
ADLER_PARAMS = {"omega_am": 2333575.02, "omega_r": 2332946.70,
                "v_am0": 0.156, "v_min": 0.04, "v_max": 0.31, "n_v": 3,
                "duration": 0.0625, "sample_rate": 1048576.0}


def _bench_module(name):
    """bench/<name>.py, loaded as a module."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidateConfig:
    def test_missing_required_key(self):
        cfg = ExperimentConfig("lattice", {"mu_m": 1.0}, 0, Path("."))
        findings = validate_config(cfg)
        assert any("n_modes" in f and "absent" in f for f in findings)

    def test_negative_value_flagged(self):
        cfg = ExperimentConfig("comb", {"beta": -0.5}, 0, Path("."))
        assert any("positive" in f for f in validate_config(cfg))

    def test_unknown_key_flagged(self):
        cfg = ExperimentConfig("comb", {"beta": 0.5, "betta": 1.0}, 0,
                               Path("."))
        assert any("unknown key" in f for f in validate_config(cfg))

    def test_unknown_experiment(self):
        cfg = ExperimentConfig("frobnicate", {}, 0, Path("."))
        assert any("unknown experiment" in f for f in validate_config(cfg))

    def test_unit_annotation_checked(self):
        cfg = ExperimentConfig(
            "comb", {"beta": {"value": 0.5, "unit": "meters"}}, 0, Path("."))
        assert any("unit" in f for f in validate_config(cfg))
        cfg = ExperimentConfig(
            "comb", {"beta": {"value": 0.5, "unit": "dimensionless"}}, 0,
            Path("."))
        assert validate_config(cfg) == []

    def test_type_mismatch(self):
        cfg = ExperimentConfig("comb", {"beta": "wide"}, 0, Path("."))
        assert any("number" in f for f in validate_config(cfg))
        cfg = ExperimentConfig("lattice", {**LATTICE_PARAMS,
                                           "n_modes": 16.5}, 0, Path("."))
        assert any("integer" in f for f in validate_config(cfg))
        # non-finite numbers (Python's json parses NaN and +-Infinity),
        # signed, positive and integer keys alike
        for bad in (float("nan"), float("inf"), -float("inf")):
            for experiment, params, key in (
                    ("seo", TestRunExperiment.SEO_BASE, "k_a1"),
                    ("comb", {"beta": 0.5}, "beta"),
                    ("lattice", LATTICE_PARAMS, "n_modes")):
                cfg = ExperimentConfig(experiment, {**params, key: bad}, 0,
                                       Path("."))
                assert any(key in f and "finite" in f
                           for f in validate_config(cfg)), (key, bad)
        # enum values
        cfg = ExperimentConfig("lattice", {**LATTICE_PARAMS,
                                           "boundary": "perodic"}, 0,
                               Path("."))
        assert any("boundary" in f and "perodic" in f
                   for f in validate_config(cfg))
        cfg = ExperimentConfig("lattice", {**LATTICE_PARAMS,
                                           "boundary": "periodic"}, 0,
                               Path("."))
        assert validate_config(cfg) == []

    def test_lattice_constraints(self):
        # the chain's own constraints, beyond the signs of the values; the
        # default max_lag (10) counts against a short chain
        default_lag = {k: v for k, v in LATTICE_PARAMS.items()
                       if k != "max_lag"}
        for key, params in (
                ("dt*mu_m", dict(LATTICE_PARAMS, dt=0.5, mu_m=1.0)),
                ("n_modes", dict(LATTICE_PARAMS, n_modes=2, max_lag=1)),
                ("max_lag", dict(LATTICE_PARAMS, max_lag=9, n_modes=8)),
                ("max_lag", dict(default_lag, n_modes=8))):
            findings = validate_config(
                ExperimentConfig("lattice", params, 0, Path(".")))
            assert len(findings) == 1 and key in findings[0], (key, findings)
        # the stability bound dt*mu_m <= 0.1 is inclusive
        cfg = ExperimentConfig("lattice", dict(LATTICE_PARAMS, dt=0.1,
                                               mu_m=1.0), 0, Path("."))
        assert validate_config(cfg) == []

    def test_every_experiment_is_registered_once(self):
        # each schema has its one entry of findings and handler, and no
        # entry runs without a schema
        import ringlock.cli as cli
        assert set(cli.SCHEMAS) == set(cli._EXPERIMENTS)

    def test_valid_config_empty_findings(self):
        cfg = ExperimentConfig("lattice", LATTICE_PARAMS, 0, Path("."))
        assert validate_config(cfg) == []


class TestRunExperiment:
    def test_comb_run_wraps_closed_form(self, tmp_path):
        from ringlock.comb import comb_closed, comb_hwhm
        cfg = ExperimentConfig("comb", {"beta": 0.1, "n_points": 32}, 0,
                               tmp_path)
        manifest = run_experiment(cfg)
        assert manifest.derived["hwhm_rad"] == pytest.approx(comb_hwhm(0.1))
        table = (tmp_path / "comb_profile.txt").read_text().splitlines()
        assert table[0].startswith("#")
        s0, v0, vs0 = map(float, table[1].split())
        assert v0 == pytest.approx(comb_closed(s0, 0.1), rel=1e-15)
        assert vs0 == pytest.approx(v0, abs=1e-12)

    def test_comb_run_at_wide_beta(self, tmp_path):
        # far past 710, where sinh(beta) overflows: the profile is flat
        cfg = ExperimentConfig("comb", {"beta": 1e4, "n_points": 8}, 0,
                               tmp_path)
        derived = run_experiment(cfg).derived
        assert derived["peak"] == pytest.approx(1.0, rel=1e-12)
        assert derived["mean_over_period"] == pytest.approx(1.0, rel=1e-12)
        table = np.loadtxt(tmp_path / "comb_profile.txt")
        assert np.all(np.isfinite(table))

    def test_wrapped_and_float_integer_values_run_as_bare(self, tmp_path):
        # a {"value", "unit"} record and an integer written as 32.0 reach
        # the run as the bare config's values
        bare = {"beta": 0.1, "n_points": 32}
        wrapped = {"beta": {"value": 0.1, "unit": "dimensionless"},
                   "n_points": 32.0}
        runs = [run_experiment(ExperimentConfig("comb", params, 0,
                                                tmp_path / name))
                for name, params in (("bare", bare), ("wrapped", wrapped))]
        assert runs[0].derived == runs[1].derived
        assert (tmp_path / "bare" / "comb_profile.txt").read_bytes() \
            == (tmp_path / "wrapped" / "comb_profile.txt").read_bytes()

    def test_invalid_config_raises(self, tmp_path):
        cfg = ExperimentConfig("comb", {"beta": -1.0}, 0, tmp_path)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_top_level_checked_through_the_api(self, tmp_path):
        # a config built in Python has its seed and output directory checked
        # as a config file's are: a ValueError naming the field, before any
        # output directory is made
        out = tmp_path / "out"
        for field_name, value in (("seed", 1.5), ("seed", True),
                                  ("seed", -3), ("seed", 2 ** 64),
                                  ("seed", 2 ** 70), ("output_dir", 5),
                                  ("output_dir", None)):
            cfg = dataclasses.replace(
                ExperimentConfig("lattice", LATTICE_PARAMS, 0, out),
                **{field_name: value})
            assert any(field_name in f for f in validate_config(cfg)), value
            with pytest.raises(ValueError, match=field_name):
                run_experiment(cfg)
            assert not out.exists(), (field_name, value)
        assert validate_config(ExperimentConfig(
            "lattice", LATTICE_PARAMS, 2 ** 64 - 1, str(out))) == []

    def test_checksums_match_files(self, tmp_path):
        cfg = ExperimentConfig("noise", NOISE_PARAMS, 3, tmp_path)
        manifest = run_experiment(cfg)
        assert len(manifest.outputs) == 1
        rec = manifest.outputs[0]
        digest = hashlib.sha256(Path(rec["path"]).read_bytes()).hexdigest()
        assert digest == rec["sha256"]
        # manifest on disk references every output exactly once
        disk = json.loads((tmp_path / "noise_manifest.json").read_text())
        assert [o["path"] for o in disk["outputs"]] == [rec["path"]]
        assert disk["derived"]["alpha_nf"] == pytest.approx(2.4984375)

    def test_lattice_rerun_byte_identical(self, tmp_path):
        params = dict(LATTICE_PARAMS, n_steps=20000)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(ExperimentConfig("lattice", params, 11, out_a))
        run_experiment(ExperimentConfig("lattice", params, 11, out_b))
        fa = (out_a / "lattice_correlations.txt").read_bytes()
        fb = (out_b / "lattice_correlations.txt").read_bytes()
        assert fa == fb
        # a different seed changes the bytes
        out_c = tmp_path / "c"
        run_experiment(ExperimentConfig("lattice", params, 12, out_c))
        assert (out_c / "lattice_correlations.txt").read_bytes() != fa

    def test_pulse_experiment(self, tmp_path):
        cfg = ExperimentConfig("pulse", {"g_m_re": 1e-3, "n": 200}, 0,
                               tmp_path)
        manifest = run_experiment(cfg)
        assert manifest.derived["final_g"][0] == pytest.approx(
            1e-3 * np.tanh(0.2), rel=1e-2)
        # the map converges to its own fixed point, not the continuum g_m;
        # the sign of g_m does not enter the map
        for g_m_re in (0.1, -0.1):
            cfg = ExperimentConfig("pulse", {"g_m_re": g_m_re, "n": 300}, 0,
                                   tmp_path / str(g_m_re))
            derived = run_experiment(cfg).derived
            assert derived["continuum_fixed_point"] == [0.1, 0.0]
            assert derived["fixed_point"][0] == pytest.approx(
                -0.005 + 0.1 * np.sqrt(1.0025), rel=1e-15)
            assert np.allclose(derived["final_g"], derived["fixed_point"],
                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g_m", [0.1 + 0.02j, 0.1, 0.05j])
    def test_pulse_tanh_columns_from_any_start(self, tmp_path, g_m):
        # the continuum law g_m tanh(g_m (tau - tau0)) through g0, with
        # tau0 = -artanh(g0/g_m)/g_m; at the fixed points g0 = +/-g_m tau0
        # is infinite and the law is the constant g0
        def tanh_columns(g0, name):
            cfg = ExperimentConfig("pulse", {
                "g_m_re": g_m.real, "g_m_im": g_m.imag, "g0_re": g0.real,
                "g0_im": g0.imag, "n": 400}, 0, tmp_path / name)
            run_experiment(cfg)
            table = np.loadtxt(tmp_path / name / "pulse_trajectory.txt")
            return table[:, 3] + 1j * table[:, 4]
        g_m = complex(g_m)
        g0 = 0.01 - 0.005j
        law = tanh_columns(g0, "start")
        tau0 = complex(-np.arctanh(g0 / g_m) / g_m)
        want = [pulses.continuous_solution(g_m, float(i), tau0)
                for i in range(401)]
        assert law[0] == pytest.approx(g0, rel=1e-14)
        assert np.allclose(law, want, rtol=1e-14, atol=0)
        for fixed in (g_m, -g_m):
            law = tanh_columns(fixed, f"fixed{fixed}")
            assert np.array_equal(law, np.full(401, fixed))

    SEO_BASE = {
        "m_m": 1e-12, "omega_m": 2 * np.pi * 4e5,
        "gamma_m": 2 * np.pi * 4e5 * 0.005, "theta_ph": 0.0,
        "theta_fh": -1e-9, "kappa_m": 2 * np.pi * 4e5 * 0.02,
        "a_h0": 1e5, "k_a1": 1e4, "x0": 1e-8,
        "n_cycles": 1200, "steps_per_cycle": 150, "store_every": 10,
    }

    def test_seo_experiment_classifies_growth(self, tmp_path):
        base = dict(self.SEO_BASE, search=False)
        man_hi = run_experiment(ExperimentConfig(
            "seo", dict(base, l0_factor=1.3), 0, tmp_path / "hi"))
        assert man_hi.derived["classification"] == "grew"
        man_lo = run_experiment(ExperimentConfig(
            "seo", dict(base, l0_factor=0.7), 0, tmp_path / "lo"))
        assert man_lo.derived["classification"] == "decayed"

    def test_seo_threshold_search_brackets_formula(self, tmp_path):
        cfg = ExperimentConfig("seo", dict(self.SEO_BASE, search_rtol=0.1),
                               0, tmp_path)
        man = run_experiment(cfg)
        lo, hi = man.derived["threshold_bracket"]
        l_star = man.derived["threshold_formula"]
        assert lo < l_star < hi or abs(
            man.derived["threshold_relative_gap"]) < 0.1
        assert abs(man.derived["threshold_relative_gap"]) < 0.15
        assert (hi - lo) / l_star <= 0.1

    def test_seo_no_threshold_note(self, tmp_path):
        cfg = ExperimentConfig("seo", {
            "m_m": 1e-12, "omega_m": 2 * np.pi * 4e5,
            "gamma_m": 2 * np.pi * 4e5 * 0.005, "theta_ph": 0.0,
            "theta_fh": -1e-9, "kappa_m": 2 * np.pi * 4e5 * 0.02,
            "a_h0": 1e5, "k_a1": -1e4, "x0": 1e-8,
        }, 0, tmp_path)
        manifest = run_experiment(cfg)
        # no finite threshold is written null, with the note saying why
        assert manifest.derived["threshold_formula"] is None
        assert "note" in manifest.derived
        assert strict_json(tmp_path / "seo_manifest.json")["derived"][
            "threshold_formula"] is None

    def test_mml_without_opposite_seo_threshold(self, tmp_path):
        # on red detuning at T_N = 3 omega_m the MML threshold is 3 times
        # the SEO one, and the opposite (blue) detuning has no SEO
        # threshold: it and the ratio are null, with a note saying why
        omega_m = self.SEO_BASE["omega_m"]
        params = dict(self.SEO_BASE, t_n=3.0 * omega_m,
                      coupling=1e4 * omega_m * self.SEO_BASE["k_a1"],
                      beta_floor=0.05, n_cycles=40, steps_per_cycle=50,
                      search=False)
        run_experiment(ExperimentConfig("mml", params, 0, tmp_path))
        derived = strict_json(tmp_path / "mml_manifest.json")["derived"]
        assert derived["threshold_formula"] == pytest.approx(
            3.0 * thermomech.seo_threshold(
                thermomech.MechParams(
                    params["m_m"], omega_m, params["gamma_m"],
                    params["theta_ph"], params["theta_fh"],
                    params["kappa_m"]),
                thermomech.AbsorptionModel(params["a_h0"], params["k_a1"])),
            rel=1e-12)
        assert derived["seo_threshold_opposite_detuning"] is None
        assert derived["threshold_ratio"] is None
        assert "opposite detuning" in derived["opposite_detuning_note"]

    def test_threshold_domain_note(self, tmp_path, monkeypatch):
        # an mml search whose steady thermal shift Theta_PH*L0*A_H0/kappa_m
        # passes -omega_m: every probe halts on simulate's thermal-frequency
        # guard, so the manifest says the classification means nothing
        simulate, halts = thermomech.simulate, []

        def recording(*args, **kwargs):
            try:
                return simulate(*args, **kwargs)
            except thermomech.InstabilityError as err:
                halts.append(err)
                raise
        monkeypatch.setattr(thermomech, "simulate", recording)
        omega_m, k_a1 = 2676900.3047668235, 5303.763062172119
        params = {
            "m_m": 7.275653842932221e-13, "omega_m": omega_m,
            "gamma_m": 0.05 * omega_m, "kappa_m": 0.01 * omega_m,
            "theta_ph": -2e3, "theta_fh": -7.275653842932221e-10,
            "a_h0": 51276.28837468889, "k_a1": -k_a1,
            "t_n": 0.01 * omega_m, "coupling": 1e4 * omega_m * k_a1,
            "beta_floor": 0.05, "n_cycles": 16, "steps_per_cycle": 500,
            "store_every": 10, "search": True, "search_rtol": 0.05}
        derived = run_experiment(ExperimentConfig(
            "mml", params, 0, tmp_path / "hot")).derived
        assert "domain_note" in derived
        assert "-63.4 omega_m" in derived["domain_note"]
        # halted_at is the first probe's halt, at the time simulate reports
        assert derived["halted_at"] == halts[0].t > 0.0
        assert f"at t = {derived['halted_at']:.6g} s" in str(halts[0])
        # its amplitude ratio, inf, is written null
        assert derived["amplitude_ratio"] is None
        assert strict_json(tmp_path / "hot" / "mml_manifest.json")[
            "derived"]["halted_at"] == derived["halted_at"]
        assert "threshold_bracket" not in derived
        # at Theta_PH = 0 the shift is zero: no note, and a bracket
        derived = run_experiment(ExperimentConfig(
            "mml", dict(params, theta_ph=0.0), 0, tmp_path / "cold")).derived
        assert "domain_note" not in derived
        assert "threshold_bracket" in derived

    # the benchmark's mml-search workload (bench/workloads.py, _mml_params)
    # at the centre of its parameter ranges
    MML_SEARCH = {
        "m_m": 1e-12, "omega_m": 2 * np.pi * 4e5,
        "gamma_m": 0.05 * 2 * np.pi * 4e5, "kappa_m": 0.01 * 2 * np.pi * 4e5,
        "theta_ph": 0.0, "theta_fh": -1e-9, "a_h0": 1e5, "k_a1": -1e4,
        "t_n": 0.01 * 2 * np.pi * 4e5, "coupling": 1e4 * 2 * np.pi * 4e5 * 1e4,
        "beta_floor": 0.05, "n_cycles": 16, "steps_per_cycle": 500,
        "store_every": 10, "search": True, "search_rtol": 0.05}

    def test_search_reuses_the_first_probe(self, tmp_path, monkeypatch):
        from ringlock import thermomech
        simulate, calls = thermomech.simulate, []

        def counting(mech, absorption, drive, **kwargs):
            calls.append((mech, absorption, drive, kwargs))
            return simulate(mech, absorption, drive, **kwargs)
        monkeypatch.setattr(thermomech, "simulate", counting)
        derived = run_experiment(ExperimentConfig(
            "mml", self.MML_SEARCH, 0, tmp_path / "search")).derived
        # the first probe at 1.05 L* grew: it decides the high end and
        # three of the four midpoints, and the first midpoint, 1.025 L*,
        # decays and decides the low end, so 2 simulations run where 7 did
        l_star = derived["threshold_formula"]
        assert len(calls) == 2
        assert derived["classification"] == "grew"
        assert calls[1][2].l0 == 0.5 * (0.8 * l_star + 1.25 * l_star)
        assert derived["search_probes"] == [[calls[1][2].l0, "decayed"]]
        # plain bisection's bracket, each point classified by the library's
        # probe with the CLI's own arguments
        mech, absorption, drive, kw = calls[0]

        def grows(l0):
            return thermomech.probe_growth(
                mech, absorption, dataclasses.replace(drive, l0=l0), kw["x0"],
                kw["t_end"], kw["dt"], kw["store_every"])[0]
        lo, hi = 0.8 * l_star, 1.25 * l_star
        assert not grows(lo) and grows(hi)
        while (hi - lo) / l_star > self.MML_SEARCH["search_rtol"]:
            mid = 0.5 * (lo + hi)
            if grows(mid):
                hi = mid
            else:
                lo = mid
        assert len(calls) == 2 + 6    # with the first probe, 7
        assert derived["threshold_bracket"] == [lo, hi]

    def test_search_note_names_the_span(self, tmp_path, monkeypatch):
        # the note is formatted from SEARCH_SPAN, not written out
        from ringlock import thermomech
        monkeypatch.setattr(thermomech, "SEARCH_SPAN", (0.75, 1.5))
        monkeypatch.setattr(thermomech, "bisect_threshold",
                            lambda *args, **kwargs: (None, []))
        derived = run_experiment(ExperimentConfig(
            "mml", self.MML_SEARCH, 0, tmp_path)).derived
        assert derived["search_note"] == (
            "no growth/decay sign change inside [0.75, 1.5] x formula "
            "threshold; simulated value not bracketed")
        assert derived["search_probes"] == []
        assert "threshold_bracket" not in derived

    def test_manifest_is_byte_identical_on_rerun(self, tmp_path):
        # everything but the timestamp, the search's probes included
        texts = []
        for _ in range(2):
            run_experiment(ExperimentConfig("mml", self.MML_SEARCH, 0,
                                            tmp_path))
            text = (tmp_path / "mml_manifest.json").read_text()
            texts.append([line for line in text.splitlines()
                          if not line.lstrip().startswith('"timestamp"')])
        assert texts[0] == texts[1]
        assert '"search_probes"' in "\n".join(texts[0])

    def test_probe_windows_need_stored_samples(self, tmp_path):
        # a trajectory too sparse for the probe's amplitude windows once
        # gave a NaN ratio, classified "decayed", with exit 0.  The sparsest
        # that fills them stores two intervals under CW (of 27 cycles of 50
        # steps, the shortest run whose reference window opens after one
        # thermal time) and one under the closed loop (of 500, mml-search
        # seed 901 op 0)
        mml = dict(_bench_module("workloads").make_config(
            "mml-search", 901, 0)["parameters"], n_cycles=1, store_every=500)
        seo = dict(self.SEO_BASE, n_cycles=27, steps_per_cycle=50,
                   store_every=675, search=False, l0_factor=2.0)
        for experiment, params, sparse in (("seo", seo, 676),
                                           ("mml", mml, 600)):
            findings = validate_config(ExperimentConfig(
                experiment, dict(params, store_every=sparse)))
            assert "store_every" in " ".join(findings), experiment
            cfg = ExperimentConfig(experiment, params, 0, tmp_path)
            assert validate_config(cfg) == []
            assert np.isfinite(run_experiment(cfg).derived["amplitude_ratio"])

    def test_lattice_trajectory_table(self, tmp_path):
        params = dict(LATTICE_PARAMS, n_steps=5000, store_trajectory=True,
                      traj_every=500)
        run_experiment(ExperimentConfig("lattice", params, 2, tmp_path))
        lines = (tmp_path / "lattice_trajectory.txt").read_text().splitlines()
        header = lines[0].split()[1:]
        assert header[0] == "time"
        assert len(header) == 1 + params["n_modes"]
        assert len(lines) > 5


class TestWriteTable:
    @staticmethod
    def per_cell_text(header, columns):
        """The table as the writer formatted it cell by cell up to 0.6.0."""
        lines = ["# " + " ".join(header)]
        for i in range(len(columns[0])):
            lines.append(" ".join(_fmt(col[i]) for col in columns))
        return "\n".join(lines) + "\n"

    def write(self, tmp_path, header, columns, name="t"):
        manifest = RunManifest("comb", {}, "0", "now", 0)
        path = _write_table(manifest, tmp_path, name, header, columns)
        return manifest, path

    def test_bytes_match_per_cell_formatting(self, tmp_path):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16,
                           1e-5, 0.1])
        traj = np.arange(24, dtype=float).reshape(8, 3) / 7.0
        columns = [
            floats,
            np.array([-2 ** 63, -1, 0, 1, 7, 2 ** 53 + 1, 10 ** 18,
                      2 ** 63 - 1], dtype=np.int64),
            np.array([0, 1, 2, 3, 2 ** 53 + 1, 2 ** 63, 10 ** 19,
                      2 ** 64 - 1], dtype=np.uint64),
            np.array([True, False] * 4),
            np.array([0.1, -0.0, np.nan, np.inf, 1e-45, 3.4e38, 1.0,
                      1 / 3], dtype=np.float32),
            np.array(["alpha", "b", "c", "d", "e", "f", "g", "h"],
                     dtype=object),
            [1, 2.5, -3, 0.0, True, np.int64(4), np.float64(0.5), "x"],
            traj[:, 1],
            floats[::-1],
            floats.astype(">f8"),
        ]
        header = [f"c{j}" for j in range(len(columns))]
        manifest, path = self.write(tmp_path, header, columns)
        assert path == tmp_path / "comb_t.txt"
        text = self.per_cell_text(header, columns)
        assert path.read_bytes() == text.encode()
        # a list is formatted element by element, never cast to floats
        assert [row.split()[6] for row in text.splitlines()[1:3]] \
            == ["1", "2.5"]
        assert manifest.outputs == [{
            "name": "t", "path": str(path), "rows": 8,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}]

    def test_empty_table_is_its_header(self, tmp_path):
        manifest, path = self.write(tmp_path, ["a", "b"],
                                    [np.array([]), np.array([], dtype=int)])
        assert path.read_text() == "# a b\n"
        assert manifest.outputs[0]["rows"] == 0

    @pytest.mark.parametrize("lengths", [(3, 2), (3, 4), (3, 3, 1)])
    def test_ragged_columns_refused_before_writing(self, tmp_path, lengths):
        columns = [np.arange(n, dtype=float) for n in lengths]
        with pytest.raises(RuntimeError) as info:
            self.write(tmp_path, ["c"] * len(lengths), columns, "ragged")
        assert "'ragged'" in str(info.value)
        assert str(list(lengths)) in str(info.value)
        assert list(tmp_path.iterdir()) == []


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, {
            "experiment": "comb", "seed": 1,
            "parameters": {"beta": 0.2, "n_points": 16}})
        assert main(["run", str(good), "--out", str(tmp_path / "out")]) == 0
        # a linewidth past sinh's overflow is valid: the comb is flat there
        wide = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 800.0}},
            "comb_max.json")
        assert main(["run", str(wide), "--out", str(tmp_path / "wide")]) \
            == 0
        # at beta = 1e-3 the 512-point series (K = 37 535) holds 57% of the
        # terms the size rule allows, and runs
        narrow = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 1e-3}},
            "comb_narrow.json")
        assert main(["run", str(narrow), "--out",
                     str(tmp_path / "narrow")]) == 0

        bad = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": -2.0}}, "bad.json")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2

        missing = tmp_path / "nope.json"
        assert main(["run", str(missing)]) == 2

        # a NaN parameter, an unknown enum value or a constraint the
        # library checks during the run fails at validate, before running
        mml = dict(TestRunExperiment.SEO_BASE, k_a1=-1e4, t_n=2.5e4,
                   coupling=2.5e14, beta_floor=0.05)
        assert validate_config(ExperimentConfig("mml", mml, 0, tmp_path)) \
            == []
        comb = {"beta": 0.2, "n_points": 16}
        for name, payload, key in (
                ("nan.json", {"experiment": "seo", "parameters": dict(
                    TestRunExperiment.SEO_BASE, k_a1=float("nan"))}, "k_a1"),
                ("enum.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, boundary="perodic")}, "boundary"),
                ("euler.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, dt=0.5, mu_m=1.0)}, "dt*mu_m"),
                ("short.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, n_modes=2, max_lag=1)}, "n_modes"),
                ("lag.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, max_lag=9, n_modes=8)}, "max_lag"),
                ("one_sample.json", {"experiment": "lattice",
                                     "parameters": dict(
                                         LATTICE_PARAMS, n_modes=8,
                                         n_steps=40)}, "sample_every"),
                ("pulse.json", {"experiment": "pulse", "parameters": {
                    "g_m_re": 1.5, "n": 10}}, "|g_m|"),
                ("comb.json", {"experiment": "comb", "parameters": {
                    "beta": 1e-8}}, "beta"),
                # 512 x K = 44 442 264 series terms: 170 GiB per array
                ("series.json", {"experiment": "comb", "parameters": {
                    "beta": 1e-6}}, "K = 44442264"),
                ("noise.json", {"experiment": "noise", "parameters": dict(
                    NOISE_PARAMS, g_oa=0.5)}, "g_oa"),
                ("n_pi.json", {"experiment": "noise", "parameters": dict(
                    NOISE_PARAMS, n_pi=0.5)}, "n_pi"),
                ("seo.json", {"experiment": "seo", "parameters": dict(
                    TestRunExperiment.SEO_BASE, steps_per_cycle=20)},
                 "steps per mechanical period"),
                ("damping.json", {"experiment": "seo", "parameters": dict(
                    TestRunExperiment.SEO_BASE,
                    gamma_m=0.2 * TestRunExperiment.SEO_BASE["omega_m"])},
                 "gamma_m"),
                ("mml_step.json", {"experiment": "mml", "parameters": dict(
                    mml, steps_per_cycle=49)}, "steps per mechanical period"),
                ("floor.json", {"experiment": "mml", "parameters": dict(
                    mml, beta_floor=1e-7)}, "beta_floor"),
                ("mml_x0.json", {"experiment": "mml", "parameters": dict(
                    mml, x0=0.0)}, "x0"),
                ("thermal.json", {"experiment": "seo", "parameters": dict(
                    TestRunExperiment.SEO_BASE, n_cycles=1,
                    steps_per_cycle=50, store_every=25, search=False,
                    l0_factor=2.0)}, "kappa_m"),
                ("rtol.json", {"experiment": "seo", "parameters": dict(
                    TestRunExperiment.SEO_BASE, n_cycles=300,
                    steps_per_cycle=50, search_rtol=1e-17)}, "search_rtol"),
                ("adler.json", {"experiment": "adler", "parameters": dict(
                    ADLER_PARAMS, duration=0.001, sample_rate=1000.0)},
                 "Welch segment"),
                ("detuning.json", {"experiment": "adler", "parameters": dict(
                    ADLER_PARAMS, omega_r=ADLER_PARAMS["omega_am"])},
                 "omega_r"),
                # a config of the wrong shape is a finding too, never a
                # traceback, and a seed that is not an integer is not cast
                ("list.json", [{"experiment": "comb", "parameters": comb}],
                 "JSON object"),
                ("params_list.json", {"experiment": "comb",
                                      "parameters": ["beta"]}, "parameters"),
                ("params_null.json", {"experiment": "comb",
                                      "parameters": None}, "parameters"),
                ("seed_text.json", {"experiment": "comb", "seed": "abc",
                                    "parameters": comb}, "seed"),
                ("seed_null.json", {"experiment": "comb", "seed": None,
                                    "parameters": comb}, "seed"),
                ("seed_float.json", {"experiment": "comb", "seed": 1.5,
                                     "parameters": comb}, "seed"),
                ("seed_bool.json", {"experiment": "comb", "seed": True,
                                    "parameters": comb}, "seed"),
                ("experiment.json", {"experiment": ["comb"],
                                     "parameters": comb}, "experiment"),
                ("seed_negative.json", {"experiment": "comb", "seed": -3,
                                        "parameters": comb}, "seed"),
                ("seed_wide.json", {"experiment": "comb", "seed": 2 ** 70,
                                    "parameters": comb}, "seed"),
                ("output_dir.json", {"experiment": "comb", "output_dir": 5,
                                     "parameters": comb}, "output_dir"),
                # a top-level key that is no field is refused, so a typo
                # does not run on the default it misses
                ("top_key.json", {"experiment": "comb", "sed": 5,
                                  "parameters": comb}, "'sed'")):
            path = write_config(tmp_path, payload, name)
            out = tmp_path / name.replace(".json", "_out")
            capsys.readouterr()
            assert main(["validate", str(path)]) == 2, name
            findings = capsys.readouterr().out
            assert key in findings, (name, findings)
            assert main(["run", str(path), "--out", str(out)]) == 2, name
            assert not out.exists(), name
            err = capsys.readouterr().err
            assert err.startswith("finding: "), err
            assert "Traceback" not in err

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_take_the_umask_mode(self, tmp_path, umask, mode):
        # tables and manifests are created as open() creates a file, with
        # mode 0o666 & ~umask
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.2, "n_points": 8}})
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["run", str(cfg), "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"comb_profile.txt": mode,
                         "comb_manifest.json": mode}

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        from ringlock.cli import _write_atomic

        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            _write_atomic(tmp_path / "t.txt", "text\n")
        assert list(tmp_path.iterdir()) == []

    def test_run_value_error_is_invalid_config(self, tmp_path, capsys,
                                               monkeypatch):
        # a ValueError the library raises during the run, past validate,
        # is reported as an invalid config without a traceback
        import ringlock.cli as cli

        def refuse(config):
            raise ValueError("a constraint only the run checks")
        monkeypatch.setattr(cli, "run_experiment", refuse)
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.2}})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: "), err
        assert "Traceback" not in err
        assert not (out / "comb_manifest.json").exists()

    @pytest.mark.parametrize("error", [
        engine.IntegrationError, thermomech.InstabilityError,
        pulses.UnstableIterationError, pulses.PoleError, OverflowError],
        ids=lambda error: error.__name__)
    def test_run_arithmetic_error_is_numerical_failure(
            self, tmp_path, capsys, monkeypatch, error):
        # every numerical failure is an ArithmeticError: the library's own
        # classes and math's overflow alike exit 3 without a traceback
        import ringlock.cli as cli

        def fail(config):
            raise error("a run that left its domain")
        monkeypatch.setattr(cli, "run_experiment", fail)
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.2}})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: a run that left its domain\n"
        assert not (out / "comb_manifest.json").exists()

    def test_ragged_table_is_a_program_failure(self, tmp_path, capsys,
                                               monkeypatch):
        # columns of different lengths are a handler's defect: main lets
        # the error out rather than report the config as invalid
        import ringlock.cli as cli

        def ragged(p, manifest, out_dir):
            cli._write_table(manifest, out_dir, "profile", ["a", "b"],
                             [np.zeros(3), np.zeros(2)])
        check, _ = cli._EXPERIMENTS["comb"]
        monkeypatch.setitem(cli._EXPERIMENTS, "comb", (check, ragged))
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.2}})
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="'profile'"):
            main(["run", str(cfg), "--out", str(out)])
        assert "invalid config" not in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unencodable_manifest_value_is_a_program_failure(
            self, tmp_path, capsys, monkeypatch):
        # a derived value JSON cannot encode is a handler's defect: it ends
        # in a traceback, not written as its str
        import ringlock.cli as cli

        def unencodable(p, manifest, out_dir):
            manifest.derived["opaque"] = object()
        check, _ = cli._EXPERIMENTS["comb"]
        monkeypatch.setitem(cli._EXPERIMENTS, "comb", (check, unencodable))
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.2}})
        out = tmp_path / "out"
        with pytest.raises(TypeError, match="not JSON serializable"):
            main(["run", str(cfg), "--out", str(out)])
        assert "invalid config" not in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_manifest_value_is_a_program_failure(
            self, tmp_path, capsys, monkeypatch, value):
        # strict JSON has no NaN or Infinity: a handler that stores one
        # ends in a traceback and leaves no manifest, not exit 2 for json's
        # ValueError
        import ringlock.cli as cli

        def non_finite(p, manifest, out_dir):
            manifest.derived["ratio"] = value
        check, _ = cli._EXPERIMENTS["comb"]
        monkeypatch.setitem(cli._EXPERIMENTS, "comb", (check, non_finite))
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.2}})
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="not JSON compliant"):
            main(["run", str(cfg), "--out", str(out)])
        assert "invalid config" not in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_benchmark_entry_points_are_called(self, tmp_path, monkeypatch):
        # the benchmark stamps its set-up time at the first call to one of
        # these module attributes and refuses a run that makes none, so the
        # CLI must call each through its module at call time
        from ringlock import adler, lattice, thermomech
        child = _bench_module("child")
        modules = {"adler": adler, "lattice": lattice,
                   "thermomech": thermomech}
        called = []
        for mod, attr in child.ENTRY_POINTS:
            fn = getattr(modules[mod], attr)

            def record(*args, _fn=fn, _name=(mod, attr), **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(modules[mod], attr, record)
        mml = dict(TestRunExperiment.SEO_BASE, k_a1=-1e4, t_n=2.5e4,
                   coupling=2.5e14, beta_floor=0.05, n_cycles=4,
                   steps_per_cycle=50, search=False)
        expected = {"lattice": ("lattice", "run_lattice"),
                    "adler": ("adler", "pd_spectrum_sweep"),
                    "mml": ("thermomech", "mml_threshold")}
        assert set(expected.values()) == set(child.ENTRY_POINTS)
        for experiment, params in (
                ("lattice", dict(LATTICE_PARAMS, n_steps=200)),
                ("adler", ADLER_PARAMS), ("mml", mml)):
            cfg = write_config(tmp_path, {"experiment": experiment,
                                          "parameters": params},
                               f"{experiment}.json")
            called.clear()
            assert main(["run", str(cfg), "--out",
                         str(tmp_path / experiment)]) == 0, experiment
            assert expected[experiment] in called, (experiment, called)

    def test_benchmark_tracer_counts_the_tables(self, tmp_path, monkeypatch):
        # the traced benchmark replaces each WRAPPED module attribute and
        # reads a table's rows from the fifth positional argument of
        # _write_table and its bytes from the path it returns; a renamed
        # function or a changed call would read 0 without failing
        from ringlock import adler, cli, lattice, thermomech
        child = _bench_module("child")
        modules = {"adler": adler, "cli": cli, "lattice": lattice,
                   "thermomech": thermomech}
        names = [(mod, attr) for mod, attr, _, _ in child.WRAPPED]
        for mod, attr in names + list(child.ENTRY_POINTS):
            fn = getattr(modules[mod], attr, None)
            assert callable(fn), (mod, attr)
            monkeypatch.setattr(modules[mod], attr, fn)   # undone after
        tracer = child.Tracer(thermomech.InstabilityError)
        tracer.install(modules, traced=True)
        cfg = write_config(tmp_path, {"experiment": "adler",
                                      "parameters": ADLER_PARAMS})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        outputs = json.loads(
            (tmp_path / "out" / "adler_manifest.json").read_text())["outputs"]
        tables = tracer.take()[1]["cli.tables"]
        assert tables["calls"] == len(outputs) == 2
        assert tables["rows"] == sum(o["rows"] for o in outputs) > 0
        assert tables["bytes"] == sum(Path(o["path"]).stat().st_size
                                      for o in outputs)

    def test_run_path_imports_no_scipy(self, tmp_path):
        # scipy serves the tests only: a fresh interpreter that imports the
        # CLI and runs a spectrum experiment never loads it
        cfg = write_config(tmp_path, {"experiment": "adler",
                                      "parameters": ADLER_PARAMS})
        code = ("import sys\n"
                "from ringlock.cli import main\n"
                f"code = main(['run', {str(cfg)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}])\n"
                "print(code, sorted(m for m in sys.modules\n"
                "                   if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "out" / "adler_manifest.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # pulse iteration seeded beyond the unstable fixed point diverges
        cfg = write_config(tmp_path, {
            "experiment": "pulse",
            "parameters": {"g_m_re": 0.01, "g0_re": -0.9, "n": 2000}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_validate_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "lattice",
            "parameters": {"mu_m": -1.0}})
        assert main(["validate", str(cfg)]) == 2
        out = capsys.readouterr().out
        assert "finding" in out

    def test_preset_subcommand(self, capsys):
        assert main(["preset", "paper"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rgml"]["zeta_am"]["value"] == pytest.approx(
            2 * np.pi * 100.0 / 0.156)
        assert payload["amplifier"]["g_oa"]["value"] == 1600.0
        assert main(["preset", "nonexistent"]) == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGLOCK_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": 0.3}})
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "envout" / "comb_profile.txt").exists()

    def test_preset_text_round_trips(self):
        data = json.loads(preset_text("paper"))
        assert data["cavity"]["l_r"]["value"] == 553.88
        with pytest.raises(ValueError):
            preset_text("other")
