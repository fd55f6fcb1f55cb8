import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringlock.cli import (ExperimentConfig, main, preset_text,
                          run_experiment, validate_config)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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

    def test_invalid_config_raises(self, tmp_path):
        cfg = ExperimentConfig("comb", {"beta": -1.0}, 0, tmp_path)
        with pytest.raises(ValueError):
            run_experiment(cfg)

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
        assert manifest.derived["threshold_formula"] == np.inf
        assert "note" in manifest.derived

    def test_lattice_trajectory_table(self, tmp_path):
        params = dict(LATTICE_PARAMS, n_steps=5000, store_trajectory=True,
                      traj_every=500)
        run_experiment(ExperimentConfig("lattice", params, 2, tmp_path))
        lines = (tmp_path / "lattice_trajectory.txt").read_text().splitlines()
        header = lines[0].split()[1:]
        assert header[0] == "time"
        assert len(header) == 1 + params["n_modes"]
        assert len(lines) > 5


class TestMainEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, {
            "experiment": "comb", "seed": 1,
            "parameters": {"beta": 0.2, "n_points": 16}})
        assert main(["run", str(good), "--out", str(tmp_path / "out")]) == 0

        bad = write_config(tmp_path, {
            "experiment": "comb", "parameters": {"beta": -2.0}}, "bad.json")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2

        missing = tmp_path / "nope.json"
        assert main(["run", str(missing)]) == 2

        # a NaN parameter, an unknown enum value or a lattice constraint
        # fails before running
        for name, payload in (
                ("nan.json", {"experiment": "seo", "parameters": dict(
                    TestRunExperiment.SEO_BASE, k_a1=float("nan"))}),
                ("enum.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, boundary="perodic")}),
                ("euler.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, dt=0.5, mu_m=1.0)}),
                ("short.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, n_modes=2, max_lag=1)}),
                ("lag.json", {"experiment": "lattice", "parameters": dict(
                    LATTICE_PARAMS, max_lag=9, n_modes=8)})):
            path = write_config(tmp_path, payload, name)
            out = tmp_path / name.replace(".json", "_out")
            assert main(["validate", str(path)]) == 2, name
            assert main(["run", str(path), "--out", str(out)]) == 2, name
            assert not out.exists(), name

        # constraints the schema does not express fail in the run with
        # exit 2 as well, before any manifest is written
        capsys.readouterr()
        for experiment, params in (
                ("pulse", {"g_m_re": 1.5, "n": 10}),
                ("comb", {"beta": 1e-8}),
                ("noise", dict(NOISE_PARAMS, g_oa=0.5)),
                ("seo", dict(TestRunExperiment.SEO_BASE, steps_per_cycle=20)),
                ("adler", dict(ADLER_PARAMS, duration=0.001,
                               sample_rate=1000.0))):
            path = write_config(tmp_path, {"experiment": experiment,
                                           "parameters": params}, "c.json")
            out = tmp_path / "constraint_out"
            assert main(["run", str(path), "--out", str(out)]) == 2, params
            assert not (out / f"{experiment}_manifest.json").exists()
            err = capsys.readouterr().err
            assert err.startswith("error: invalid config: "), err
            assert "Traceback" not in err

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
