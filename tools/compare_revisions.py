"""Compare two git revisions of ringlock on the benchmark and on outputs.

    python3 tools/compare_revisions.py --parent REV --change REV \
        --label NAME --seeds 1501-1510 --work DIR

Each revision is exported with ``git archive`` into ``DIR/<side>`` and run
from there, so uncommitted files play no part.  Four records are written to
``BENCH_<label>.json`` at the repository root:

- ``pairs``: for every seed and workload, ``bench/run.py --trace 0`` once on
  each side.  The workloads are interleaved pair by pair and the side that
  runs first alternates with the seed, so a slow stretch of a shared machine
  falls on both sides alike.  Each metric gets its quartiles, its spread
  (quartile distance over median, as in ``bench/README.md``), the number of
  pairs the change wins and the gap between the medians.
- ``traced_mml_search``: one ``--trace 1`` run of ``mml-search`` per side,
  with the per-operation medians of the threshold search's layers.
- ``kernels``: ``thermomech.simulate``'s microseconds per step in each
  drive mode (``cw``, ``comb``, ``closed_loop``; 8000 steps each),
  ``lattice.run_lattice``'s microseconds per step on the ``lattice-chain``
  chain (20 000 steps after the default burn-in of 10 000, which the
  count includes) and ``lattice._block_means``'s milliseconds per
  200 x 64 block, the block of the ``lattice-chain`` workload.  Each
  repeat runs one fresh process per side, the side that runs first
  alternating, and each kernel gets its quartiles over the repeats on
  each side.  No workload runs the CW or comb step, which shares the RK4
  loop with the closed loop.
- ``byte_identity``: the ``seo``/``mml`` threshold configs below and one
  config of every other experiment, run through ``ringlock.cli.main`` on
  both sides.  Tables must match byte for byte, and manifests once
  ``timestamp`` and ``version`` are dropped (each side's version is
  recorded).  A manifest that differs is listed with the fields that
  differ, ``derived.search_probes`` or ``derived.halted_at`` for instance.
  A table that differs gets its size in ``table_differences``: per column,
  the largest |a - b| over the column's largest |a|, so a change at
  rounding level reads apart from a change in physics.

The workloads and the end-to-end metrics are those of ``BENCHMARK.json``,
and every benchmark run lasts its ``run_seconds`` (40 s), so a seed takes
about 4 minutes over three workloads.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
TRACED = ("thermomech.simulate.calls", "thermomech.simulate.steps",
          "thermomech.simulate.s", "thermomech.simulate.us_per_step",
          "thermomech.simulate.halted", "cli.run_experiment.s",
          "cli.run_experiment.self_s", "trace.untraced_run_s")

# the SEO test base of tests/test_cli.py, shortened to 300 cycles x 50 steps
SEO_BASE = {
    "m_m": 1e-12, "omega_m": 2 * np.pi * 4e5,
    "gamma_m": 2 * np.pi * 4e5 * 0.005, "theta_ph": 0.0,
    "theta_fh": -1e-9, "kappa_m": 2 * np.pi * 4e5 * 0.02,
    "a_h0": 1e5, "k_a1": 1e4, "x0": 1e-8,
    "n_cycles": 300, "steps_per_cycle": 50, "store_every": 10,
}
L0_FACTORS = (0.5, 0.7, 0.95, 1.0, 1.05, 1.3, 2.0)
# a Theta_PH whose steady thermal shift reaches -omega_m below L*: its
# probes halt on the thermal-frequency guard within a stored row or two and
# carry the domain_note, so one config per experiment (at L*) is run at it
HALTING_THETA_PH = -2e3
# one config of each experiment the threshold configs leave out (the open
# chain's and adler's come from bench/workloads.py), and a periodic chain
# with a burn-in and a stored trajectory; at beta = 0.2 numpy's sinh and
# the C library's differ by an ulp
OTHER_CONFIGS = [
    ["comb", {"experiment": "comb", "seed": 0,
              "parameters": {"beta": 0.2, "n_points": 512}}],
    ["lattice-periodic", {"experiment": "lattice", "seed": 5, "parameters": {
        "n_modes": 16, "mu_m": 1.0, "t_n": 0.3, "dt": 5e-3, "n_steps": 20000,
        "burn_in": 17, "sample_every": 7, "max_lag": 5,
        "store_trajectory": True, "traj_every": 101,
        "boundary": "periodic"}}],
    ["pulse", {"experiment": "pulse", "seed": 0, "parameters": {
        "g_m_re": 0.1, "g_m_im": 0.02, "g0_re": 0.01, "n": 400}}],
    ["noise", {"experiment": "noise", "seed": 0, "parameters": {
        "g_oa": 1600.0, "n_pi": 1.25, "gamma_om": 0.1 * 2 * np.pi * 368.2e3,
        "n_p": 2e6, "lambda_l": 1550e-9, "delta_lambda": 0.2e-9,
        "l_r": 553.88, "n_eff": 1.47, "omega_p": 2 * np.pi * 193.4e12,
        "omega_m": 2 * np.pi * 368.2e3}}],
]

# the kernels' inputs: the CW and comb drives at half the SEO threshold of
# SEO_BASE (the comb off resonance, at 0.31 omega_m), and the closed loop at
# 0.9 times the MML threshold of mml-search seed 901 op 0, from its probe's
# seed amplitude; none of them halts within KERNEL_STEPS
KERNEL_STEPS = 8000
LATTICE_KERNEL_STEPS = 20_000   # run_lattice's n_steps, after its burn-in
KERNEL_REPEATS = 9      # interleaved repeats of the kernel timings
# times each kernel once in the checkout on sys.path and prints one JSON
# line: simulate's microseconds per step in each drive mode, run_lattice's
# microseconds per step (burn-in included), and _block_means's
# milliseconds per 200 x 64 block (mean of 20 calls)
KERNEL_DRIVER = """
import json, math, sys, time
import numpy as np
from ringlock import lattice, thermomech as tm
steps, seo, mml, chain, chain_steps = json.loads(sys.argv[1])

def us_per_step(p, drive_of, x0):
    mech = tm.MechParams(p["m_m"], p["omega_m"], p["gamma_m"],
                         p["theta_ph"], p["theta_fh"], p["kappa_m"])
    absorption = tm.AbsorptionModel(p["a_h0"], p["k_a1"])
    dt = 2 * math.pi / (p["steps_per_cycle"] * p["omega_m"])
    drive = drive_of(mech, absorption)
    start = time.perf_counter()
    tm.simulate(mech, absorption, drive, x0, 0.0, steps * dt, dt, 10)
    return (time.perf_counter() - start) / steps * 1e6

half_seo = lambda m, a: 0.5 * tm.seo_threshold(m, a)
out = {
    "cw": us_per_step(seo, lambda m, a: tm.IntensityDrive.cw(
        half_seo(m, a)), seo["x0"]),
    "comb": us_per_step(seo, lambda m, a: tm.IntensityDrive.comb(
        half_seo(m, a), 0.4, 0.31 * seo["omega_m"]), seo["x0"]),
    "closed_loop": us_per_step(mml, lambda m, a: tm.IntensityDrive.closed_loop(
        0.9 * tm.mml_threshold(m, a, mml["t_n"]), mml["coupling"],
        mml["beta_floor"], mml["t_n"]),
        mml["t_n"] / (mml["omega_m"] * abs(mml["k_a1"]))),
}
config = lattice.LatticeConfig(chain["n_modes"], chain["mu_m"], chain["t_n"],
                               chain["dt"])
start = time.perf_counter()
stats = lattice.run_lattice(config, chain_steps)
out["run_lattice"] = (time.perf_counter() - start) \
    / round(stats.final_state.time / config.dt) * 1e6
block = np.cumsum(np.random.default_rng(0).normal(0.0, 0.3, (200, 64)), axis=1)
start = time.perf_counter()
for _ in range(20):
    lattice._block_means(block, 1.0, 10, False)
out["block_means"] = (time.perf_counter() - start) / 20 * 1e3
print(json.dumps(out))
"""

# runs every config of a JSON list through the CLI of the checkout on
# sys.path; each config's outputs go to out/<name>
IDENTITY_DRIVER = """
import json, sys
from ringlock.cli import main
for name, config in json.load(open(sys.argv[1])):
    path = f"configs/{name}.json"
    with open(path, "w") as fh:
        json.dump(config, fh)
    if main(["run", path, "--out", f"out/{name}"]) != 0:
        raise SystemExit(f"{name}: run failed")
"""


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(checkout, workload, seed, seconds, trace):
    """The last stdout line of one bench/run.py run, parsed."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"q1": round(q1, 4), "median": round(median, 4),
            "q3": round(q3, 4), "spread": round((q3 - q1) / median, 4),
            "n": len(values)}


def summarise(pairs, better):
    """Quartiles per side and the change's wins, per metric."""
    summary = {}
    for metric in METRICS:
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        sign = 1.0 if better[metric] == "lower" else -1.0
        stats = {"parent": quartiles(parent), "change": quartiles(change)}
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        summary[metric] = dict(
            stats,
            change_better=sum(sign * (a - b) > 0
                              for a, b in zip(parent, change)),
            median_change=round(stats["change"]["median"]
                                / stats["parent"]["median"] - 1.0, 4),
            parent_iqr=round(stats["parent"]["q3"] - stats["parent"]["q1"],
                             4),
            median_gap=round(gap, 4))
    return summary


def run_pairs(work, seeds, seconds):
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    pairs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in WORKLOADS:
            record = {"seed": seed, "first": order[0]}
            results = {}
            for side in order:
                results[side] = bench(work / side, workload, seed, seconds, 0)
                record[side] = {m: round(results[side]["metrics"][m]["value"],
                                         4) for m in METRICS}
            record["ops"] = [results[s]["attempted"] for s in SIDES]
            record["failed"] = [results[s]["failed"] for s in SIDES]
            record["correct"] = all(results[s]["correct"] for s in SIDES)
            pairs[workload].append(record)
            log(f"seed {seed} {workload}: " + ", ".join(
                f"{s} {record[s]['run_s']}" for s in SIDES))
    return {w: {"summary": summarise(p, better), "pairs": p}
            for w, p in pairs.items()}


def traced(work, seed, seconds):
    record = {"command": f"python3 bench/run.py --workload mml-search "
                         f"--seed {seed} --seconds {seconds:g} --trace 1",
              "note": "medians over the traced operations, per operation"}
    correct = []
    for side in SIDES:
        result = bench(work / side, "mml-search", seed, seconds, 1)
        record[side] = {k: result["metrics"][k]["value"] for k in TRACED}
        correct.append(result["correct"])
    record["correct"] = correct
    return record


def kernels(work):
    """Per-kernel quartiles on each side over KERNEL_REPEATS interleaved
    fresh processes, and each median's ratio change/parent."""
    sys.path.insert(0, str(work / "change" / "bench"))
    from workloads import LATTICE_BASE, make_config
    inputs = json.dumps([KERNEL_STEPS, SEO_BASE,
                         make_config("mml-search", 901, 0)["parameters"],
                         LATTICE_BASE, LATTICE_KERNEL_STEPS])
    runs = {side: [] for side in SIDES}
    for r in range(KERNEL_REPEATS):
        for side in (SIDES if r % 2 else SIDES[::-1]):
            env = dict(os.environ, PYTHONPATH=str(work / side / "src"))
            out = subprocess.run([sys.executable, "-c", KERNEL_DRIVER, inputs],
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout
            runs[side].append(json.loads(out))
    record = {"protocol": f"{KERNEL_REPEATS} repeats; each runs one process "
                          "per side, the side that runs first alternating",
              "units": {"cw": "us/step", "comb": "us/step",
                        "closed_loop": "us/step", "run_lattice": "us/step",
                        "block_means": "ms/block"},
              "steps": KERNEL_STEPS,
              "run_lattice_steps": LATTICE_KERNEL_STEPS}
    for side in SIDES:
        record[side] = {k: quartiles([run[k] for run in runs[side]])
                        for k in runs[side][0]}
    record["median_ratio"] = {
        k: round(record["change"][k]["median"]
                 / record["parent"][k]["median"], 4)
        for k in record["parent"]}
    return record


def identity_configs(work):
    sys.path.insert(0, str(work / "change" / "bench"))
    from checks import mml_threshold, seo_threshold
    from workloads import make_config
    mml = make_config("mml-search", 901, 0)["parameters"]
    configs = []
    for kind, base, threshold in (("seo", SEO_BASE, seo_threshold),
                                  ("mml", mml, mml_threshold)):
        # the Theta_PH whose steady thermal shift Theta_PH*L0*A_H0/kappa_m
        # is -0.1 omega_m at 2 L*: its probes run the whole law, unhalted
        # by the thermal-frequency guard
        small = -0.1 * base["omega_m"] * base["kappa_m"] \
            / (2.0 * threshold(base) * base["a_h0"])
        grid = [(f, t) for f in L0_FACTORS for t in (0.0, small)]
        for factor, theta_ph in grid + [(1.0, HALTING_THETA_PH)]:
            params = dict(base, l0_factor=factor, theta_ph=theta_ph)
            configs.append([f"{kind}_l{factor:g}_t{theta_ph:g}",
                            {"experiment": kind, "seed": 0,
                             "parameters": params}])
    configs += [[f"mml-search_4242_{i}", make_config("mml-search", 4242, i)]
                for i in range(20)]
    configs += [["lattice-chain_901_0", make_config("lattice-chain", 901, 0)],
                ["adler-sweep_901_0", make_config("adler-sweep", 901, 0)]]
    return configs + OTHER_CONFIGS


def manifest_fields(path):
    """(fields, version) of a manifest: every field but timestamp and
    version, those of ``derived`` as ``derived.<key>``, each as JSON text."""
    manifest = json.loads(path.read_text())
    del manifest["timestamp"]
    version = manifest.pop("version")
    fields = {f"derived.{k}": v for k, v in manifest.pop("derived").items()}
    fields.update(manifest)
    return {k: json.dumps(v, sort_keys=True) for k, v in fields.items()}, \
        version


def table_difference(a, b):
    """Per column, the largest |a - b| over the column's largest |a|, for
    two numeric tables of one header and shape; None for any other pair,
    such as the noise table, whose first column holds names."""
    header_a, header_b = (p.read_text().partition("\n")[0] for p in (a, b))
    try:
        x, y = np.loadtxt(a, ndmin=2), np.loadtxt(b, ndmin=2)
    except ValueError:
        return None
    if header_a != header_b or x.shape != y.shape:
        return None
    sizes = {}
    for name, col_a, col_b in zip(header_a.lstrip("# ").split(), x.T, y.T):
        diff, scale = np.max(np.abs(col_a - col_b)), np.max(np.abs(col_a))
        sizes[name] = float(diff / scale) if scale > 0.0 \
            else (0.0 if diff == 0.0 else float("inf"))
    return sizes


def byte_identity(work):
    configs = identity_configs(work)
    (work / "configs.json").write_text(json.dumps(configs))
    for side in SIDES:
        run_dir = work / f"identity-{side}"
        (run_dir / "configs").mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(work / side / "src"))
        subprocess.run([sys.executable, "-c", IDENTITY_DRIVER,
                        str(work / "configs.json")], cwd=run_dir, env=env,
                       check=True, capture_output=True)
    compared, differing, versions = 0, [], {side: set() for side in SIDES}
    sizes = {}
    for name, _ in configs:
        parent_dir = work / "identity-parent" / "out" / name
        change_dir = work / "identity-change" / "out" / name
        files = sorted(p.name for p in parent_dir.iterdir())
        if files != sorted(p.name for p in change_dir.iterdir()):
            differing.append(f"{name}: file names")
            continue
        for file in files:
            compared += 1
            a, b = parent_dir / file, change_dir / file
            if file.endswith("_manifest.json"):
                (fields_a, version_a), (fields_b, version_b) = (
                    manifest_fields(a), manifest_fields(b))
                versions["parent"].add(version_a)
                versions["change"].add(version_b)
                keys = sorted(k for k in fields_a.keys() | fields_b.keys()
                              if fields_a.get(k) != fields_b.get(k))
                if keys:
                    differing.append(f"{name}/{file}: {', '.join(keys)}")
            elif a.read_bytes() != b.read_bytes():
                differing.append(f"{name}/{file}")
                sizes[f"{name}/{file}"] = table_difference(a, b)
    return {"protocol": "each config run through ringlock.cli.main on a git "
                        "archive of each side; every table compared byte for "
                        "byte, and every manifest minus timestamp and "
                        "version; a differing manifest is listed with the "
                        "fields that differ",
            "configs": "seo (tests/test_cli.py SEO_BASE at 300 cycles x 50 "
                       "steps) and mml (mml-search seed 901 op 0), each at "
                       "l0_factor in {0.5, 0.7, 0.95, 1.0, 1.05, 1.3, 2.0} x "
                       "theta_ph in {0, -0.1 omega_m kappa_m/(2 L* a_h0)} "
                       "(a steady thermal shift of -0.1 omega_m at 2 L*; "
                       "-0.398 for seo, -2.911 for mml), and at l0_factor "
                       "1.0 x theta_ph -2e3 (halts on the thermal-frequency "
                       "guard, with a domain_note): 30 configs; mml-search "
                       "seed 4242 ops 0-19; lattice-chain and adler-sweep "
                       "seed 901 op 0; one comb, pulse and noise config; a "
                       "periodic lattice (N = 16, burn-in 17, every 7th "
                       "step sampled, every 101st recorded)",
            "versions": {side: sorted(v) for side, v in versions.items()},
            "files_compared": compared, "files_differing": differing,
            "table_differences": sizes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True,
                        help="first-last, inclusive")
    parser.add_argument("--work", required=True, type=Path,
                        help="an empty or absent scratch directory")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = range(first, last + 1)
    seconds = BENCHMARK["run_seconds"]

    revisions = {}
    for side in SIDES:
        rev = git("rev-parse", getattr(args, side))
        revisions[side] = rev
        export(rev, args.work / side)
    record = {
        "label": args.label,
        "what": git("log", "-1", "--format=%s", revisions["change"]),
        "env": {"nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "loadavg_start": list(os.getloadavg())},
        "revisions": revisions,
        "command": f"python3 bench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"seeds {args.seeds}; one pair per seed and workload, "
                    "the workloads interleaved pair by pair; the side that "
                    "runs first alternates with the seed; each side runs "
                    "from a git archive of its revision; spread is the "
                    "quartile distance over the median",
    }
    log("byte identity")
    record["byte_identity"] = byte_identity(args.work)
    log("kernels")
    record["kernels"] = kernels(args.work)
    log("traced mml-search")
    record["traced_mml_search"] = traced(args.work, first, seconds)
    record["pairs"] = run_pairs(args.work, seeds, seconds)
    record["env"]["loadavg_end"] = list(os.getloadavg())
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
