"""Benchmark for ringlock: end-to-end and per-layer costs of four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs operations of one workload until ``--seconds`` of wall time are used.
An operation is one ``ringlock run CONFIG --out DIR`` through
``ringlock.cli.main``, on a config drawn from the seed and the operation's
index (``workloads.py``).  Operations run back to back, one at a time (a
closed loop with one client), in fresh child processes (``child.py``)
that each get a third of the time and run as many operations as fit.
Every operation's outputs are checked against values computed apart from
the program (``checks.py``).

``--trace 0`` runs untraced children and reports the mean ``run_s`` over
the operations and the medians of ``setup_s`` and ``peak_rss_mib`` over the
children.  ``--trace 1`` alternates untraced and traced children
and reports the medians of the per-layer metrics over the traced
operations, plus the tracing overhead as the difference of the mean traced
and untraced ``run_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard error.
Outputs go to ``bench_out/<workload>/`` under the repository root, and a
run summary with its environment and every operation's time is written
there as ``summary.json``.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

HARD_LIMIT_S = 170.0      # a child still running then is killed
CHILDREN_PER_RUN = 3      # each gets a third of --seconds: 3 or more set-ups
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# per-layer metrics: "<prefix>.<field>" for each prefix the child records
LAYERS = {
    "engine.normal_draws": ("calls", "s"),
    "engine.rk4_step": ("calls", "s"),
    "engine.welch_psd": ("calls", "s", "segments"),
    "lattice.run_lattice": ("s", "self_s", "steps", "samples", "us_per_step"),
    "adler.integrate_adler": ("calls", "s", "steps", "us_per_step"),
    "adler.pd_spectrum_sweep": ("s", "self_s", "columns"),
    "thermomech.simulate": ("calls", "s", "steps", "us_per_step", "halted"),
    "thermomech.drive_intensity": ("calls", "s"),
    "comb.comb_closed": ("calls", "s"),
    "cli.validate_config": ("s",),
    "cli.run_experiment": ("s", "self_s"),
    "cli.tables": ("bytes", "rows"),
}
UNITS = {"s": "s", "self_s": "s", "us_per_step": "us", "bytes": "bytes"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


class Runner:
    """Launches children one at a time and collects their operations."""

    def __init__(self, workload: str, seed: int, work_dir: Path,
                 seconds: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        start = time.monotonic()
        self.deadline = start + seconds
        self.hard_end = start + HARD_LIMIT_S
        self.slice = seconds / CHILDREN_PER_RUN
        self.children = 0
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []   # check failures, one string each
        self.lattice_values = []
        self.samples = []    # per-child timings, written to summary.json
        self.env = dict(os.environ, **CHILD_ENV)

    def launch(self, traced=False):
        """Run one child; return its record, or None if an operation failed.

        The record holds the child's set-up time and peak memory and its
        operations (``ops``), each with its own ``run_s`` and, traced, its
        layer counters.
        """
        child_dir = self.work_dir / f"child-{self.children:02d}"
        self.children += 1
        child_dir.mkdir(parents=True)
        launched = time.monotonic()
        deadline = min(self.deadline, launched + self.slice)
        cmd = [sys.executable, str(BENCH / "child.py"), self.workload,
               str(self.seed), str(self.next_op), str(child_dir),
               repr(deadline), repr(launched)]
        flags = ["--trace"] if traced else []
        timeout = max(1.0, self.hard_end - launched)
        proc = subprocess.Popen(cmd + flags, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=self.env,
                                cwd=ROOT, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            log(f"{child_dir.name} killed after {timeout:.0f} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall_s = time.monotonic() - launched
        result_path = child_dir / "result.json"
        result = json.loads(result_path.read_text()) \
            if result_path.exists() else {"setup_s": None, "ops": []}
        ops = result["ops"]
        done = [op for op in ops if op["code"] == 0]
        # an operation cut off by a crash or the time limit left no record
        lost = 0 if ops and ops[-1]["code"] != 0 else int(proc.returncode != 0)
        self.attempted += len(ops) + lost
        self.failed += len(ops) - len(done) + lost
        self.next_op += len(ops) + lost
        for op in done:
            op_dir = child_dir / f"op-{op['index']:04d}"
            config = json.loads((op_dir / "config.json").read_text())
            self.check(config, op_dir / "out", op_dir.name)
            shutil.rmtree(op_dir / "out", ignore_errors=True)
        if len(done) < len(ops) + lost or result["setup_s"] is None:
            log(f"{child_dir.name} failed (exit {proc.returncode}):\n"
                + err[-2000:])
            return None
        result["wall_s"] = wall_s
        self.samples.append(
            {key: result[key] for key in ("setup_s", "import_s",
                                          "peak_rss_kib", "wall_s")}
            | {"child": child_dir.name, "traced": traced,
               "run_s": [op["run_s"] for op in done]})
        log(f"{child_dir.name}: setup_s {result['setup_s']:.3f}, "
            f"{len(done)} ops, run_s "
            + " ".join(f"{op['run_s']:.3f}" for op in done)
            + (" traced" if traced else ""))
        return result

    def check(self, config, out_dir, name):
        if self.workload == "lattice-chain":
            values = checks.lattice_values(out_dir)
            found = checks.check_lattice(config, out_dir, values)
            self.lattice_values.append(values)
        elif self.workload == "adler-sweep":
            found = checks.check_adler(config, out_dir)
        else:
            found = checks.check_threshold(config, out_dir)
        self.failures += [f"{name}: {f}" for f in found]

    def check_pooled(self):
        """Check the lattice mean over all operations at a tighter tolerance."""
        n = len(self.lattice_values)
        if n < 2:
            return
        mean = {key: np.mean([v[key] for v in self.lattice_values],
                             axis=0).tolist()
                for key in ("diff_sq", "corr_re", "corr_im")}
        p = workloads.LATTICE_BASE
        found = checks.check_lattice_values(p["t_n"] / (2.0 * p["mu_m"]),
                                            mean, n)
        self.failures += [f"mean of {n} runs: {f}" for f in found]

    def run_children(self, alternate: bool = False) -> list:
        """Launch children while one more fits; stop at the first failure.

        A child that fits needs its set-up plus one operation, estimated by
        the medians so far.  With ``alternate``, every second child (the
        second, fourth, ...) is traced, and at least two run.
        """
        children = []
        while len(children) < (2 if alternate else 1) or \
                time.monotonic() + median(
                    [c["setup_s"] for c in children]) + median(
                    [op["run_s"] for c in children for op in c["ops"]]) \
                <= self.deadline:
            traced = alternate and len(children) % 2 == 1
            child = self.launch(traced)
            if child is None:
                break
            child["traced"] = traced
            children.append(child)
        self.check_pooled()
        return children


def per_op(children: list) -> float:
    """Mean ``run_s`` over all operations of the children.

    The work of an operation is fixed, so this is the run's time per
    operation, the inverse of its throughput.  The machine's speed swings
    over tens of seconds; the mean weighs every operation of the run and
    varies less between runs than the median (``README.md``).
    """
    times = [op["run_s"] for c in children for op in c["ops"]]
    return sum(times) / len(times)


def end_to_end(runner: Runner) -> dict:
    """Metrics of the untraced children; empty if one failed."""
    children = runner.run_children()
    if runner.failed or not children:
        return {}
    return {
        "run_s": (per_op(children), "s"),
        "setup_s": (median([c["setup_s"] for c in children]), "s"),
        "peak_rss_mib": (median([c["peak_rss_kib"] for c in children])
                         / 1024.0, "MiB"),
    }


def layer_value(stats: dict, prefix: str, field: str) -> float:
    stats = stats.get(prefix, {})
    if field == "us_per_step":
        return 1e6 * stats["s"] / stats["steps"] if stats.get("steps") else 0.0
    return stats.get(field, 0)


def per_layer(runner: Runner) -> dict:
    """Medians over the traced operations; empty if a child failed."""
    children = runner.run_children(alternate=True)
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    if runner.failed or not plain or not traced:
        return {}
    ops = [op["stats"] for c in traced for op in c["ops"]]
    metrics = {f"{prefix}.{field}": (
        median([layer_value(stats, prefix, field) for stats in ops]),
        UNITS.get(field, "count"))
        for prefix, fields in LAYERS.items() for field in fields}
    metrics["setup.import_s"] = (median([c["import_s"] for c in traced]), "s")
    metrics["setup.first_run_s"] = (
        median([c["ops"][0]["run_s"] for c in plain]), "s")
    run_traced, run_plain = per_op(traced), per_op(plain)
    metrics["trace.run_s"] = (run_traced, "s")
    metrics["trace.untraced_run_s"] = (run_plain, "s")
    metrics["trace.overhead_s"] = (run_traced - run_plain, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringlock" / "__init__.py").is_file():
        log(f"error: no ringlock sources under {SRC}")
        return 2
    for package in (SRC / "ringlock", BENCH):
        compileall.compile_dir(package, quiet=1)

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env_before = environment()
    runner = Runner(args.workload, args.seed, work_dir, args.seconds)
    metrics = (per_layer if args.trace else end_to_end)(runner)

    for failure in runner.failures:
        log(f"check failed: {failure}")
    # a child that crashed or was killed makes the run incorrect too, and
    # then leaves no timing of its own to stand in for a metric
    correct = not runner.failures and runner.failed == 0 and bool(metrics)
    summary = {"correct": correct, "attempted": runner.attempted,
               "failed": runner.failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    (work_dir / "summary.json").write_text(json.dumps(
        dict(summary, workload=args.workload, seed=args.seed,
             seconds=args.seconds, trace=args.trace,
             check_failures=runner.failures, children=runner.samples,
             env_start=env_before,
             env_end=environment()), indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
