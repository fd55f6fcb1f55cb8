"""Repeated ``ringlock run`` operations in one fresh interpreter.

    python3 bench/child.py WORKLOAD SEED FIRST_OP CHILD_DIR DEADLINE LAUNCHED [--trace]

``LAUNCHED`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from there to the first layer call.  The
child then runs operations ``FIRST_OP``, ``FIRST_OP + 1``, ... back to
back, each one ``ringlock.cli.main(["run", CONFIG, "--out", DIR])`` on the
config ``workloads.make_config`` draws for it, and starts another while
its median time still fits before ``DEADLINE`` (a ``time.monotonic()``
value).  The first operation always runs.  Operation ``k`` writes its
config and outputs under ``CHILD_DIR/op-kkkk/``.  The result file
``CHILD_DIR/result.json`` is rewritten after every operation, so a child
that dies still leaves the operations it finished.

Untraced, only the coarse layer entry points are wrapped, to stamp the
first layer call.  Traced, each layer function is replaced by a timing
wrapper under the name its caller looks it up by: hot per-step functions
get aggregated call counts and times, coarse calls get spans (name, start,
end, parent) kept in memory and written with the operation's result.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# (module, attribute, metric prefix, hot?)
WRAPPED = (
    ("lattice", "normal_draws", "engine.normal_draws", True),
    ("adler", "rk4_step", "engine.rk4_step", True),
    ("adler", "welch_psd", "engine.welch_psd", False),
    ("lattice", "run_lattice", "lattice.run_lattice", False),
    ("adler", "integrate_adler", "adler.integrate_adler", False),
    ("adler", "pd_spectrum_sweep", "adler.pd_spectrum_sweep", False),
    ("thermomech", "simulate", "thermomech.simulate", False),
    ("thermomech", "drive_intensity", "thermomech.drive_intensity", True),
    ("thermomech", "comb_closed", "comb.comb_closed", True),
    ("cli", "validate_config", "cli.validate_config", False),
    ("cli", "run_experiment", "cli.run_experiment", False),
    ("cli", "_write_table", "cli.tables", False),
)

# the first call into a physics layer that the CLI makes, per experiment
ENTRY_POINTS = (
    ("lattice", "run_lattice"),
    ("adler", "pd_spectrum_sweep"),
    ("thermomech", "mml_threshold"),
)


def _work_counts(prefix, args, kwargs, result, error):
    """Work done by one coarse call, read from its arguments and result."""
    if prefix == "lattice.run_lattice":
        config = args[0] if args else kwargs["config"]
        return {"steps": round(result.final_state.time / config.dt),
                "samples": result.n_samples}
    if prefix == "adler.integrate_adler":
        return {"steps": result.tau.size - 1}
    if prefix == "adler.pd_spectrum_sweep":
        return {"columns": result.v_am_grid.size}
    if prefix == "engine.welch_psd":
        return {"segments": result.segments}
    if prefix == "thermomech.simulate":
        bound = dict(zip(("mech", "absorption", "drive", "x0", "v0", "t_end",
                          "dt", "store_every"), args), **kwargs)
        if error is not None:
            # a halted probe counts its steps up to the last stored sample
            return {"steps": round(error.t / bound["dt"]), "halted": 1}
        return {"steps": round(bound["t_end"] / bound["dt"]), "halted": 0}
    if prefix == "cli.tables":
        columns = args[4] if len(args) > 4 else kwargs["columns"]
        return {"rows": len(columns[0]), "bytes": Path(result).stat().st_size}
    return {}


class Tracer:
    """Span and counter recorder for one process; lives until it exits."""

    def __init__(self, halt_error: type):
        self.halt_error = halt_error    # a probe that halts, not a failure
        self.first_layer = None
        self.spans = []    # [name, start, end, parent span index or None]
        self.stats = {}    # prefix -> {"calls", "s", "self_s", counts...}
        self.stack = []    # open spans: [span index, time in children]
        self.hot_depth = [0]   # hot calls currently open

    def take(self):
        """Return and reset the spans and counters of the last operation."""
        spans, self.spans = self.spans, []
        stats = {prefix: dict(s) for prefix, s in self.stats.items()}
        for s in self.stats.values():   # the wrappers hold these dicts
            s.clear()
            s.update(calls=0, s=0.0, self_s=0.0)
        return spans, stats

    def entry(self, fn):
        def wrapper(*args, **kwargs):
            if self.first_layer is None:
                self.first_layer = time.monotonic()
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, fn, prefix, hot):
        stats = self.stats.setdefault(prefix,
                                      {"calls": 0, "s": 0.0, "self_s": 0.0})
        clock = time.perf_counter
        stack = self.stack

        if hot:
            depth = self.hot_depth

            def wrapper(*args, **kwargs):
                depth[0] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    depth[0] -= 1
                    stats["calls"] += 1
                    stats["s"] += dur
                    # only the outermost hot call counts as the span's child
                    if not depth[0] and stack:
                        stack[-1][1] += dur
            return wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            index = len(self.spans)
            self.spans.append([prefix, None, None, parent])
            frame = [index, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.spans[index][1:3] = [start, end]
                stats["calls"] += 1
                stats["s"] += dur
                stats["self_s"] += dur - frame[1]
                if error is None or isinstance(error, self.halt_error):
                    counts = _work_counts(prefix, args, kwargs, result, error)
                    for key, value in counts.items():
                        stats[key] = stats.get(key, 0) + value
        return wrapper

    def install(self, modules, traced: bool):
        if traced:
            for mod, attr, prefix, hot in WRAPPED:
                fn = getattr(modules[mod], attr, None)
                if fn is not None:
                    setattr(modules[mod], attr, self.timed(fn, prefix, hot))
        for mod, attr in ENTRY_POINTS:
            fn = getattr(modules[mod], attr, None)
            if fn is not None:
                setattr(modules[mod], attr, self.entry(fn))


def main(argv):
    workload, seed, first_op, child_dir, deadline, launched = argv[:6]
    traced = "--trace" in argv[6:]
    seed, index, deadline = int(seed), int(first_op), float(deadline)
    child_dir = Path(child_dir)
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import ringlock
    from ringlock import adler, cli, lattice, thermomech
    import_s = time.perf_counter() - t0
    if not Path(ringlock.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported ringlock from {ringlock.__file__}, "
                         f"not from {src}")
    import workloads

    tracer = Tracer(thermomech.InstabilityError)
    tracer.install({"adler": adler, "cli": cli, "lattice": lattice,
                    "thermomech": thermomech}, traced)
    result = {"import_s": import_s, "setup_s": None, "peak_rss_kib": None,
              "ops": []}
    result_path = child_dir / "result.json"
    times = []
    while not times or time.monotonic() + median(times) <= deadline:
        op_dir = child_dir / f"op-{index:04d}"
        op_dir.mkdir(parents=True)
        config_path = op_dir / "config.json"
        config_path.write_text(json.dumps(
            workloads.make_config(workload, seed, index), indent=1))
        t0 = time.perf_counter()
        try:
            code = cli.main(["run", str(config_path),
                             "--out", str(op_dir / "out")])
        except Exception:
            traceback.print_exc()
            code = "exception"
        run_s = time.perf_counter() - t0
        if result["peak_rss_kib"] is None:
            # the peak of one `ringlock run` process: set-up plus one run
            result["peak_rss_kib"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            if tracer.first_layer is not None:
                result["setup_s"] = tracer.first_layer - float(launched)
        spans, stats = tracer.take()
        result["ops"].append({"index": index, "code": code, "run_s": run_s,
                              "stats": stats, "spans": spans})
        result_path.write_text(json.dumps(result))
        if code != 0:
            return 1
        times.append(run_s)
        index += 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
