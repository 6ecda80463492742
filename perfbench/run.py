"""Benchmark for jcsubdyn: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with the package unmodified;
``--trace 1`` wraps the package's layer entry points and reports the
per-layer metrics.  ``--workload all`` runs every workload in both modes,
each in its own process.  Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  End-to-end op
times and ``setup_s`` are scaled to the reference machine's speed with a
calibration load timed after each op (``calibrate.py``).  Metric names and
units come from ``BENCHMARK.json``.  Run records (drawn inputs, environment,
op times, spans) go to ``.perfbench/results/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: One BLAS thread (nproc is 2 on the reference machine): the ops are
#: single-request and small-matrix, and a second thread on a shared machine
#: mostly adds run-to-run spread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("figure1", "oracle", "sweep")
SETUP_REPEATS = 11
OVERRUN_OPS = 4
#: Share of the untraced op that may lie outside every top-level span, on
#: top of the tracing overhead, before a traced run is marked incorrect.
COVERAGE_TOL = 0.01
#: Share of each op's time spent on the calibration load after it.
CALIBRATION_SHARE = 0.1

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import jcsubdyn; "
                "print(time.perf_counter() - t0)")
OWN_IMPORT_PROBE = ("import time, numpy; t0 = time.perf_counter(); import jcsubdyn; "
                    "print(time.perf_counter() - t0)")


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def median_probe(code: str, calibrator: calibrate.Calibrator,
                 repeats: int = SETUP_REPEATS) -> float:
    """Median seconds, at reference speed, reported by ``code`` over fresh
    interpreters; the calibration load is timed after each."""
    env = _probe_env()
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(calibrate.at_reference_speed(float(out.stdout), calibrator.sample()))
    return statistics.median(samples)


def tail(times: list[float]):
    """(value, percentile, samples beyond): the highest percentile with ten
    samples beyond it.  Below 40 samples that percentile would fall under p75,
    so a quarter of the samples is left beyond it instead."""
    xs = sorted(times)
    n = len(xs)
    beyond = min(10, n // 4)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    import jcsubdyn

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": threads,
        "kernel_lane": jcsubdyn.active_lane(),
    }


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


class Run:
    """One workload in one trace mode: warm-up op, timed loop, checks."""

    def __init__(self, workload, traced: bool, calibrator: calibrate.Calibrator):
        self.workload = workload
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.calibrator = calibrator
        self.wall_times = []     # untraced op seconds (successful ops only)
        self.times = []          # the same at reference speed
        self.unit_s = []         # calibration unit seconds after each timed op
        self.traced_times = []   # root-span seconds of traced ops
        self.tracer = None
        if traced:
            import spans
            self.tracer = spans.Tracer()

    def op(self, traced: bool = False):
        """Run and check one op; returns its seconds, or None if it failed."""
        self.attempted += 1
        try:
            if traced:
                seconds, result = self.tracer.run_op(self.workload.op)
            else:
                t0 = time.perf_counter()
                result = self.workload.op()
                seconds = time.perf_counter() - t0
            ok = self.workload.check(result)
        except Exception:  # an op that raises is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            return None
        return seconds

    def measure(self, seconds: float):
        self.first_op_s = self.op()
        deadline = time.perf_counter() + seconds
        i = 0
        # Past the deadline, keep going only until each timed kind has one
        # successful op, and give up if ops keep failing.
        while time.perf_counter() < deadline or (
                i < OVERRUN_OPS and (not self.times or (self.traced and not self.traced_times))):
            traced = self.traced and i % 2 == 1
            dt = self.op(traced)
            if dt is not None:
                unit_s = self.calibrator.sample(CALIBRATION_SHARE * dt)
                self.unit_s.append(unit_s)
                if traced:
                    self.traced_times.append(dt)
                else:
                    self.wall_times.append(dt)
                    self.times.append(calibrate.at_reference_speed(dt, unit_s))
            i += 1

    def alloc_probe_mb(self) -> float:
        """Peak tracemalloc MB inside observable_series, over one extra op."""
        import tracemalloc

        from jcsubdyn import analysis

        original = analysis.observable_series
        peaks = [0]

        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        analysis.observable_series = probed
        try:
            self.op()
        finally:
            analysis.observable_series = original
        return max(peaks) / 2**20


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    tail_s, pct, beyond = tail(run.times)
    values = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(run.times),
        "op_s.tail": tail_s,
        "points_per_s": run.workload.points * len(run.times) / sum(run.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": run.failed / run.attempted,
    }
    notes = {"op_s.tail": f"p{pct:.1f} of {len(run.times)} ops, {beyond} beyond"}
    return values, notes


def per_layer(run: Run, own_import_s: float, alloc_mb: float) -> tuple[dict, dict]:
    import spans

    profiles = spans.op_profiles(run.tracer.spans)

    def med(fn):
        return statistics.median(fn(p, c) for p, c in zip(profiles, run.tracer.counts))

    def field(name, i):
        return lambda p, c: p[name][i] if name in p else 0.0

    def per_s(count, span):
        return lambda p, c: c[count] / p[span][1] if p.get(span, [0, 0.0])[1] > 0 else 0.0

    def per_call_ms(span):
        return lambda p, c: 1e3 * p[span][1] / p[span][0] if span in p else 0.0

    untraced_p50 = statistics.median(run.wall_times)
    overhead = statistics.median(run.traced_times) / untraced_p50 - 1.0
    # The top-level spans (the root's direct children: its duration less its
    # self time) must account for the untraced op within the tracing overhead.
    root = spans.ROOT_SPAN
    coverage_gap = med(lambda p, c: p[root][1] - p[root][2]) / untraced_p50 - 1.0
    values = {
        "cli.emit_output.s": med(field("cli.emit_output", 1)),
        "cli.emit_output.bytes": med(lambda p, c: c["cli.emit_output.bytes"]),
        "cli.emit_output.values": med(lambda p, c: c["cli.emit_output.values"]),
        "cli.self_s": med(field("cli.main", 2)),
        "kernels.channel_sums.s": med(field("kernels.channel_sums", 1)),
        "kernels.channel_sums.cells": med(lambda p, c: c["kernels.channel_sums.cells"]),
        "kernels.channel_sums.cells_per_s": med(per_s("kernels.channel_sums.cells",
                                                      "kernels.channel_sums")),
        "kernels.channel_sums.table_bytes": med(lambda p, c: c["kernels.channel_sums.table_bytes"]),
        "analysis.observable_series.self_s": med(field("analysis.observable_series", 2)),
        "analysis.observable_series.peak_alloc_mb": alloc_mb,
        "analysis.collapse_revival_features.s": med(field("analysis.collapse_revival_features", 1)),
        "analysis.conservation_audit.s": med(field("analysis.conservation_audit", 1)),
        "subdyn.effective_operator.calls": med(field("subdyn.effective_operator", 0)),
        "subdyn.effective_operator.s": med(field("subdyn.effective_operator", 1)),
        "subdyn.effective_operator.per_call_ms": med(per_call_ms("subdyn.effective_operator")),
        "subdyn.propagator.calls": med(field("subdyn.propagator", 0)),
        "subdyn.propagator.s": med(field("subdyn.propagator", 1)),
        "subdyn.SpectralPropagator.init_s": med(field("subdyn.SpectralPropagator.init", 1)),
        "numerics.require_unitary.calls": med(field("numerics.require_unitary", 0)),
        "numerics.require_unitary.s": med(field("numerics.require_unitary", 1)),
        "numerics.eigh_hermitian.s": med(field("numerics.eigh_hermitian", 1)),
        "jcm.hamiltonian.s": med(field("jcm.hamiltonian", 1)),
        "hilbert.coherent_state.calls": med(field("hilbert.coherent_state", 0)),
        "hilbert.coherent_state.s": med(field("hilbert.coherent_state", 1)),
        "setup.import_s": own_import_s,
        "wall.op_s.p50": untraced_p50,
        "calibration.unit_s": statistics.median(run.unit_s),
        "setup.first_op_excess_s": (run.first_op_s or 0.0) - untraced_p50,
        "subdyn.oracle_dev_max": run.workload.oracle_dev_max,
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": med(field(root, 2)) / untraced_p50,
        "failed_frac": run.failed / run.attempted,
    }
    names = sorted({n for p in profiles for n in p})
    breakdown = {n: {"calls": med(field(n, 0)), "total_s": med(field(n, 1)),
                     "self_s": med(field(n, 2))} for n in names}
    notes = {"coverage_gap_frac": coverage_gap,
             "coverage_ok": abs(coverage_gap) <= abs(overhead) + COVERAGE_TOL,
             "untraced_op_s.p50": untraced_p50,
             "traced_ops": len(run.traced_times), "untraced_ops": len(run.wall_times),
             "self_time_breakdown": breakdown}
    return values, notes


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "jcsubdyn", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    specs = load_metric_specs()
    sys.path.insert(0, SRC)
    import workloads

    traced = args.trace == 1
    calibrator = calibrate.Calibrator()
    setup_s = median_probe(IMPORT_PROBE, calibrator) if not traced else None
    own_import_s = median_probe(OWN_IMPORT_PROBE, calibrator) if traced else None

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        run = Run(workload, traced, calibrator)
        run.measure(args.seconds)
        if not run.times or (traced and not run.traced_times):
            print(f"perfbench: no {args.workload} op passed its check", file=sys.stderr)
            return 1
        if traced:
            alloc_mb = run.alloc_probe_mb()
            values, notes = per_layer(run, own_import_s, alloc_mb)
        else:
            values, notes = end_to_end(run, setup_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0 and (not traced or notes["coverage_ok"])
    units = specs[args.trace]
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "drawn": workload.drawn, "environment": environment(),
              "values": values, "notes": notes, "op_times_s": run.times,
              "wall_op_times_s": run.wall_times, "calibration_unit_s": run.unit_s,
              "traced_op_times_s": run.traced_times, "first_op_s": run.first_op_s,
              "attempted": run.attempted, "failed": run.failed}
    if traced:
        record["missing_entry_points"] = run.tracer.missing
        record["spans"] = {"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                           "rows": run.tracer.spans}
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"drawn {json.dumps(workload.drawn, sort_keys=True)}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, value in values.items():
        unit = units.get(name, "1")
        note = notes.get(name, "")
        print(f"  {name:<42} {value:>16.6g} {unit:<6} {note}")
    if traced:
        print(f"  top-level spans vs untraced op_s.p50 {notes['untraced_op_s.p50']:.6g} s: "
              f"gap {notes['coverage_gap_frac']:+.4f}, allowed |overhead| + {COVERAGE_TOL:g}"
              f" -> {'ok' if notes['coverage_ok'] else 'FAILED'}")
        print(f"  self time per op (median over {len(run.traced_times)} traced ops):")
        for name, e in sorted(notes["self_time_breakdown"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<40} calls {e['calls']:>6g}  total {e['total_s']:.6f} s"
                  f"  self {e['self_s']:.6f} s")
    print(f"  checks: {run.attempted - run.failed}/{run.attempted} ops passed; "
          f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
