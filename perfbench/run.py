#!/usr/bin/env python3
"""hstorsion benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  ``--trace 0`` measures the end-to-end metrics with the library
untouched, next to a speed probe (see probe.py); ``--trace 1`` runs a fixed number of units untraced and the same
number traced (see tracing.py) and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Files go to
``.bench_build/perfbench/``.  See README.md in this directory.
"""

import os

# BLAS threads are pinned before numpy loads: on a 2-core machine a second
# thread made the flow slower and its timings spread wider (13-15 s with one
# thread, 16-21 s with two).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5

# A unit's CPU time is reported in probe CPU times (see probe.py), which the
# host's changes of speed cancel out of.  Wall time in probe times and the
# times in seconds are printed beside it without a bound.
END_TO_END = [("setup_s", "s"), ("cpu_rel", "probe"), ("peak_rss_mb", "MB")]


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def workload_rng(name, seed):
    import numpy as np
    return np.random.default_rng(zlib.crc32(f"{name}:{seed}".encode()))


def import_library():
    """Import the benchmark's workloads and, with them, numpy and hstorsion
    from ``src/``; nothing above this point loads them, so that a set-up
    probe times the imports."""
    if not (SRC / "hstorsion" / "__init__.py").is_file():
        raise SystemExit(f"error: no hstorsion sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports hstorsion
    return workloads


def setup_probe(name, seed):
    """Time of a cold set-up in this fresh process: import, parse and
    build_complex."""
    t0 = time.perf_counter()
    workloads = import_library()
    out = OUT / f"{name}-seed{seed}-probe"
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](workload_rng(name, seed), out)
    wl.setup()
    print(repr(time.perf_counter() - t0))


def measure_setup(name, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


class Phase:
    """Outcome counts of every op run, and the timings of the ops and units
    since the last ``reset_timings``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reset_timings()

    def reset_timings(self):
        self.unit_wall = []
        self.unit_cpu = []
        self.unit_probes = []
        self.op_s = []

    def run_unit(self, ops, tracer=None, probe=None):
        """Run and time the ops, less any probe time inside them; return
        their results for checking, which happens outside any traced span
        and while the probe is paused."""
        wall = cpu = 0.0
        outcomes = []
        first = len(probe.samples) if probe is not None else 0
        if probe is not None:
            probe.resume()
        for op in ops:
            if tracer is not None:
                tracer.op = self.attempted
            since = len(probe.samples) if probe is not None else 0
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:  # an unexpected exception is a failed op
                result, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            c1 = cpu_seconds()
            in_wall, in_cpu = (probe.spent(since, t0, t1) if probe is not None
                               else (0.0, 0.0))
            dt = t1 - t0 - in_wall
            cpu += c1 - c0 - in_cpu
            wall += dt
            self.attempted += 1
            self.op_s.append(dt)
            outcomes.append((op, result, error))
        if probe is not None:
            probe.pause()
            self.unit_probes.append([(w, c) for _, w, c in probe.samples[first:]])
        self.unit_wall.append(wall)
        self.unit_cpu.append(cpu)
        return wall, outcomes

    def check(self, outcomes):
        for op, result, error in outcomes:
            problems = [error] if error else op.check(result)
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def run_units(wl, rng, phase, *, seconds=None, count=None, tracer=None,
              probe=None):
    """Run whole units until ``count`` are done, or until the next one is
    expected to end past ``seconds`` of measured time (at least one).
    Returns the measured time."""
    elapsed = 0.0
    for k in itertools.count():
        ops = wl.unit(rng, k)
        if tracer is not None:
            tracer.install()
        last, outcomes = phase.run_unit(ops, tracer, probe)
        if tracer is not None:
            tracer.uninstall()
        gc.collect()  # free the unit's cyclic garbage before the checks allocate
        phase.check(outcomes)
        elapsed += last
        if count is not None and k + 1 >= count:
            return elapsed
        if count is None and elapsed + last > seconds:
            return elapsed


def warm_up(wl, rng, phase):
    """One untimed unit, so that lazy imports and first-call set-up inside
    numpy and scipy are not timed; the sweep only, where a unit is short."""
    if wl.warmup:
        run_units(wl, rng, phase, count=1)
        phase.reset_timings()
        wl.results.clear()


def percentile(values, pct):
    """Linear-interpolated percentile; pct 100 is the maximum."""
    if pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] \
        if len(values) > 1 else values[0]


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hstorsion").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def end_to_end(workload, name, seed, seconds, out):
    from probe import SpeedProbe, relative

    setup_s, setup_samples = measure_setup(name, seed)
    rng = workload_rng(name, seed)
    wl = workload(rng, out)
    wl.setup()
    phase = Phase()
    warm_up(wl, rng, phase)
    probe = SpeedProbe()
    try:
        elapsed = run_units(wl, rng, phase, seconds=seconds, probe=probe)
    finally:
        probe.close()
    wall_rel, windows = relative(phase.unit_wall, [[w for w, _ in u]
                                                   for u in phase.unit_probes])
    cpu_rel, _ = relative(phase.unit_cpu, [[c for _, c in u]
                                           for u in phase.unit_probes])
    values = {
        "setup_s": setup_s,
        "cpu_rel": cpu_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ms = [s * 1e3 for s in phase.op_s]
    tail = percentile(ms, wl.tail_pct)
    probe_ms = [w * 1e3 for _, w, _ in probe.samples]
    unbounded = {
        "wall_rel": (wall_rel, "probe"),
        "wall_s": (statistics.median(phase.unit_wall), "s"),
        "cpu_s": (statistics.median(phase.unit_cpu), "s"),
        "ops_per_s": (len(ms) / elapsed, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "probe_ms": (statistics.median(probe_ms), "ms"),
    }
    detail = {
        "setup_samples_s": setup_samples,
        "unit": wl.unit_label,
        "units": len(phase.unit_wall),
        "measured_s": elapsed,
        "probes": len(probe_ms),
        "probe_windows": windows,
        "op_tail": {"percentile": wl.tail_pct, "samples": len(ms),
                    "beyond": sum(1 for v in ms if v > tail)},
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return phase, metrics, detail, wl, unbounded


def traced(workload, name, seed, out):
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    rng = workload_rng(name, seed)
    wl = workload(rng, out)
    tracer.install()
    wl.setup()
    tracer.uninstall()
    phase = Phase()
    warm_up(wl, rng, phase)
    untraced_s = traced_s = 0.0
    for _ in range(wl.trace_units):  # alternate, so host speed drifts hit both
        untraced_s += run_units(wl, rng, phase, count=1)
        traced_s += run_units(wl, rng, phase, count=1, tracer=tracer)
    values = tracer.layer_metrics()
    missing = [layer for layer in wl.layers if values[f"{layer}.calls"] < 1]
    if missing:
        phase.problems.append(f"no calls recorded for {missing}")
    values.update({
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    })
    tracer.dump(out / "spans.json")
    metrics = {m: (values[m], unit) for m, unit, _ in LAYER_METRICS}
    detail = {
        "unit": wl.unit_label,
        "units": wl.trace_units,
        "traced_ops": len(phase.op_s) // 2,
        "scope": "one traced set-up plus the traced units",
        "overhead_frac": traced_s / untraced_s - 1,
    }
    return phase, metrics, detail, wl, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    if args.trace:
        phase, metrics, detail, wl, unbounded = traced(
            wl, args.workload, args.seed, out)
    else:
        phase, metrics, detail, wl, unbounded = end_to_end(
            wl, args.workload, args.seed, args.seconds, out)
    correct = phase.failed == 0 and not phase.problems
    fail_frac = phase.failed / phase.attempted
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    unbounded = {k: {"value": v, "unit": u}
                    for k, (v, u) in unbounded.items()}
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "metrics": metrics, "unbounded": unbounded, "detail": detail,
              "fail_frac": fail_frac,
              "results": wl.results, "problems": phase.problems[:50],
              "samples": {"unit_wall_s": phase.unit_wall,
                          "unit_cpu_s": phase.unit_cpu, "op_s": phase.op_s,
                          "unit_probes_s": phase.unit_probes}}
    (out / "result.json").write_text(json.dumps(record, indent=1, default=repr))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    for res in wl.results[:2]:
        print("results " + json.dumps(res))
    for problem in phase.problems[:10]:
        print("PROBLEM " + problem.strip().replace("\n", " | "))
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']!r} {m['unit']}")
    for k, m in unbounded.items():
        print(f"{k:40s} {m['value']!r} {m['unit']} (no bound)")
    print(f"{'fail_frac':40s} {fail_frac!r} ({phase.failed} of {phase.attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
