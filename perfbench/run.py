#!/usr/bin/env python3
"""cardioct benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mono3d_forward --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (set-up time, headline
call time, peak memory, share of headline calls that passed their gate),
measured with tracing off.  Times are medians of times rescaled to a
reference host speed by a calibration loop run around each group of
calls (``calibrate.py``); the raw medians are printed too.  With
``--trace 1`` it prints the per-layer metrics of ``tracing.PER_LAYER``
and writes every recorded span to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
headline call passed its gate, 1 when one did not, and 2 when the
benchmark could not start (for instance without the package sources
under ``src/``).  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS/OpenMP thread: a single-threaded baseline is the steadiest on a
# shared machine and keeps reductions, hence CG iteration counts, in a fixed
# order.  It is set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"

# Set-up is repeated until both floors are met, in groups of at least
# SETUP_GROUP_S between calibrations, and its median reported.
SETUP_MIN_REPS = 10
SETUP_MIN_S = 5.0
SETUP_GROUP_S = 0.2
# The fewest timed headline calls a run makes, whatever --seconds says.
MIN_CALLS = 3
MIN_TRACED_CALLS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import cardioct from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import cardioct

    where = Path(cardioct.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"cardioct was imported from {where}, not from {SRC}")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


class Bench:
    """One workload at one seed: set-up, gated headline calls, timings.

    A calibration block (``calibrate.py``) runs before and after every
    timed group of calls; a raw time times ``reference_s`` over the mean
    of the two blocks' median loop times gives it in seconds at the
    calibration's reference speed.
    """

    def __init__(self, workload, seed, gate, ref):
        import calibrate

        self.workload = workload
        self.seed = seed
        self.gate = gate
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.inputs = None
        self.calibration = calibrate.Calibration()
        self.reference_s = calibrate.REFERENCE_S

    def build(self):
        """Build the problem once; returns the time it took."""
        self.inputs = None
        t0 = time.perf_counter()
        self.inputs = self.workload.build(self.seed)
        return time.perf_counter() - t0

    def call(self, tracer=None):
        """One gated headline call; returns its duration (None if it raised).

        With a tracer, only the call itself is traced, not its gate.
        """
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = self.workload.run(self.inputs)
                elapsed = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        failures = self.workload.check(self.inputs, out, self.gate, self.ref)
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"gate failed: {self.workload.name}: {msg}", file=sys.stderr)
        return elapsed

    def sample(self, fn, seconds, min_samples, group_s=0.0):
        """Time ``fn`` for ``seconds`` and at least ``min_samples`` calls.

        ``fn`` returns its own duration (None on failure, which ends the
        sampling).  Calls run in groups of at least ``group_s`` seconds
        with a calibration block before and after each group, so every
        time is rescaled by the host speed around the moment it was
        measured.  Returns the raw times, the rescaled times and the
        median loop time of every calibration block.
        """
        raw, scaled = [], []
        loops = [statistics.median(self.calibration.measure())]
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed is not None and (
            len(raw) < min_samples or time.perf_counter() - start < seconds
        ):
            gc.collect()
            group = []
            group_start = time.perf_counter()
            while True:
                elapsed = fn()
                if elapsed is None:
                    break
                group.append(elapsed)
                if time.perf_counter() - group_start >= group_s:
                    break
            before = loops[-1]
            loops.append(statistics.median(self.calibration.measure()))
            loop_s = (before + loops[-1]) / 2.0
            raw += group
            scaled += [t * self.reference_s / loop_s for t in group]
        return raw, scaled, loops


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def run_untraced(bench, seconds):
    import resource

    setup = bench.sample(bench.build, SETUP_MIN_S, SETUP_MIN_REPS, SETUP_GROUP_S)
    bench.call()  # untimed: pays for lazy imports and first-call costs
    solve = bench.sample(bench.call, seconds, MIN_CALLS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error_rate = bench.failed / bench.attempted
    for label, (raw, scaled, loops) in (("setup", setup), ("solve", solve)):
        if raw:
            print(f"{label} time: n {len(raw)} raw median {statistics.median(raw):.6f} "
                  f"min {min(raw):.6f} max {max(raw):.6f} s, rescaled median "
                  f"{statistics.median(scaled):.6f} s; calibration: n {len(loops)} median "
                  f"{statistics.median(loops):.6f} s, reference {bench.reference_s} s")
    print(f"error_rate = {error_rate} ratio ({bench.failed} of {bench.attempted} calls)")
    return {
        "setup_s": (median_or_nan(setup[1]), "s"),
        "solve_s": (median_or_nan(solve[1]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - error_rate, "ratio"),
    }


def run_traced(bench, seconds):
    import tracing

    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        bench.build()
    segments = [("setup", setup_tracer)]

    bench.call()  # untimed warm-up, as in the untraced run
    _, untraced, _ = bench.sample(bench.call, seconds / 2, MIN_TRACED_CALLS)

    per_call = []

    def traced_call():
        tracer = tracing.Tracer()
        elapsed = bench.call(tracer)
        if elapsed is not None:
            segments.append((f"call{len(per_call)}", tracer))
            per_call.append(tracing.layer_metrics(tracer))
        return elapsed

    _, traced, _ = bench.sample(traced_call, seconds / 2, MIN_TRACED_CALLS)

    metrics = {}
    for key, unit in tracing.PER_LAYER.items():
        values = [m[key] for m in per_call if key in m]
        if key in tracing.COUNT_METRICS:
            if len(set(values)) > 1:
                bench.failed += 1
                print(f"trace counts differ between identical calls: {key} {values}",
                      file=sys.stderr)
            metrics[key] = (values[0] if values else 0, unit)
        elif values:
            metrics[key] = (statistics.median(values), unit)
    _, setup_total, _ = tracing.span_totals(setup_tracer.spans)
    metrics["assembly.build_operators.s"] = (setup_total["assembly.build_operators"], "s")
    metrics["trace.overhead_ratio"] = (median_or_nan(traced) / median_or_nan(untraced), "ratio")

    if per_call:
        shares = tracing.self_time_by_parent(segments[1][1].spans)
        total = sum(shares.values())
        print("self time of the first traced call, by span <- parent span:")
        for (name, parent), t in sorted(shares.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  {t / total:6.1%} {t:9.4f} s  {name} <- {parent}")
    return metrics, segments


def write_spans(path, env, args, segments):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "span_fields": ["name", "start", "end", "parent"],
        "segments": [{"label": label, "spans": t.spans, "counters": dict(t.counters)}
                     for label, t in segments],
    }
    path.write_text(json.dumps(doc))


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import cardioct: {exc}", file=sys.stderr)
        return 2

    # imported only now: they import numpy, which must see the thread settings
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    ref = reference["seeds"].get(str(args.seed))
    bench = Bench(workloads.WORKLOADS[args.workload](), args.seed, reference["gate"], ref)

    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} "
          f"reference {'recorded' if ref is not None else 'not recorded'} for this seed")

    if args.trace:
        metrics, segments = run_traced(bench, args.seconds)
        spans_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        write_spans(spans_path, env, args, segments)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = run_untraced(bench, args.seconds)

    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
