"""Benchmark for rsdel: decode and certify workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` of that
checkout.  One invocation runs one workload in this single process, with one
closed-loop caller that waits for each result and no worker threads.

Workloads (inputs and shares in workloads.py):
  linear-valid  decode_linear on channel outputs, p=10007 n=512
  linear-mixed  decode_linear at p=2^61-1 n=64 with garbage, two-equal and
                constant words among channel outputs
  cubic-scan    decode_cubic alternating p=10007 n=512 and p=1073741789 n=96
  certify       check_injectivity plus audit_code on p=10007 n=150

--trace 0 generates the seeded inputs, then runs whole passes over them
until --seconds have elapsed, building the codes once before each pass and
checking every outcome.  On a shared 2-core VM, machine speed swings by up
to 1.8x for seconds to minutes at a time, so raw wall times spread far
beyond any useful regression bound.  The gated
timings are therefore expressed in calibration units: a fixed pure-Python
loop that uses no part of the package is timed between consecutive
operations, and each operation's latency is divided by the mean of the two
calibrations around it.  A co-tenant slowdown stretches both alike; a
slower package stretches only the latency.  An input's figure is the median
over passes of that ratio.  The last stdout line is JSON with the gated
end-to-end metrics, which every workload has:
  setup_s      time to build every code the workload uses: the median of
               builds spread over the run, in calibration units, times the
               run's fastest calibration
  pass_cal     one pass over the inputs: the sum of their figures
  op_p50_cal   median figure of the workload's main operation: a
               channel-output word for the decode workloads, one audited
               message pair for certify
  peak_rss_mb  peak resident memory of this process
The lines before it give plain-seconds figures, each input timed by its
fastest pass: pass_s, calibration_us (the fastest calibration), and
words_per_s, valid_p50_us, valid_p95_us and reject_p50_us for the decode
workloads or certify_s, audit_pairs_per_s, audit_p50_us and audit_p95_us
for certify, plus fail_frac.

--trace 1 runs one pass untraced and two passes traced (code builds
included), checks that every count repeats exactly between the two traced
passes and that the workload's baseline predictions hold, and reports the
per-layer metrics of the first traced pass.  Spans are written to
.perfbench/trace-<workload>-seed<seed>.json.  For certify, a further
check_injectivity under tracemalloc gives verify.check_injectivity.peak_mb.

Exit status: 0 when every outcome and self-check is right, 1 when one is
wrong (the result line still reports it), 2 when the package is missing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("linear-valid", "linear-mixed", "cubic-scan", "certify")
SETUP_REPEATS = 3   # builds before the first pass; one more precedes each pass
WARMUP_OPS = 4
CALIBRATION_STEPS = 2000


def p95(xs):
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


def calibration() -> float:
    """Time a fixed pure-Python loop that uses no part of the package."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc += i * i % 7
    return perf_counter() - t0


def run_pass(ops, specs, algo, tracer=None, inst=None, cals=None):
    """Run every operation once; return (latencies, failed count).

    Given a list `cals`, also time the calibration loop before the first
    operation and after each one, appending to it.
    """
    latencies = []
    failed = 0
    if cals is not None:
        cals.append(calibration())
    for word, op in enumerate(ops):
        if tracer:
            tracer.word = word
        spec = specs[op.code]
        t0 = perf_counter()
        result = workloads.call(op, spec, algo, inst)
        latencies.append(perf_counter() - t0)
        failed += not workloads.correct(op, result)
        if cals is not None:
            cals.append(calibration())
    return latencies, failed


def timed_build(wl):
    """Build the codes once; returns (build time in calibration units, the
    faster of the calibrations on either side)."""
    c0 = calibration()
    t0 = perf_counter()
    workloads.build_codes(wl)
    t = perf_counter() - t0
    c1 = calibration()
    return 2 * t / (c0 + c1), min(c0, c1)


def measure(wl, seed, seconds):
    """The end-to-end run: returns (attempted, failed, metrics, report lines)."""
    specs = workloads.build_codes(wl)
    builds = [timed_build(wl) for _ in range(SETUP_REPEATS)]
    ops = wl.generate(specs, random.Random(seed))
    run_pass([op for op in ops if op.kind == wl.primary][:WARMUP_OPS], specs, wl.algo)

    best = [float("inf")] * len(ops)        # seconds
    in_cal = [array("d") for _ in ops]      # calibration units, one per pass
    cal_min = min(c for _, c in builds)
    pass_walls = []
    attempted = failed = 0
    start = perf_counter()
    while not pass_walls or perf_counter() - start < seconds:
        gc.collect()
        builds.append(timed_build(wl))
        cals = []
        latencies, fails = run_pass(ops, specs, wl.algo, cals=cals)
        best = list(map(min, best, latencies))
        # each latency over the mean of the calibrations on either side of it
        for samples, t, a, b in zip(in_cal, latencies, cals, cals[1:]):
            samples.append(2 * t / (a + b))
        cal_min = min(cal_min, *cals, builds[-1][1])
        pass_walls.append(sum(latencies))
        attempted += len(ops)
        failed += fails
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    med_cal = [statistics.median(samples) for samples in in_cal]
    main_cal = [c for op, c in zip(ops, med_cal) if op.kind == wl.primary]
    metrics = {
        # the median build, in seconds at the run's fastest calibration
        "setup_s": (statistics.median(t for t, _ in builds) * cal_min, "s"),
        "pass_cal": (sum(med_cal), "cal"),
        "op_p50_cal": (statistics.median(main_cal), "cal"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    by_kind = {}
    for op, t in zip(ops, best):
        by_kind.setdefault(op.kind, []).append(t)
    main_s = by_kind[wl.primary]
    detail = {"fail_frac": (failed / attempted, "ratio"),
              "pass_s": (sum(best), "s")}
    if wl.algo:
        detail["words_per_s"] = (len(ops) / sum(best), "1/s")
        detail["valid_p50_us"] = (statistics.median(main_s) * 1e6, "us")
        detail["valid_p95_us"] = (p95(main_s) * 1e6, "us")
        if "garbage" in by_kind:
            detail["reject_p50_us"] = (statistics.median(by_kind["garbage"]) * 1e6, "us")
    else:
        detail["certify_s"] = (min(by_kind["certify"]), "s")
        detail["audit_pairs_per_s"] = (len(main_s) / sum(main_s), "1/s")
        detail["audit_p50_us"] = (statistics.median(main_s) * 1e6, "us")
        detail["audit_p95_us"] = (p95(main_s) * 1e6, "us")
    detail["calibration_us"] = (cal_min * 1e6, "us")
    detail["median_pass_wall_s"] = (statistics.median(pass_walls), "s")
    lines = [f"passes {len(pass_walls)}, builds {len(builds)}, inputs per pass: "
             + ", ".join(f"{len(v)} {k}" for k, v in by_kind.items())]
    lines += [f"{name:>40} {value:.6g} {unit}" for name, (value, unit) in detail.items()]
    return attempted, failed, metrics, lines


def full_pass(wl, ops, tracer=None):
    """Build the codes and run one pass; returns (wall s, failed, instrumentation)."""
    inst = decoder.DecodeInstrumentation() if tracer else None
    gc.collect()
    t0 = perf_counter()
    specs = workloads.build_codes(wl)
    _, failed = run_pass(ops, specs, wl.algo, tracer, inst)
    return perf_counter() - t0, failed, inst


def trace(wl, seed):
    """The traced run: returns (attempted, failed, metrics, report lines)."""
    specs = workloads.build_codes(wl)
    ops = wl.generate(specs, random.Random(seed))
    words = sum(op.kind not in ("certify", "audit") for op in ops)
    untraced_s, failed, _ = full_pass(wl, ops)
    attempted = len(ops)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, fails, inst = full_pass(wl, ops, tracer)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        failed += fails
        exact, self_s = tracer.summary()
        exact["decoder.search_ops"] = inst.search_ops
        exact["decoder.total_ops"] = inst.total_ops
        runs.append((tracer, wall, exact, self_s))
    (tracer, traced_s, exact, self_s), (_, _, exact2, _) = runs
    lines = []
    if exact != exact2:
        failed += 1
        lines.append("count self-check FAILED, traced passes disagree on: "
                     + ", ".join(sorted(k for k in exact.keys() | exact2.keys()
                                        if exact[k] != exact2[k])))

    values = {**exact, **self_s}
    values["trace.overhead_s"] = traced_s - untraced_s
    for key in ("decoder.search_ops", "decoder.total_ops"):
        values[key] = exact[key] / words if words else 0
    scans = exact["decoder.search.scans"]
    values["decoder.search.useful_frac"] = exact["decoder.search.found"] / scans if scans else 0
    if any(op.kind == "certify" for op in ops):
        tracemalloc.start()
        try:
            result = verify.check_injectivity(specs[0])
            values["verify.check_injectivity.peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        attempted += 1
        failed += result is not None
    for name, expected in wl.predictions:
        if values.get(name, 0) != expected:
            failed += 1
            lines.append(f"prediction FAILED: {name} = {values.get(name, 0)}, expected {expected}")

    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(out, {"workload": wl.name, "seed": seed,
                      "untraced_s": untraced_s, "traced_s": traced_s})
    lines.append(f"untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s, "
                 f"{len(tracer.spans) - 1} spans written to {out.relative_to(ROOT)}")
    metrics = {name: (values.get(name, 0), unit) for name, unit in tracing.PER_LAYER}
    return attempted, failed, metrics, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("codes: " + "; ".join(map(workloads.regime, workloads.build_codes(wl))))
    if args.trace:
        attempted, failed, metrics, lines = trace(wl, args.seed)
    else:
        attempted, failed, metrics, lines = measure(wl, args.seed, args.seconds)
    lines += [f"{name:>40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"attempted {attempted}, failed {failed}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    ARGS = parse_args(sys.argv[1:])
    if not (SRC / "rsdel" / "__init__.py").is_file():
        print(f"perfbench: no rsdel package under {SRC}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from rsdel import decoder, verify
    sys.exit(main(ARGS))
