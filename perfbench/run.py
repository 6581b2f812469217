"""Benchmark for ptbounds: one closed-loop client calling the library in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload repro-seesaw --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each layer and prints per-layer self times and counts instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including the run environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: on 2 cores a second thread slows the small seesaw
# contractions by up to 3x and makes op times noisier.  Must be set before
# numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, SRC)

WORKLOADS = ("repro-seesaw", "nonlocality-kl", "certify-io")
SETUP_PROBES = 4  # fresh interpreters timed for setup_s, besides this one

# name -> unit, for the metrics printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_ptbounds():
    """Import the package from this checkout's src/, or return None."""
    try:
        import ptbounds
    except ImportError as exc:
        print(f"error: cannot import ptbounds from {SRC}: {exc}", file=sys.stderr)
        return None
    origin = os.path.realpath(os.path.dirname(ptbounds.__file__))
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: ptbounds was imported from {origin}, not from {SRC}", file=sys.stderr)
        return None
    return ptbounds


def _setup(workload: str, seed: int, outdir: str):
    """Import ptbounds and generate the workload inputs.  None if ptbounds is missing."""
    if _import_ptbounds() is None:
        return None
    from workloads import BUILDERS

    return BUILDERS[workload](seed, outdir)


def _probe_setup(workload: str, seed: int, outdir: str) -> list[float]:
    """setup_s of fresh interpreters, each timed from its own first line."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--outdir", outdir],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _layer_metrics(tracer, workload, span_cost: float) -> dict:
    from collections import Counter

    from ptbounds.bell import classical_value
    from spans import OP, TARGETS, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)
    metrics = {}
    for module, fn in TARGETS:
        name = f"{module}.{fn}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")

    seesaws = tracer.captured["bell.seesaw"]
    restarts = below = best_iters = 0
    for restart_values, iterations, functional in seesaws:
        c_value = classical_value(functional)
        restarts += len(restart_values)
        below += sum(v < c_value - 1e-9 for v in restart_values)
        best_iters += iterations
    nl = tracer.captured["nonlocality.nonlocality_N"]
    op_s = sum(s.end - s.start for s in spans if s.name == OP)
    layer_spans = sum(1 for s in spans if s.name != OP)
    metrics.update({
        "bell.seesaw.restarts": (restarts, "count"),
        "bell.seesaw.restarts_below_classical": (below, "count"),
        "bell.seesaw.best_iterations": (best_iters, "count"),
        "nonlocality.nonlocality_N.inner_iterations": (sum(it for it, _ in nl), "count"),
        "nonlocality.nonlocality_N.unconverged": (sum(not ok for _, ok in nl), "count"),
        "linalg.matrix_json.bytes_written": (workload.bytes_written, "bytes"),
        "seesaw_lhs_mean": (_seesaw_lhs_mean(workload), "dimensionless"),
        "nl_gap_max": (max(workload.gaps, default=0.0), "bits"),
        "trace.op_s": (op_s, "s"),
        "trace.uncovered_s": (selfs.get(OP, 0.0), "s"),
        "trace.overhead_ratio": (layer_spans * span_cost / op_s if op_s else 0.0, "ratio"),
    })
    return metrics


def _seesaw_lhs_mean(workload) -> float:
    return statistics.fmean(workload.lhs.values()) if workload.lhs else 0.0


def _print_summary(name: str, seed: int, trace: int, metrics: dict, result: dict) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value!r:>24} {unit}")
    t = result["timing"]
    print(f"  op_tail_s is p{t['tail_percentile']:.2f} of {t['samples']} ops "
          f"({t['tail_samples_beyond']} beyond it)")
    ref = result["reference_loop_s"]
    print(f"  reference loop {ref['before']:.4f} s before, {ref['after']:.4f} s after the timed ops")
    extras = {"failed_ratio": "ratio", "seesaw_lhs_mean": "dimensionless", "nl_gap_max": "bits"}
    for key, unit in extras.items():
        if key not in metrics:
            print(f"  {key:48s} {result[key]!r:>24} {unit}")
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--outdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if args.setup_probe:
        if _setup(args.workload, args.seed, args.outdir) is None:
            return 2
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    outdir = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    workload = _setup(args.workload, args.seed, outdir)
    if workload is None:
        return 2
    setup_main = time.perf_counter() - _T0
    os.makedirs(outdir, exist_ok=True)
    try:
        return _run(args, workload, setup_main, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _run(args, workload, setup_main: float, outdir: str) -> int:
    import summary
    from spans import Tracer, per_span_cost
    from workloads import closed_loop, run_op

    probes = [] if args.trace else _probe_setup(args.workload, args.seed, outdir)
    warm = run_op(workload.warmup)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.capture = {
            "bell.seesaw": lambda a, k, r: (r.restart_values, r.iterations,
                                            a[1] if len(a) > 1 else k["f"]),
            "nonlocality.nonlocality_N": lambda a, k, r: (r.iterations, r.converged),
        }
        tracer.install()
    reference = [summary.reference_loop_s()]
    try:
        t_start = time.perf_counter()
        records = closed_loop(workload, args.seconds, tracer)
        wall_s = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            tracer.restore()
    reference.append(summary.reference_loop_s())

    failed = [r for r in records if r.problems]
    op_time = sum(r.seconds for r in records)
    timing = summary.timing_summary([r.seconds for r in records])
    problems = [f"warm-up {warm.label}: {p}" for p in warm.problems]
    problems += [f"{r.label}: {p}" for r in failed for p in r.problems]

    if args.trace:
        metrics = _layer_metrics(tracer, workload, per_span_cost())
    else:
        metrics = {
            "setup_s": statistics.median([setup_main] + probes),
            "op_p50_s": timing["p50_s"],
            "op_tail_s": timing["tail_s"],
            "ops_per_s": (len(records) - len(failed)) / op_time,
            "peak_rss_mb": summary.peak_rss_mb(),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": summary.environment(ROOT, args.seed, BLAS_THREADS),
        "setup": {"in_process_s": setup_main, "probes_s": probes},
        "warmup": {"label": warm.label, "seconds": warm.seconds},
        "reference_loop_s": {"before": reference[0], "after": reference[1]},
        "timed_wall_s": wall_s,
        "op_time_s": op_time,
        "timing": timing,
        "attempted": len(records),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "problems": problems,
        "seesaw_lhs_mean": _seesaw_lhs_mean(workload),
        "nl_gap_max": max(workload.gaps, default=0.0),
        "op_median_s": {label: statistics.median(r.seconds for r in records if r.label == label)
                        for label in sorted({r.label for r in records})},
        # every timed op in run order: label, start after the timed phase began, seconds
        "ops": [[r.label, r.start - t_start, r.seconds] for r in records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    _print_summary(args.workload, args.seed, args.trace, metrics, result)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
