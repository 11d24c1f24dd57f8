#!/usr/bin/env python3
"""End-to-end benchmark of sparsemotion: closed-loop tracking, synthetic
sweeps and PKSP certification, with a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload track --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller: the
next call starts when the previous one has returned. ``--trace 0`` times
the calls and prints the end-to-end metrics; ``--trace 1`` wraps every
public function of the program's layers and prints the per-layer metrics
instead. Either way every output is checked, the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, and a run record is written under perfbench/runs/.
"""

import os

# BLAS threads are fixed before numpy loads: the systems are 26 x 46, too
# small to gain from threads, and one thread keeps runs comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and its median is reported
SETUP_REPEATS, SETUP_SECONDS = 3, 0.5


def require_program():
    """Put the checkout's src/ first on the import path; exit 2 without it."""
    if not (SRC / "sparsemotion" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC / 'sparsemotion'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sparsemotion

    if Path(sparsemotion.__file__).resolve().parent != (SRC / "sparsemotion").resolve():
        sys.stderr.write(f"perfbench: imported sparsemotion from {sparsemotion.__file__}\n")
        sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["track", "sweep-exact", "sweep-noisy", "certify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, fn):
                return int(getattr(dll, fn)())
    return None


def environment():
    import numpy as np
    import scipy

    from sparsemotion import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def op_stats(wl, out, ops) -> dict:
    """Throughput, latency quantiles and batch time of the run's calls.

    ops_per_s counts the operations against the time spent in them and in
    the preparation they wait for; batch_s is the mean time of one batch.
    """
    import numpy as np

    times = ops.times["op"]
    busy = sum(times) + sum(ops.times["prep"])
    batches = wl.batch_seconds(out, ops)
    stats = {
        "ops": len(times),
        "ops_per_s": len(times) / busy if busy else 0.0,
        "batches": len(batches),
        "batch_s": statistics.mean(batches) if batches else 0.0,
    }
    if times:
        stats.update({f"op_ms_p{q}": float(np.percentile(times, q)) * 1e3 for q in (50, 90)})
    return stats


def timed_run(wl, seed, seconds):
    from workloads import Ops

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    ops = Ops()
    out = wl.run(state, seconds, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = op_stats(wl, out, ops)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "batch_s": (stats["batch_s"], "s"),
    }
    return state, out, ops, metrics, {"setup_s_all": setup_times, **stats}


def traced_run(wl, seed, seconds, spans_path):
    import numpy as np

    import layers
    import tracing
    from sparsemotion import camera, experiments, kinematics, pksp, solvers, tracker
    from workloads import Ops

    tracer = tracing.Tracer()
    program = tracing.program_modules()
    tracer.trace_layers(
        {
            "kinematics": kinematics,
            "camera": camera,
            "solvers": solvers,
            "pksp": pksp,
            "tracker": tracker,
            "experiments": experiments,
        },
        program,
        layers.ANNOTATE,
    )
    tracer.trace_function("pksp.linprog", pksp.linprog, [pksp])
    tracer.count_calls(np.linalg, ("svd", "lstsq", "pinv"), "numpy.linalg")
    try:
        with tracer.span(layers.SETUP):
            state = wl.setup(seed)
        ops = Ops(tracer)
        out = wl.run(state, seconds, ops)
    finally:
        tracer.close()
    tracer.write(spans_path)
    values = layers.per_layer_metrics(tracer.spans, wl.count_window)
    metrics = {name: (value, layers.UNITS[name]) for name, value in values.items()}
    extra = {
        "spans": len(tracer.spans),
        "count_window_ops": wl.count_window,
        "spans_file": spans_path.name,
        **op_stats(wl, out, ops),
    }
    return state, out, ops, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    require_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    t0 = time.perf_counter()
    if args.trace:
        state, out, ops, metrics, extra = traced_run(wl, args.seed, args.seconds, RUNS / f"{stem}_spans.jsonl")
    else:
        state, out, ops, metrics, extra = timed_run(wl, args.seed, args.seconds)
    problems = wl.check(state, out)
    extra["wall_s"] = time.perf_counter() - t0

    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "workloads": {args.workload: {"attempted": ops.attempted, "failed": len(ops.failures)}},
        "stats": extra,
        "problems": problems[:50],
        "failures": ops.failures[:10],
        "environment": environment(),
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        sys.stderr.write(f"perfbench: {problem}\n")
    for failure in ops.failures[:3]:
        sys.stderr.write(f"perfbench: failed call\n{failure}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"attempted {ops.attempted}, failed {len(ops.failures)}, problems {len(problems)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
