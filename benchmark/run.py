"""Benchmark of the fgr decay-rate library: Γ(t) curves, onset reports and
the oracle cross-check.

Run from the repository root:

    python3 benchmark/run.py --workload fig1_broadband --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): fig1_broadband, narrowband_onset, verify_hard.
Each run imports ``fgr`` from ``src/``, sets up, warms up on one point, and
then runs whole passes over the workload's fixed operation set until
``--seconds`` have passed (at least one pass). With ``--trace 1`` untraced
and traced passes alternate, and the traced passes give the per-layer
numbers. Every output of every pass is checked.

Every time is reported at a fixed machine speed: the measured wall time
times a speed factor from kernel samples taken around it (see speed.py).
The metadata line gives the raw wall-time figures beside the reported
ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run's metadata; the same metadata, with the per-point latencies
and, for traced runs, the spans, is written to ``benchmark/out/``.
"""

import os
import sys
import time

# One BLAS thread: with the default two, OpenBLAS runs a second thread in
# the panel mat-vec and process CPU time exceeds wall time by 15-25 %.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("fig1_broadband", "narrowband_onset", "verify_hard")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 60


def _setup(workload_name, seed, workdir):
    """Everything before the first timed operation: import, inputs, warm-up."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports fgr; fails outside a checkout of the repository

    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    workload.warmup()
    return workload


def setup_child(workload_name, seed):
    """Entry of a set-up sample process: set up, print the clock, exit."""
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        _setup(workload_name, seed, workdir)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir)


def measure_setup(workload_name, seed, probe):
    """Median over SETUP_SAMPLES fresh processes of the wall time from
    process start to the end of the warm-up point, at the reference speed
    of kernel samples taken just before and after each process."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        probe.start_pass()
        probe.sample()
        start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{child.stderr}")
        raw.append(float(child.stdout.split()[-1]) - start)
        probe.sample()
        scaled.append(raw[-1] * probe.factor())
    return statistics.median(scaled), raw


def tail_percentile(n):
    """Highest whole percentile, at most 95, with at least ten of n samples
    beyond it: p95 for the curve workloads, p65 for verify_hard."""
    if n <= 10:
        raise ValueError(f"{n} latency samples; a tail needs more than 10")
    return min(95, math.floor(100.0 * (n - 10) / n))


@dataclass
class Pass:
    traced: bool
    result: object  # workloads.PassResult
    rec: object  # tracing.Recorder
    raw_wall: float  # pass wall time without the speed samples taken in it
    wall: float  # the same at the reference speed
    factor: float  # the pass's median speed factor
    latencies_ms: list  # per point, at the reference speed


def run_passes(workload, seconds, tracing, probe):
    """Whole passes until ``seconds`` have passed; with tracing, untraced
    and traced passes alternate."""
    from tracing import Recorder

    passes = []
    begin = time.perf_counter()
    while True:
        for traced in ((False, True) if tracing else (False,)):
            probe.start_pass()
            probe.sample()
            with Recorder(traced, workload.probe_points, probe) as rec:
                result = workload.run_pass(rec)
            probe.sample()
            raw_wall = result.wall - probe.inside_s
            factor = probe.factor()
            scaled = [p.latency * probe.factor_at(p.start) for p in rec.points]
            # time outside the points (CSV, labels, configs) at the pass factor
            wall = sum(scaled) + (raw_wall - sum(p.latency for p in rec.points)) * factor
            passes.append(Pass(traced, result, rec, raw_wall, wall, factor,
                               [x * 1e3 for x in scaled]))
        if time.perf_counter() - begin >= seconds:
            return passes


def _latency_stats(lat, n_points):
    # the percentile follows the fixed operation set, not the pass count
    lat = sorted(lat)
    q = tail_percentile(n_points)
    tail = statistics.quantiles(lat, n=100, method="inclusive")[q - 1]
    return statistics.median(lat), tail, q, sum(x > tail for x in lat)


def end_to_end(workload, passes, setup_s):
    n_points = workload.n_points
    p50, tail, q, beyond = _latency_stats(
        (x for p in passes for x in p.latencies_ms), n_points)
    raw_p50, raw_tail, _, _ = _latency_stats(
        (x.latency * 1e3 for p in passes for x in p.rec.points), n_points)
    n = sum(len(p.latencies_ms) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (statistics.median(workload.n_points / p.wall
                                           for p in passes), "1/s"),
        "point_ms_p50": (p50, "ms"),
        "point_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "points_per_s": {"passes": len(passes)},
        "point_ms_p50": {"n": n},
        "point_ms_tail": {"percentile": q, "n": n, "beyond": beyond},
        "raw_wall": {
            "points_per_s": statistics.median(workload.n_points / p.raw_wall
                                              for p in passes),
            "point_ms_p50": raw_p50,
            "point_ms_tail": raw_tail,
        },
    }
    return metrics, samples


def per_layer(passes):
    from tracing import layer_metrics

    traced = []
    for p in passes:
        if p.traced:
            m = layer_metrics(p.rec)
            traced.append({k: v * p.factor if _unit(k) in ("s", "ns") else v
                           for k, v in m.items()})
    out = {k: (statistics.median(m[k] for m in traced), _unit(k)) for k in traced[0]}
    walls = {flag: statistics.median(p.wall for p in passes if p.traced == flag)
             for flag in (False, True)}
    out["trace_overhead_frac"] = (walls[True] / walls[False] - 1.0, "frac")
    return out


def _unit(name):
    if name.endswith("_ns_per_elem"):
        return "ns"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("err_rel_p50"):
        return "frac"
    return "count"


def machine_metadata():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    import speed

    probe = speed.SpeedProbe()
    setup_s, setup_raw = (None, [])
    if not args.trace:
        setup_s, setup_raw = measure_setup(args.workload, args.seed, probe)

    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        workload = _setup(args.workload, args.seed, workdir)
        passes = run_passes(workload, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(workdir)

    outcomes = [o for p in passes for o in p.result.outcomes]
    failed = [o for o in outcomes if not o.ok]
    wrong = [o for o in failed if o.wrong]
    success = (len(outcomes) - len(failed)) / len(outcomes)
    if args.trace:
        metrics = per_layer(passes)
        samples = {"traced_passes": sum(p.traced for p in passes)}
    else:
        metrics, samples = end_to_end(workload, passes, setup_s)
        samples["setup_s"] = {"n": len(setup_raw), "raw_wall_s": setup_raw}
        metrics["success_frac"] = (success, "frac")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_metadata(),
        "passes": [{"traced": p.traced, "raw_wall_s": p.raw_wall,
                    "speed_factor": p.factor} for p in passes],
        "speed_reference_s": speed.REFERENCE_S,
        "ref_sources": workload.refs["sources"] if hasattr(workload, "refs") else None,
        "samples": samples,
        "success_frac": success,
        "failed": sorted({f"{o.name}: {o.reason}" for o in failed}),
    }
    record = dict(meta, latencies_ms=[p.latencies_ms for p in passes])
    if args.trace:
        record["spans"] = [p.rec.spans for p in passes if p.traced]
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps(meta))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
