"""Record a parent-versus-change benchmark as BENCH_<n>.json.

    python tools/record_bench.py --parent REV --out BENCH_12.json --what "..."

The parent side is the committed tree of REV, exported with ``git archive``
into a scratch directory (no worktree is registered in the repository);
the change side is this checkout as it stands. Both sides run the same
commands, alternating which side goes first:

- end to end, ``--runs`` times each (default 3): ``fgr figure`` fig1,
  fig2 and fig3, ``fgr verify`` and the tier-1 suite, each the wall time
  of one process
  with the side's ``src`` on ``PYTHONPATH``;
- ``benchmark/run.py --workload W --seed S --seconds N`` of the side's own
  checkout, once per workload and seed (default seeds 1-5, 20 s).

The file holds the medians and every run, in the layout of BENCH_11.json,
with each run's count of attempted operations beside its metrics, and a
verdict for every workload and end-to-end metric of BENCHMARK.json against
its bound (see ``verdict``). The claim, if one is named with ``--claim
WORKLOAD:METRIC``, gives both medians, the parent's quartile spread, the
seeds on which the change beats the parent, and each side's peak_rss_mb per
1,000 attempted operations.
``--scratch`` holds the parent's tree and the figure outputs; without it
they go to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
# run.py's end-to-end metrics with their bounds, which way is better for
# each, and its workloads
BOUNDS = {m["name"]: m["bound"] for m in _BENCHMARK["end_to_end"]}
RUN_PY_METRICS = tuple(BOUNDS)
HIGHER_IS_BETTER = {m["name"] for m in _BENCHMARK["end_to_end"] if m["better"] == "higher"}
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
FGR = "import sys; from fgr.cli import main; sys.exit(main())"
E2E_COMMANDS = {
    "fig1_s": "fgr figure fig1 -o DIR",
    "fig2_s": "fgr figure fig2 -o DIR",
    "fig3_s": "fgr figure fig3 -o DIR",
    "verify_s": "fgr verify",
    "tier1_s": "python -m pytest -q --continue-on-collection-errors (PYTHONPATH=src)",
}


def side_order(i):
    """Which side runs first in round i: the parent on even rounds."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def parse_run_py(stdout):
    """The metrics dict, with the run's ``attempted`` count beside them, and
    the ``correct`` flag from run.py's last output line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    doc = json.loads(lines[-1])
    metrics = {name: doc["metrics"][name]["value"] for name in RUN_PY_METRICS}
    metrics["attempted"] = doc["attempted"]
    return metrics, bool(doc["correct"])


def medians(runs, digits=4):
    """{name: median} over a {name: [values]} dict, rounded."""
    return {name: round(statistics.median(vals), digits) for name, vals in runs.items()}


def summarise_workload(per_seed, correct):
    """BENCH_11's per-workload record from {side: {metric: [per seed]}} and
    {side: [correct per seed]}."""
    out = {}
    for side in SIDES:
        out[side] = dict(medians(per_seed[side]), correct=all(correct[side]))
        out[f"{side}_per_seed"] = {
            name: [round(v, 4) for v in vals] for name, vals in per_seed[side].items()
        }
    return out


def pairs_won(parent, change, metric):
    """How many (parent, change) pairs the change wins on metric."""
    if metric in HIGHER_IS_BETTER:
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def claim_summary(workload, metric, parent, change):
    """The claim record: both medians, the spread of the parent's runs
    (the distance between its quartiles) and the pairs the change wins."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "parent_iqr": round(q3 - q1, 4),
        "pairs_won": f"{pairs_won(parent, change, metric)}/{len(parent)}",
    }


def verdict(metric, parent, change):
    """One end-to-end metric's record against its bound: both medians, the
    change in the metric's worse direction relative to the parent's median
    (positive is worse), the parent's quartile spread relative to its median,
    the bound, and the verdict. That is "beyond bound" if the change is worse
    by more than the bound; else "unresolved" if the parent's spread is wider
    than the bound, unless every change run beats every parent run; else
    "within bound". A zero parent median makes both figures absolute."""
    bound = BOUNDS[metric]
    p, c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    scale = abs(p) or 1.0
    if metric in HIGHER_IS_BETTER:
        worse, clear = (p - c) / scale, min(change) > max(parent)
    else:
        worse, clear = (c - p) / scale, max(change) < min(parent)
    spread = (q3 - q1) / scale
    if worse > bound:
        word = "beyond bound"
    elif spread > bound and not clear:
        word = "unresolved"
    else:
        word = "within bound"
    return {
        "parent_median": round(p, 4),
        "change_median": round(c, 4),
        "change_worse": round(worse, 4),
        "parent_rel_iqr": round(spread, 4),
        "bound": bound,
        "verdict": word,
    }


def verdicts(workloads):
    """{workload: {metric: verdict}} from {workload: (per_seed, correct)}."""
    return {
        w: {m: verdict(m, per_seed["parent"][m], per_seed["change"][m]) for m in RUN_PY_METRICS}
        for w, (per_seed, _) in workloads.items()
    }


def rss_per_thousand(per_seed):
    """{side: the median over its runs of peak_rss_mb per 1,000 attempted
    operations} from {side: {name: [per seed]}}. The harness keeps a record
    of every operation it attempts, so this tells its records' share of
    peak RSS from the program's own."""
    return {
        side: round(statistics.median(
            1000.0 * rss / attempted
            for rss, attempted in zip(per_seed[side]["peak_rss_mb"], per_seed[side]["attempted"])
        ), 4)
        for side in SIDES
    }


def _env(side_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(side_root, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _timed(cmd, cwd, env, ok_codes=(0,)):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode not in ok_codes:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall, proc.stdout


def end_to_end(roots, scratch, runs):
    """{side: {command: [wall seconds per run]}}, alternating sides."""
    out = {side: {name: [] for name in E2E_COMMANDS} for side in SIDES}
    for i in range(runs):
        for side in side_order(i):
            root, env = roots[side], _env(roots[side])
            cmds = {
                f"{fig}_s": (
                    [sys.executable, "-c", FGR, "figure", fig, "-o",
                     os.path.join(scratch, f"{fig}-{side}-{i}")],
                    (0,),
                )
                for fig in ("fig1", "fig2", "fig3")
            }
            cmds.update({
                "verify_s": ([sys.executable, "-c", FGR, "verify"], (0,)),
                # tier-1 exits 1: the deliberate pair of failures
                "tier1_s": (
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"],
                    (0, 1),
                ),
            })
            for name, (cmd, codes) in cmds.items():
                wall, _ = _timed(cmd, root, env, codes)
                out[side][name].append(round(wall, 2))
                print(f"  {side} {name} run {i}: {wall:.2f} s", flush=True)
    return out


def run_py(roots, seeds, seconds):
    """{workload: (per_seed, correct)} over the seeds, alternating sides."""
    out = {}
    for workload in WORKLOADS:
        per_seed = {side: {name: [] for name in RUN_PY_METRICS + ("attempted",)}
                    for side in SIDES}
        correct = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in side_order(i):
                cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds)]
                _, stdout = _timed(cmd, roots[side], dict(os.environ))
                metrics, ok = parse_run_py(stdout)
                for name, value in metrics.items():
                    per_seed[side][name].append(value)
                correct[side].append(ok)
                print(f"  {side} {workload} seed {seed}: "
                      f"{metrics['points_per_s']:.1f} points/s", flush=True)
        out[workload] = (per_seed, correct)
    return out


def export_tree(rev, dest):
    """The committed tree of rev, unpacked into dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "os": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True)
    parser.add_argument("--what", required=True, help="one line on what changed")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    parser.add_argument("--note", default="", help="a note on the machine's state")
    parser.add_argument("--scratch", default=None)
    args = parser.parse_args(argv)
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in WORKLOADS
                  or claim[1] not in RUN_PY_METRICS):
        parser.error(f"--claim takes WORKLOAD:METRIC, got {args.claim!r}")
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()

    scratch = args.scratch or tempfile.mkdtemp(prefix="record_bench-")
    try:
        parent_root = os.path.join(scratch, "parent")
        export_tree(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        print("end to end", flush=True)
        e2e = end_to_end(roots, scratch, args.runs)
        print("benchmark/run.py", flush=True)
        workloads = run_py(roots, args.seeds, args.seconds)
    finally:
        if not args.scratch:
            shutil.rmtree(scratch)

    doc = {
        "what": args.what,
        "machine": dict(machine(), note=args.note),
        "commits": {"parent": parent_rev, "change": "this commit"},
        "end_to_end": {
            "method": (f"wall time of one process per run, median of {args.runs} "
                       "runs per side, alternating which side runs first"),
            "commands": dict(E2E_COMMANDS),
        },
        "run_py": {
            "method": (f"python3 benchmark/run.py --workload W --seed S --seconds "
                       f"{args.seconds:g}, seeds {', '.join(map(str, args.seeds))}, one "
                       "parent and one change run per seed, alternating which runs "
                       "first; medians over the seeds, then every seed's value"),
            "workloads": {w: summarise_workload(*workloads[w]) for w in WORKLOADS},
        },
        "verdicts": verdicts(workloads),
        "claim": None,
    }
    for side in SIDES:
        doc["end_to_end"][side] = medians(e2e[side], 2)
        doc["end_to_end"][f"{side}_runs"] = e2e[side]
    if claim:
        workload, metric = claim
        per_seed = workloads[workload][0]
        doc["claim"] = claim_summary(workload, metric, per_seed["parent"][metric],
                                     per_seed["change"][metric])
        doc["claim"]["peak_rss_mb_per_1000_attempted"] = rss_per_thousand(per_seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for w, table in doc["verdicts"].items():
        for m, v in table.items():
            print(f"  {w} {m}: {v['change_worse']:+.1%} worse, parent spread "
                  f"{v['parent_rel_iqr']:.1%}, bound {v['bound']:.0%}: {v['verdict']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
