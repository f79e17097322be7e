"""Per-point recording and layer spans, installed from outside the package.

A ``Recorder`` replaces module attributes of ``fgr`` with timing wrappers
for the length of one pass and restores them afterwards; nothing inside
``src/`` changes. The point probe runs in every pass, because per-point
latency and results are end-to-end measurements. Layer spans run only in
traced passes.

A span is ``(span_id, parent_id, point_id, name, start, end, elems)``.
Spans of one Γ(t) point share its ``point_id``; spans are kept in memory
and written out by the caller when the run ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import fgr
from fgr import cli, quadrature


def _size(x):
    return int(np.size(x))


# (module, attribute, span name, element count from the call's arguments).
# The attributes are the names the calling module looks up at call time.
LAYER_TARGETS = (
    (quadrature, "spectral_profile", "kernel.spectral_profile",
     lambda args: _size(args[0])),
    (quadrature, "evaluate_rsc", "reservoir.evaluate_rsc",
     lambda args: _size(args[1])),
    (quadrature, "decay_rate_numeric", "quadrature.decay_rate_numeric", None),
    (quadrature, "decay_rate_numeric_oracle",
     "quadrature.decay_rate_numeric_oracle", None),
    (quadrature, "classify_regime", "analytic.classify_regime", None),
    (cli, "onset_time_broadband", "analytic.onset_time_broadband", None),
    (cli, "onset_time_narrowband", "analytic.onset_time_narrowband", None),
    (cli, "empirical_onset", "onset.empirical_onset", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "write_curve_csv", "cli.write_curve_csv",
     lambda args: os.path.getsize(args[0])),
)


@dataclass
class PointRecord:
    """One Γ(t) point: its wall latency and what each integrator returned."""

    point_id: int
    curve: int
    t: float
    start: float = 0.0
    latency: float = 0.0
    main_status: str = ""
    main: object = None
    oracle_status: str = ""
    oracle: object = None


class Recorder:
    """Collects the point records, and the spans when tracing, of one pass."""

    def __init__(self, tracing, probe_points, speed):
        self.tracing = tracing
        self.probe_points = probe_points
        self.speed = speed
        self.points = []
        self.spans = []
        self._stack = []
        self._point_id = None
        self._curve = -1
        self._saved = []

    def next_curve(self):
        self._curve += 1

    def curve_points(self, curve):
        return [p for p in self.points if p.curve == curve]

    @contextmanager
    def point(self, t):
        rec = PointRecord(len(self.points), self._curve, float(t))
        self.points.append(rec)
        self._point_id = rec.point_id
        t0 = rec.start = time.perf_counter()
        try:
            if self.tracing:
                with self._span("point"):
                    yield rec
            else:
                yield rec
        finally:
            rec.latency = time.perf_counter() - t0
            self._point_id = None
            self.speed.maybe_sample()  # between points, outside any latency

    @contextmanager
    def _span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        box = [0]
        t0 = time.perf_counter()
        try:
            yield box
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._point_id, name, t0, t1, box[0])

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _layer_wrapper(self, fn, name, count):
        def wrapper(*args, **kwargs):
            with self._span(name) as box:
                out = fn(*args, **kwargs)
                if count is not None:
                    box[0] = count(args)
                return out
        return wrapper

    def _point_probe(self, fn):
        # rate_curve computes each point through this attribute
        def wrapper(reservoir, emitter, t, cfg=None):
            with self.point(t) as rec:
                try:
                    rec.main = fn(reservoir, emitter, t, cfg)
                    rec.main_status = "ok"
                    return rec.main
                except fgr.ConvergenceError as exc:
                    rec.main_status, rec.main = "not converged", exc.result
                    raise
                except Exception as exc:
                    rec.main_status = f"{type(exc).__name__}: {exc}"
                    raise
        return wrapper

    def __enter__(self):
        if self.tracing:
            for module, attr, name, count in LAYER_TARGETS:
                self._patch(module, attr,
                            self._layer_wrapper(getattr(module, attr), name, count))
        if self.probe_points:
            self._patch(quadrature, "decay_rate_numeric",
                        self._point_probe(quadrature.decay_rate_numeric))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False


def _rank(counts, q):
    """Nearest-rank percentile, so that a count stays a sample of itself."""
    return int(np.percentile(counts, q, method="nearest")) if counts else 0


def layer_metrics(rec):
    """Per-layer numbers of one traced pass."""
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0

    def total(match, inclusive=False):
        # ``match`` is a span name, or a layer prefix ending in "."
        s = n = 0
        for sid, _, _, name, t0, t1, elems in spans:
            if name == match or (match.endswith(".") and name.startswith(match)):
                s += (t1 - t0) - (0.0 if inclusive else child_time[sid])
                n += elems
        return s, n

    kernel_s, kernel_n = total("kernel.")
    rsc_s, rsc_n = total("reservoir.")
    main_ids = {sid for sid, _, _, name, *_ in spans
                if name == "quadrature.decay_rate_numeric"}
    main_evals = sum(elems for _, parent, _, name, _, _, elems in spans
                     if name.startswith("reservoir.") and parent in main_ids)

    mains = [p.main for p in rec.points if p.main is not None]
    panels = [r.panels_used for r in mains]
    err_rel = [r.error_estimate / r.value for r in mains if r.value > 0.0]
    oracles = [p for p in rec.points if p.oracle_status]
    oracle_evals = [p.oracle.panels_used for p in oracles if p.oracle is not None]
    csv_s, csv_bytes = total("cli.write_curve_csv")

    def per(a, b):
        return a / b if b else 0.0

    return {
        "kernel.profile_elems": kernel_n,
        "kernel.profile_s": kernel_s,
        "kernel.profile_ns_per_elem": per(kernel_s * 1e9, kernel_n),
        "reservoir.rsc_elems": rsc_n,
        "reservoir.rsc_s": rsc_s,
        "reservoir.rsc_ns_per_elem": per(rsc_s * 1e9, rsc_n),
        "quadrature.self_s": total("quadrature.decay_rate_numeric")[0],
        "quadrature.panels_p50": _rank(panels, 50),
        "quadrature.panels_p95": _rank(panels, 95),
        "quadrature.evals_per_point": per(main_evals, len(mains)),
        "quadrature.evals_per_panel": per(main_evals, sum(panels)),
        "quadrature.err_rel_p50": float(np.median(err_rel)) if err_rel else 0.0,
        "quadrature.flagged": sum(p.main_status == "not converged"
                                  for p in rec.points),
        "quadrature.oracle_s": total("quadrature.decay_rate_numeric_oracle",
                                     inclusive=True)[0],
        "quadrature.oracle_evals_per_point": per(sum(oracle_evals), len(oracles)),
        "quadrature.oracle_failed": sum(p.oracle_status != "ok" for p in oracles),
        "analytic.s": total("analytic.")[0],
        "onset.s": total("onset.")[0],
        "cli.config_s": total("cli.load_config")[0],
        "cli.csv_s": csv_s,
        "cli.csv_bytes": csv_bytes,
    }
