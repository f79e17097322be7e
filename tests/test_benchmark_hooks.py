"""The benchmark's tracer wraps fgr module attributes by name."""

import importlib.util
import io
import os
import sys

import numpy as np

from fgr import cli, quadrature
from fgr.reservoir import BroadbandReservoir, EmitterSpec

TRACING = os.path.join(os.path.dirname(__file__), "..", "benchmark", "tracing.py")


def test_layer_targets_resolve(monkeypatch):
    # a refactor that drops or renames a wrapped name would crash the
    # benchmark's traced runs and its determinism check
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    for module, attr, name, _ in tracing.LAYER_TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def _count_points(monkeypatch):
    # the tracer's per-point probe replaces quadrature.decay_rate_numeric;
    # a curve that bound the name elsewhere would bypass it
    times = []
    direct = quadrature.decay_rate_numeric

    def probe(reservoir, emitter, t, cfg=None):
        times.append(t)
        return direct(reservoir, emitter, t, cfg)

    monkeypatch.setattr(quadrature, "decay_rate_numeric", probe)
    return times


def test_rate_curve_calls_the_patched_point(monkeypatch):
    times = _count_points(monkeypatch)
    model = BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0)
    quadrature.rate_curve(model, EmitterSpec(1.0), [0.1, 1.0, 10.0])
    assert times == [0.1, 1.0, 10.0]


def test_cmd_onset_calls_the_patched_point(monkeypatch):
    times = _count_points(monkeypatch)
    config = cli.RunConfig.from_json_dict(
        {
            "model": {"type": "narrowband", "g": 1.0, "kappa": 1.0, "omega_c": 20.0},
            "emitter": {"omega0": 20.0},
            "time_grid": {"t_min": 0.5, "t_max": 2.0, "points_per_decade": 4},
        }
    )
    cli.cmd_onset(config, stream=io.StringIO())
    assert np.array_equal(times, config.time_grid.times())
