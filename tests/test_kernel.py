"""Spectral-profile accuracy, invariants, and zero listing."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from fgr.kernel import kernel_zeros, spectral_profile, zero_counts


def profile_reference(detuning, t):
    # high-precision reference of the same formula
    with mp.workdps(40):
        x = mp.mpf(detuning) * mp.mpf(t) / 2
        s = mp.sin(x) / x if x != 0 else mp.mpf(1)
        return float(mp.mpf(t) / (2 * mp.pi) * s * s)


class TestSpectralProfile:
    def test_peak_value(self):
        for t in (1e-6, 1.0, 1e6):
            assert spectral_profile(0.0, t) == pytest.approx(t / (2 * math.pi), rel=1e-15)

    def test_first_zero(self):
        t = 3.7
        assert spectral_profile(2.0 * math.pi / t, t) == pytest.approx(0.0, abs=1e-25)

    @pytest.mark.parametrize(
        "x", [1e-9, 1e-6, 9.9e-5, 1.01e-4, 1e-3, 0.1, 1.0, 3.0, 50.0, 1e4]
    )
    def test_relative_accuracy(self, x):
        # argument of the half-sinc is x; pick t=2 so detuning == x
        t = 2.0
        ref = profile_reference(x, t)
        got = spectral_profile(x, t)
        if ref > 0:
            assert abs(got / ref - 1.0) < 1e-12

    def test_evenness_exact(self):
        deltas = np.geomspace(1e-8, 1e3, 50)
        t = 0.37
        assert np.array_equal(spectral_profile(deltas, t), spectral_profile(-deltas, t))

    def test_self_similarity_scaling(self):
        # profile(d/c, c*t) == c * profile(d, t)
        d, t, c = 0.9, 2.3, 17.0
        assert spectral_profile(d / c, c * t) == pytest.approx(
            c * spectral_profile(d, t), rel=1e-13
        )

    def test_bounds(self):
        t = 5.0
        deltas = np.linspace(-50.0, 50.0, 10001)
        vals = spectral_profile(deltas, t)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= t / (2.0 * math.pi) * (1.0 + 1e-15))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            spectral_profile(1.0, 0.0)
        with pytest.raises(ValueError):
            spectral_profile(1.0, -2.0)

    @pytest.mark.parametrize("t", np.geomspace(1e-3, 1e3, 5).tolist())
    def test_normalization(self, t):
        # full-line integral equals 1; quadrature over the first 40 lobes
        # plus the exact sine-integral tail
        zeros = [2.0 * math.pi * k / t for k in range(1, 41)]
        upper = zeros[-1]
        body, _ = integrate.quad(
            lambda d: spectral_profile(d, t), 0.0, upper, points=zeros[:-1], limit=300
        )
        si, _ = special.sici(t * upper)
        tail = (2.0 / (math.pi * t)) * (
            (1.0 - math.cos(t * upper)) / upper + t * (math.pi / 2.0 - si)
        )
        total = 2.0 * body + tail
        assert abs(total - 1.0) < 1e-8


class TestKernelZeros:
    def test_no_zeros_in_range(self):
        # spacing exceeds omega_max: only the transition frequency remains
        out = kernel_zeros(t=1e-3, omega0=1.0, omega_max=3.0)
        assert out.tolist() == [1.0]

    def test_exact_integer_layout(self):
        out = kernel_zeros(t=2.0 * math.pi, omega0=1.0, omega_max=3.5)
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_strictly_increasing(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t = float(rng.uniform(0.1, 50.0))
            w0 = float(rng.uniform(0.1, 10.0))
            wmax = w0 + float(rng.uniform(1.0, 100.0))
            out = kernel_zeros(t, w0, wmax)
            assert np.all(np.diff(out) > 0.0)
            assert out[0] >= 0.0 and out[-1] <= wmax
            assert w0 in out

    def test_count_exact_up_to_a_million_zeros(self):
        # a zero landing exactly on omega_max is listed: k + 1 entries with
        # omega0 first, for every k; from k ~ 1e4 on the rounding of
        # floor(span / spacing) exceeds any fixed absolute guard
        t, w0 = 1.0, 1.0
        spacing = 2.0 * math.pi / t
        ks = np.unique(np.geomspace(1, 1e6, 400).astype(int)).tolist() + [194416]
        for k in ks:
            wmax = w0 + spacing * k
            out = kernel_zeros(t, w0, wmax)
            assert out.size == k + 1, k
            assert out[-1] == wmax
            assert kernel_zeros(t, w0, np.nextafter(wmax, 0.0)).size == k

    @pytest.mark.parametrize("t", [1e20, 1e30])
    def test_counts_settle_where_zeros_are_not_distinct_floats(self, t):
        # consecutive k give the same float zero here; each count is still
        # the last k whose zero lies in range, found in a few steps
        w0, wmax = 1.0, 9400.0
        spacing = 2.0 * math.pi / t
        start = time.perf_counter()
        n_left, n_right = zero_counts(t, w0, wmax)
        assert time.perf_counter() - start < 1.0
        assert w0 - spacing * n_left >= 0.0 > w0 - spacing * (n_left + 1)
        assert w0 + spacing * n_right <= wmax < w0 + spacing * (n_right + 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kernel_zeros(t=0.0, omega0=1.0, omega_max=2.0)
        with pytest.raises(ValueError):
            kernel_zeros(t=1.0, omega0=1.0, omega_max=0.0)
