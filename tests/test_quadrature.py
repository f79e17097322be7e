"""Decay-rate quadrature: limits, invariances, oracle equivalence, budgets."""

import json
import math
import os
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from fgr import quadrature
from fgr.errors import ConvergenceError
from fgr.quadrature import (
    _CAPS,
    _CHUNK,
    _EPS,
    _PHASE,
    _PHASE_CAP,
    _PROFILE,
    _SMOOTH,
    IntegrationResult,
    QuadratureConfig,
    _build_panels,
    _first_layout,
    _phase_omega,
    _rsc_cap,
    _tail_mass,
    decay_rate_numeric,
    decay_rate_numeric_oracle,
    rate_curve,
    truncation_frequency,
)
from fgr.reservoir import (
    BroadbandReservoir,
    EmitterSpec,
    NarrowbandReservoir,
    PowerLorentzCutoff,
    evaluate_rsc,
    golden_rule_rate,
    zeno_slope,
)

EM = EmitterSpec(1.0)
CFG = QuadratureConfig()


@pytest.fixture(scope="module")
def exact_rate():
    # 25-digit mpmath rates from benchmark/make_refs.py, which shares no
    # code with fgr
    bench = os.path.join(os.path.dirname(__file__), "..", "benchmark")
    sys.path.insert(0, bench)
    try:
        from make_refs import exact_rate
    finally:
        sys.path.remove(bench)
    return exact_rate


def first_layout_size(model, em, t, cfg):
    omega_max = truncation_frequency(model, em, t, cfg)
    panels, _ = _first_layout(model, em, t, omega_max, cfg.rel_tol)
    return panels[0].size


def bb(eta, omega_x=250.0, coupling=1e-3, cutoff=None):
    if cutoff is None:
        return BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x)
    return BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x, cutoff=cutoff)


def nb_resonant(q, kappa=1.0, g=1.0):
    omega_c = 2.0 * q * kappa
    return NarrowbandReservoir(g=g, kappa=kappa, omega_c=omega_c), EmitterSpec(omega_c)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-8

    def test_rejects_no_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            IntegrationResult(value=-1.0, error_estimate=0.0, panels_used=1, truncation_frequency=1.0)

    def test_result_keeps_its_fields_exactly(self):
        # the fields are packed into one record; every bit comes back
        fields = (math.nextafter(0.1, 1.0), 5e-324, 2**32 - 1, math.inf)
        res = IntegrationResult(*fields)
        got = (res.value, res.error_estimate, res.panels_used, res.truncation_frequency)
        assert got == fields and type(got[2]) is int
        assert res == IntegrationResult(*fields) and hash(res) == hash(IntegrationResult(*fields))
        assert res != IntegrationResult(0.1, 5e-324, 2**32 - 1, math.inf)
        with pytest.raises(AttributeError):
            res.value = 1.0


class TestZenoLimit:
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_broadband_short_time_slope(self, eta):
        r = bb(eta)
        t = 1e-3 / r.omega_x
        res = decay_rate_numeric(r, EM, t, CFG)
        assert abs(res.value / (zeno_slope(r) * t) - 1.0) < 1e-2

    def test_narrowband_short_time_slope(self):
        model, em = nb_resonant(q=10.0)
        t = 1e-3 / model.kappa
        res = decay_rate_numeric(model, em, t, CFG)
        assert abs(res.value / (zeno_slope(model) * t) - 1.0) < 1e-2


class TestGoldenRuleLimit:
    def test_broadband_sub_ohmic_long_time(self):
        r = bb(0.5)
        res = decay_rate_numeric(r, EM, 1e3, CFG)
        assert abs(res.value / golden_rule_rate(r, EM) - 1.0) < 0.02

    def test_narrowband_inverse_e_anchor(self):
        model, em = nb_resonant(q=1000.0)
        res = decay_rate_numeric(model, em, 1.0 / model.kappa, CFG)
        ratio = res.value / golden_rule_rate(model, em)
        assert abs(ratio - math.exp(-1.0)) / math.exp(-1.0) < 5e-3


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "eta,t",
        [(0.5, 4e-6), (0.5, 10.0), (1.0, 0.1), (2.0, 1.0), (3.0, 10.0)],
    )
    def test_broadband(self, eta, t):
        r = bb(eta)
        a = decay_rate_numeric(r, EM, t, CFG)
        b = decay_rate_numeric_oracle(r, EM, t, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8

    @pytest.mark.parametrize("q,kt,d", [(10.0, 1.0, 0.0), (10.0, 1.0, 5.0), (1000.0, 1e-3, 0.0)])
    def test_narrowband(self, q, kt, d):
        model, em = nb_resonant(q=q)
        em = EmitterSpec(em.omega0 + d * model.kappa)
        a = decay_rate_numeric(model, em, kt / model.kappa, CFG)
        b = decay_rate_numeric_oracle(model, em, kt / model.kappa, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8

    def test_power_lorentz_cutoff(self):
        r = bb(1.5, cutoff=PowerLorentzCutoff(mu=4.0))
        a = decay_rate_numeric(r, EM, 5.0, CFG)
        b = decay_rate_numeric_oracle(r, EM, 5.0, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8

    def test_each_node_evaluated_once(self, monkeypatch):
        # Q = 1000 at kappa*t = 1 converges at level 17; the nested levels
        # evaluate each node once, in passes of at most _CHUNK nodes
        calls = []
        rsc = quadrature.evaluate_rsc

        def record(reservoir, omega):
            calls.append(np.array(omega))
            return rsc(reservoir, omega)

        monkeypatch.setattr(quadrature, "evaluate_rsc", record)
        model, em = nb_resonant(q=1000.0)
        res = decay_rate_numeric_oracle(model, em, 1.0 / model.kappa, CFG)
        assert max(c.size for c in calls) <= _CHUNK
        omega = np.concatenate(calls)
        assert omega.size == res.panels_used
        # near the domain ends tanh rounds to +-1, so there distinct nodes
        # share one omega (0 and omega_max most of all)
        top = res.truncation_frequency
        inner = omega[(omega > 1e-9 * top) & (omega < (1.0 - 1e-9) * top)]
        assert inner.size > 0.4 * omega.size
        assert np.unique(inner).size == inner.size


class TestInvariances:
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_broadband_coupling_scale(self, t):
        a = decay_rate_numeric(bb(2.0, coupling=1e-3), EM, t, CFG)
        b = decay_rate_numeric(bb(2.0, coupling=1e-2), EM, t, CFG)
        ra = a.value / golden_rule_rate(bb(2.0, coupling=1e-3), EM)
        rb = b.value / golden_rule_rate(bb(2.0, coupling=1e-2), EM)
        assert abs(ra - rb) <= 1e-12 * abs(ra)

    def test_narrowband_coupling_scale(self):
        m1, em = nb_resonant(q=10.0, g=1.0)
        m2, _ = nb_resonant(q=10.0, g=10.0)
        a = decay_rate_numeric(m1, em, 1.0, CFG).value / golden_rule_rate(m1, em)
        b = decay_rate_numeric(m2, em, 1.0, CFG).value / golden_rule_rate(m2, em)
        assert abs(a - b) <= 1e-12 * abs(a)

    @pytest.mark.parametrize(
        "model,em,t",
        [
            (bb(0.5), EM, 0.3),
            (bb(3.0), EM, 20.0),
            (NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), EmitterSpec(25.0), 2.0),
        ],
    )
    def test_nonnegative(self, model, em, t):
        assert decay_rate_numeric(model, em, t, CFG).value >= 0.0

    # the references are 25-digit mpmath values from
    # benchmark/make_refs.py::exact_rate, which shares no code with the
    # integrators
    EXACT_REFERENCES = pytest.mark.parametrize(
        "model,em,t,reference",
        [
            (bb(2.0), EM, 0.1, 0.020412734391204283),
            (bb(0.5), EM, 30.0, 0.09871843110693507),
            (
                NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0),
                EmitterSpec(20.0),
                1.0,
                0.7357292394136496,
            ),
        ],
        ids=["eta2-w0t0.1", "eta0.5-w0t30", "narrowband-kt1"],
    )

    @EXACT_REFERENCES
    def test_exact_reference_within_error_estimate(self, model, em, t, reference):
        res = decay_rate_numeric(model, em, t, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    @EXACT_REFERENCES
    def test_oracle_exact_reference_within_error_estimate(self, model, em, t, reference):
        res = decay_rate_numeric_oracle(model, em, t, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    @EXACT_REFERENCES
    def test_oracle_unconverged_estimate_carries_level_difference(
        self, model, em, t, reference
    ):
        # a result carried by ConvergenceError counts its last level
        # difference, as a converged one does, not only the tail bound
        results = {}
        for level in (7, 8):
            with pytest.raises(ConvergenceError) as excinfo:
                decay_rate_numeric_oracle(model, em, t, CFG, max_level=level)
            results[level] = excinfo.value.result
        assert results[8].error_estimate >= abs(results[8].value - results[7].value)

    @pytest.mark.parametrize(
        "model,em,t,reference",
        [
            (bb(0.5), EM, 30.0, 0.09871843110693507),
            (NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0), EM, 0.02, 1.9678612671256706e-08),
            (*nb_resonant(q=1000.0), 1e-3, 0.0009996234699997635),
        ],
        ids=["eta0.5-w0t30", "narrowband-kt1e-3", "narrowband-q1000-kt1e-3"],
    )
    def test_oracle_abscissae_near_zero_keep_their_digits(self, model, em, t, reference):
        # at rel_tol 1e-12 these missed their estimates by up to 2.1x while
        # each node's omega = half*(1 + tanh(z)) lost eps*half to cancellation
        res = decay_rate_numeric_oracle(model, em, t, QuadratureConfig(rel_tol=1e-12))
        assert abs(res.value - reference) <= res.error_estimate

    # late fig1 points, where rounding the global phase (omega - omega0)*t/2
    # of the sinc kernel would cost about eps*omega0*t; the references are
    # the 25-digit mpmath values of benchmark/refs (grid offset 1)
    LATE_FIG1 = [
        (eta, w0t) for eta in (0.5, 1.0, 2.0, 3.0) for w0t in (3278.1, 18434.2, 43714.4)
    ]

    @pytest.mark.parametrize("eta,w0t", LATE_FIG1)
    def test_late_fig1_within_error_estimate(self, eta, w0t):
        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmark", "refs", "fig1_broadband-offset1.json"
        )
        with open(path) as fh:
            curve = next(c for c in json.load(fh)["curves"] if c["eta"] == eta)
        i = min(range(len(curve["t"])), key=lambda k: abs(curve["t"][k] - w0t))
        assert curve["source"][i] == "mpmath" and abs(curve["t"][i] - w0t) < 0.1
        res = decay_rate_numeric(bb(eta), EM, curve["t"][i], CFG)
        assert abs(res.value - curve["value"][i]) <= res.error_estimate + curve["error"][i]


class TestErrors:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            decay_rate_numeric(bb(1.0), EM, 0.0, CFG)
        with pytest.raises(ValueError):
            decay_rate_numeric_oracle(bb(1.0), EM, -1.0, CFG)

    @pytest.mark.parametrize("max_level", [5, 6, 2.5])
    def test_oracle_rejects_bad_max_level(self, max_level):
        with pytest.raises(ValueError, match="max_level"):
            decay_rate_numeric_oracle(bb(1.0), EM, 1.0, CFG, max_level=max_level)

    def test_divergent_integral_rejected(self):
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=0.6)
        r = bb(2.5, cutoff=cutoff)
        with pytest.raises(ValueError, match="diverges"):
            decay_rate_numeric(r, EM, 1.0, CFG)

    def test_rejects_times_past_exact_half_lobe_indices(self):
        # omega0*t >= pi*2**53: half-lobe indices are no longer exact floats
        for integrator in (decay_rate_numeric, decay_rate_numeric_oracle):
            with pytest.raises(ValueError, match="t = 1e[+]19"):
                integrator(bb(0.5), EM, 1e19, CFG)
        # a line's centre counts too: omega_c*t = 3e16 at omega0*t = 1.5e15
        model, _ = nb_resonant(q=10.0)
        with pytest.raises(ValueError, match="too late"):
            decay_rate_numeric(model, EM, 1.5e15, CFG)

    def test_latest_accepted_time(self):
        # omega0*t = 2.5e16, just below the limit: the value the integrator
        # gave before the limit existed, without a RuntimeWarning
        res = decay_rate_numeric(bb(0.5), EM, 2.5e16, CFG)
        assert res == IntegrationResult(
            0.09894929280922665, 3.5565116973142965e-10, 40314, 9407.755278982137
        )

    def test_convergence_error_carries_best_result(self):
        cfg = QuadratureConfig(rel_tol=1e-16)
        with pytest.raises(ConvergenceError) as excinfo:
            decay_rate_numeric(bb(2.0), EM, 1.0, cfg)
        best = excinfo.value.result
        assert isinstance(best, IntegrationResult)
        reference = decay_rate_numeric(bb(2.0), EM, 1.0, CFG).value
        assert best.value == pytest.approx(reference, rel=1e-6)


class TestTruncation:
    def test_exponential_cutoff_formula(self):
        r = bb(1.0)
        w = truncation_frequency(r, EM, 1.0, CFG)
        expected = 250.0 * math.log(1.0 / CFG.tail_epsilon) + 10.0 * 250.0
        assert w == pytest.approx(expected, rel=1e-12)

    def test_power_lorentz_capped(self):
        r = bb(1.0, cutoff=PowerLorentzCutoff(mu=4.0))
        w = truncation_frequency(r, EM, 1.0, CFG)
        assert w <= 1e3 * r.omega_x + 1e-9

    def test_power_lorentz_limit_below_the_cap_is_eps_to_one_over_p(self):
        # wherever eps**(1/p) stays finite the limit is the capped power,
        # bit for bit; as p = eta + 1 - 2*mu rises to 0 it is the cap
        for mu in (4.0, 8.0):
            for eta in np.linspace(0.0, 2.0 * mu - 1.0, 41)[:-1]:
                r = bb(float(eta), cutoff=PowerLorentzCutoff(mu=mu))
                p = eta + 1.0 - 2.0 * mu
                expected = min(r.omega_x * CFG.tail_epsilon ** (1.0 / p), 1e3 * r.omega_x)
                assert truncation_frequency(r, EM, 1.0, CFG) == expected
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.6)
        # p = -0.01: eps**(1/p) would overflow
        r = bb(2.19, cutoff=cutoff)
        assert truncation_frequency(r, EM, 1.0, CFG) == 1e3 * r.omega_x

    def test_mass_edge_ends_on_the_tail_bound(self):
        # just below eta = 2*mu - 1 the tail beyond 1e3*omega_x is heavy:
        # the point ends as a tail-bound ConvergenceError
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.6)
        with pytest.raises(ConvergenceError, match="tail bound"):
            decay_rate_numeric(bb(2.19, cutoff=cutoff), EM, 10.0, CFG)

    def test_exponential_tail_mass_bounds_gammainc(self):
        # the closed-form tail mass against the exact upper incomplete gamma
        # Gamma(eta+1, omega_max/omega_x): never below it (but for rounding),
        # never above 1.5x, and within 1% at the default tail_epsilon for eta <= 10
        epsilons = [1e-300, 1e-100, 1e-30, 1e-16, 1e-12, 1e-4, 0.1, 0.999]
        with mp.workdps(30):
            for eta in np.arange(0.0, 170.125, 0.25):
                r = BroadbandReservoir(coupling=1.0, eta=float(eta), omega_x=1.0)
                for eps in epsilons:
                    cfg = QuadratureConfig(tail_epsilon=eps)
                    x = truncation_frequency(r, EM, 1.0, cfg)
                    ratio = _tail_mass(r, x) / mp.gammainc(eta + 1.0, x)
                    assert 1.0 - 1e-12 <= ratio <= 1.5, (eta, eps, ratio)
                    if eps == 1e-12 and eta <= 10.0:
                        assert ratio <= 1.01, (eta, ratio)

    @pytest.mark.parametrize(
        "eta, t, reference",
        [
            # 25-digit mpmath values of the time-domain identity
            (20.0, 1e-3, 1.323441904073873e16),
            (20.0, 1.0, 12810440419563.117),
            (40.0, 1e-3, 1.3644222988792526e45),
            (40.0, 1.0, 1.0462654906993125e42),
        ],
    )
    def test_peak_beyond_default_cut(self, eta, t, reference):
        # the spectral peak eta*omega_x lies past omega_x*(ln(1/eps) + 10),
        # so the cut moves out and the tail no longer swamps the estimate
        r = bb(eta)
        assert truncation_frequency(r, EM, t, CFG) > 1.5 * eta * r.omega_x
        res = decay_rate_numeric(r, EM, t, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    def test_tail_is_negligible(self):
        # the neglected contribution above the cut (RSC mass times the
        # profile envelope there) is far below the tolerance budget
        r = bb(3.0)
        t = 1.0
        w = truncation_frequency(r, EM, t, CFG)
        grid = np.geomspace(w, 10.0 * w, 20001)
        tail_mass = float(np.trapezoid(evaluate_rsc(r, grid), grid))
        bound = tail_mass * min(t, 4.0 / (t * (w - EM.omega0) ** 2))
        assert bound < 1e-10 * decay_rate_numeric(r, EM, t, CFG).value


class TestPanels:
    @pytest.mark.parametrize(
        "model,em,t",
        [
            # high-Q late-time point whose zero block has ~1e4 lobes per side,
            # where a block edge counted apart from its neighbour's can lose a lobe
            (NarrowbandReservoir(g=1e-3, kappa=5e-4, omega_c=1.0), EM, 14467.883254733497),
            # more lobes left of the transition than the cap: a block at omega = 0
            (bb(0.5), EM, 77736.50302387758),
            # a far-detuned line: at the largest cap its block merges with
            # the transition's
            (NarrowbandReservoir(g=1e-3, kappa=1e-5, omega_c=1.0), EmitterSpec(2.0), 1e5),
            # ... or stands apart from it
            (NarrowbandReservoir(g=1e-3, kappa=1e-3, omega_c=5.0), EM, 1e5),
            # an early fractional eta: half-lobes wider than the cap 0.6*omega
            # that grows away from the branch point at omega = 0
            (bb(0.5), EM, 6.7e-4),
            # a line with kappa*t < pi inside the stub below the first zero
            (NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0), EM, 0.02),
        ],
        ids=[
            "resonant-high-q",
            "edge-block",
            "line-block-merged",
            "line-block-apart",
            "fractional-early",
            "line-in-stub",
        ],
    )
    def test_panels_tile_the_domain(self, model, em, t):
        # at the smallest and the largest block half-width
        omega_max = truncation_frequency(model, em, t, CFG)
        for cap in (_CAPS[0], _CAPS[-1]):
            self.check_tiling(model, em, t, omega_max, cap)

    def check_tiling(self, model, em, t, omega_max, cap):
        a, b, m, kind = _build_panels(model, em, t, omega_max, cap)
        # phase panels carry local phase edges; compare them as frequencies
        phase = kind == _PHASE
        assert phase.any()
        width = np.where(phase, (b - a) * (2.0 / t), b - a)
        a = np.where(phase, _phase_omega(em.omega0, t, m, a), a)
        b = np.where(phase, _phase_omega(em.omega0, t, m, b), b)
        self.check_caps(model, em, t, a, b, width, kind)
        assert a[0] == 0.0
        assert b[-1] == pytest.approx(omega_max, rel=1e-9)
        assert np.all(b > a)
        np.testing.assert_allclose(a[1:], b[:-1], rtol=1e-9, atol=0.0)
        # no envelope run reaches omega = 0, and each ends on a kernel zero
        # as the half-lobe edges compute it, bit for bit (or at omega_max)
        smooth = kind == _SMOOTH
        assert np.all(a[smooth] > 0.0)
        ends = np.concatenate(
            [a[smooth & ~np.roll(smooth, 1)], b[smooth & ~np.roll(smooth, -1)]]
        )
        ends = ends[ends != omega_max]
        k = np.round((ends - em.omega0) * t / (2.0 * math.pi))
        assert np.array_equal(ends, _phase_omega(em.omega0, t, 2 * k, 0.0))
        if isinstance(model, NarrowbandReservoir):
            # the line centre lies inside a phase block
            assert np.any(phase & (a <= model.omega_c) & (b >= model.omega_c))

    def check_caps(self, model, em, t, a, b, width, kind):
        # Each panel [a, b] is at most clip(alpha*d, lo, hi) wide, d the
        # distance of its nearest point from p (a panel that reaches p with
        # lo = 0 only hi wide), and a profile panel at most _PHASE_CAP/t:
        # by construction, up to the rounding of a half-lobe's frequencies.
        p, alpha, lo, hi = _rsc_cap(model)
        near = np.maximum(0.0, np.maximum(a - p, p - b))
        cap = np.clip(alpha * near, lo, hi)
        if lo == 0.0:
            cap[near == 0.0] = hi
        slack = 16.0 * _EPS * (np.abs(b) + em.omega0)
        assert np.all(width <= cap * (1.0 + 1e-12) + slack)
        profile = kind == _PROFILE
        assert np.all(width[profile] <= _PHASE_CAP / t * (1.0 + 1e-12))

    def test_fractional_early_point_stays_small(self):
        # Cutting a too-wide panel into equal parts gives all of it the cap
        # at its near end, the smallest of the cap 0.6*omega there; that made
        # this point 7,899 panels. The layout that bisected each panel until
        # it fit had 123 here.
        res = decay_rate_numeric(bb(0.5), EM, 6.7e-4, CFG)
        assert res.panels_used < 2 * 123

    def test_line_in_stub_value(self):
        # the line-in-stub point above, which the layout that bisected each
        # panel refined and this one converges in its first round
        model = NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0)
        cfg = QuadratureConfig(rel_tol=1e-12)
        res = decay_rate_numeric(model, EM, 0.02, cfg)
        oracle = decay_rate_numeric_oracle(model, EM, 0.02, cfg)
        assert res.value == pytest.approx(oracle.value, rel=1e-10)
        # 25-digit mpmath value of the closed-form Lorentzian identity
        reference = 1.9678612671256706e-08
        assert abs(res.value - reference) <= res.error_estimate


class TestFarField:
    # Envelope runs carry the far field -int S cos(delta*t) as a boundary
    # term plus an O(t**-4) remainder, so each point's first layout is its
    # last unless bisection is needed. The references are 25-digit values of
    # benchmark/make_refs.py::exact_rate.

    def one_round(self, model, em, t, cfg):
        first = first_layout_size(model, em, t, cfg)
        res = decay_rate_numeric(model, em, t, cfg)
        assert res.panels_used == first
        return res

    def test_edge_block_converges_in_one_round(self):
        # the late eta = 0.5 point that once needed a fourfold wider zero block
        res = self.one_round(bb(0.5), EM, 77736.50302387758, CFG)
        assert abs(res.value - 0.09894920211783992) <= res.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_no_envelope_run_starts_at_zero(self, exact_rate, rel_tol):
        # eta = 0: a run left of the transition that began at 1.1e-16 instead
        # of 0 skipped the S(0)/t edge term, missing its estimate 1,280-fold
        model, t = BroadbandReservoir(1e-3, 0.0, 57.39741625910708), 126577.15353015346
        res = self.one_round(model, EM, t, QuadratureConfig(rel_tol=rel_tol))
        reference = exact_rate(model, EM, t)
        assert abs(res.value - reference) <= res.error_estimate

    def test_strict_tolerance_in_one_round(self, exact_rate):
        # an eta = 2 point where the divided-difference bound on the dropped
        # oscillation could not be brought under rel_tol 1e-12
        model, t = bb(2.0, omega_x=590.716), 80.296
        res = self.one_round(model, EM, t, QuadratureConfig(rel_tol=1e-12))
        assert abs(res.value - exact_rate(model, EM, t)) <= res.error_estimate

    def test_far_detuned_line(self, exact_rate):
        # the Lorentzian peak lies 15,915 lobes below the transition, outside
        # its block: without a block of its own the far-field bound is 3x
        # the value
        model, em = NarrowbandReservoir(g=1e-3, kappa=1e-5, omega_c=1.0), EmitterSpec(2.0)
        t = 1.0 / model.kappa
        res = self.one_round(model, em, t, CFG)
        assert abs(res.value - exact_rate(model, em, t)) <= res.error_estimate

    def test_line_detuning_formed_from_its_lobe(self, exact_rate):
        # the same line at rel_tol 1e-12: with omega - omega_c formed from a
        # rounded omega, each node near the line carried eps*omega_c/kappa of
        # relative error, and the value missed its estimate 2.7-fold
        model, em = NarrowbandReservoir(g=1e-3, kappa=1e-5, omega_c=1.0), EmitterSpec(2.0)
        t = 1.0 / model.kappa
        res = self.one_round(model, em, t, QuadratureConfig(rel_tol=1e-12))
        assert abs(res.value - exact_rate(model, em, t)) <= res.error_estimate

    @pytest.mark.parametrize(
        "eta,omega_x,reference",
        [
            (1.5, 100.0, 0.000622066656882241),
            (0.5, 250.0, 0.09894929283575281),
            (4.0, 1e4, 1.0282957080130803e-14),
        ],
        ids=["eta1.5", "eta0.5", "eta4"],
    )
    def test_run_ends_are_zeros_to_rounding(self, eta, omega_x, reference):
        # At omega0*t = 1e12 a run end's phase (z - omega0)*t is off a
        # multiple of 2*pi by about eps*omega0*t, so each end leaves an
        # S*sin(delta*t)/t term of about 2R*eps*omega0*t/(2*pi*c)**2; without
        # its bound these points missed by 3.25, 2.42 and 2.76 times the
        # estimate. The references are exact_rate's, at 40 digits for eta = 4
        # (25 digits lose 6.7e-13 relative there).
        res = decay_rate_numeric(bb(eta, omega_x=omega_x), EM, 1e12, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    @pytest.mark.parametrize(
        "model,em,t",
        [
            (bb(0.5), EM, 77736.50302387758),
            (NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=4.36), EmitterSpec(14.83), 8515.0),
        ],
        ids=["edge-block", "detuned-line"],
    )
    def test_tolerance_sets_the_cap(self, exact_rate, model, em, t):
        # at rel_tol 1e-8 a block a tenth of the largest bounds the far field
        # (an eta = 0.5 point with 40,160 panels at the largest cap, and a
        # line with kappa*t = 8515 that needs no block of 60,288 panels);
        # rel_tol 1e-12 takes a wider one
        omega_max = truncation_frequency(model, em, t, CFG)
        top = _build_panels(model, em, t, omega_max, _CAPS[-1])[0].size
        reference = exact_rate(model, em, t)
        used = []
        for rel_tol in (1e-8, 1e-12):
            res = self.one_round(model, em, t, QuadratureConfig(rel_tol=rel_tol))
            assert abs(res.value - reference) <= res.error_estimate
            used.append(res.panels_used)
        assert used[0] < 0.1 * top
        assert used[0] < used[1] <= top


def property_points(seed=12):
    """A seeded grid of (id, model, emitter, t), all with omega0*t <= 1e5.

    Twelve exponential-cutoff points with eta <= 4 and omega_x/omega0 in
    [10, 1e4], and twelve Lorentzian lines with Q <= 1000: resonant, detuned
    by 5 to 100 kappa, or with omega0 in [0.05, 4]*omega_c. The last four of
    each family lie where a fixed 200-lobe block failed at rel_tol 1e-12:
    eta >= 1.4 at omega0*t <= 3, and detuned lines with kappa*t in [3.6, 240].
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(12):
        hard = i >= 8
        eta = rng.uniform(1.4 if hard else 0.0, 4.0)
        omega_x = 10.0 ** rng.uniform(1.0, 4.0)
        w0t = 10.0 ** (rng.uniform(-0.5, 0.5) if hard else rng.uniform(-3.0, 5.0))
        points.append((f"bb-{i}", bb(eta, omega_x=omega_x), EM, w0t))
    for i in range(12):
        q = 10.0 ** rng.uniform(0.0, 3.0)
        model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=2.0 * q)
        if i < 3:
            omega0 = model.omega_c
        elif i < 8 and i % 2:
            omega0 = model.omega_c * rng.uniform(0.05, 4.0)
        else:
            omega0 = model.omega_c + rng.uniform(5.0, 100.0)
        kt = 10.0 ** (rng.uniform(math.log10(3.6), math.log10(240.0)) if i >= 8
                      else rng.uniform(-3.0, 3.0))
        t = min(kt / model.kappa, 1e5 / omega0)
        points.append((f"nb-{i}", model, EmitterSpec(omega0), t))
    return points


PROPERTY_POINTS = property_points()

# benchmark/make_refs.py::exact_rate(model, emitter, t) at its 25 digits for
# each point of PROPERTY_POINTS, pasted as repr floats: printing
# {name: exact_rate(model, em, t)} over property_points() gives this table
PROPERTY_REFERENCES = {
    "bb-0": 0.3313059777618677,
    "bb-1": 0.08564595862006567,
    "bb-2": 3.2961175371199935e-05,
    "bb-3": 0.000158172753256153,
    "bb-4": 0.056803968167223155,
    "bb-5": 6.897785907523317e-05,
    "bb-6": 0.005404604380643518,
    "bb-7": 3.0101912359188717e-07,
    "bb-8": 0.002278673985439304,
    "bb-9": 0.00578080387423292,
    "bb-10": 0.0013643030783972046,
    "bb-11": 0.0016144148587831765,
    "nb-0": 1.995726196936993,
    "nb-1": 1.5072450927485983,
    "nb-2": 0.0851901603316908,
    "nb-3": 0.010442958424571162,
    "nb-4": 0.0005476795062776494,
    "nb-5": 0.00019346036903255525,
    "nb-6": 0.0029353817729841354,
    "nb-7": 1.3010686251680983e-06,
    "nb-8": 0.0002640745362609922,
    "nb-9": 0.0007555758359410427,
    "nb-10": 0.0005168260426170003,
    "nb-11": 0.00023694252062227578,
}


class TestExactProperty:
    # every point of the seeded grid converges at both tolerances, within
    # its own estimate of the 25-digit rate; a failure here is a finding
    # to record, not a case to drop

    def test_table_covers_the_grid(self):
        assert list(PROPERTY_REFERENCES) == [p[0] for p in PROPERTY_POINTS]

    @pytest.mark.parametrize("name", ["bb-0", "nb-0"])
    def test_table_is_exact_rate(self, exact_rate, name):
        # one live reference per family, so the table stays the one
        # exact_rate gives
        _, model, em, t = next(p for p in PROPERTY_POINTS if p[0] == name)
        reference = PROPERTY_REFERENCES[name]
        assert exact_rate(model, em, t) == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    @pytest.mark.parametrize(
        "point", PROPERTY_POINTS, ids=[p[0] for p in PROPERTY_POINTS]
    )
    def test_within_estimate_of_exact_rate(self, point, rel_tol):
        name, model, em, t = point
        res = decay_rate_numeric(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - PROPERTY_REFERENCES[name]) <= res.error_estimate


def sweep_points(seed=11, n=600):
    """A seeded sweep of (family, model, emitter, t), one family in turn.

    Exponential cutoff: eta in [0, 4], omega_x/omega0 in [10, 1e4],
    omega0*t in [1e-4, 2e5]. Lorentzian: Q in [1, 1e3], resonant, detuned
    by 5 to 100 kappa, or with omega0 in [0.05, 4]*omega_c; kappa*t in
    [1e-3, 1e3] with omega0*t <= 2e5. Power-Lorentz: mu in {1.6, 2, 4, 8},
    eta < min(4, 2*mu + 1), half of them (where it lies below 4) within
    1e-3 to 1 of eta = 2*mu - 1, where the RSC mass starts to diverge;
    omega0*t in [1e-3, 1e5].
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        family = ("exponential", "lorentzian", "power_lorentz")[i % 3]
        if family == "lorentzian":
            q = 10.0 ** rng.uniform(0.0, 3.0)
            model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=2.0 * q)
            kind = rng.integers(3)
            if kind == 0:
                omega0 = model.omega_c
            elif kind == 1:
                omega0 = model.omega_c + rng.uniform(5.0, 100.0)
            else:
                omega0 = model.omega_c * rng.uniform(0.05, 4.0)
            t = min(10.0 ** rng.uniform(-3.0, 3.0), 2e5 / omega0)
            points.append((family, model, EmitterSpec(omega0), t))
            continue
        omega_x = 10.0 ** rng.uniform(1.0, 4.0)
        if family == "exponential":
            model = bb(rng.uniform(0.0, 4.0), omega_x=omega_x)
            t = 10.0 ** rng.uniform(-4.0, math.log10(2e5))
        else:
            mu = float(rng.choice([1.6, 2.0, 4.0, 8.0]))
            edge = 2.0 * mu - 1.0
            if edge < 4.0 and rng.uniform() < 0.5:
                eta = edge + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0)
            else:
                eta = rng.uniform(0.0, min(4.0, 2.0 * mu + 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cutoff = PowerLorentzCutoff(mu=mu)
            model = bb(eta, omega_x=omega_x, cutoff=cutoff)
            t = 10.0 ** rng.uniform(-3.0, 5.0)
        points.append((family, model, EM, t))
    return points


class TestSeededSweep:
    # each point is one layout: no exponential or Lorentzian point may be
    # flagged, a power-Lorentz point only on its tail bound, and nothing
    # raises but ConvergenceError

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_only_heavy_tails_are_flagged(self, rel_tol):
        cfg = QuadratureConfig(rel_tol=rel_tol)
        flagged = []
        for family, model, em, t in sweep_points():
            try:
                decay_rate_numeric(model, em, t, cfg)
            except ConvergenceError as exc:
                if family != "power_lorentz" or "tail bound" not in str(exc):
                    flagged.append((family, model, em, t, str(exc)))
        assert flagged == []


class TestRefinement:
    # each point is one layout, evaluated once: a line that panels widening
    # by ratio 2 away from its centre leave short of rel_tol 1e-12, and
    # heavy tails whose bound beyond omega_max no layout can lower

    def test_bisection(self):
        # a resonant Q = 100 line at kappa*t = 0.1: with widths growing by
        # ratio 1.6 away from the line its one layout meets rel_tol 1e-12
        model = NarrowbandReservoir(g=1e-3, kappa=5e-3, omega_c=1.0)
        cfg = QuadratureConfig(rel_tol=1e-12)
        t = 20.0
        first = first_layout_size(model, EM, t, cfg)
        res = decay_rate_numeric(model, EM, t, cfg)
        assert res.panels_used == first
        oracle = decay_rate_numeric_oracle(model, EM, t, cfg)
        assert res.value == pytest.approx(oracle.value, rel=1e-10)
        # 25-digit mpmath value of the closed-form Lorentzian identity
        reference = 1.9349612765140062e-05
        assert abs(res.value - reference) <= res.error_estimate

    def test_tail_bound_above_tolerance_stops_refinement(self):
        # a heavy power-Lorentz tail: the bound beyond omega_max alone
        # exceeds rel_tol*value, and no panel can lower it
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.6)
        model, t = bb(2.0, cutoff=cutoff), 10.0
        first = first_layout_size(model, EM, t, CFG)
        with pytest.raises(ConvergenceError, match="tail bound") as excinfo:
            decay_rate_numeric(model, EM, t, CFG)
        assert excinfo.value.result.panels_used == first

    def test_divergent_rsc_mass_reaches_the_tail_bound(self):
        # mu = 1.2 < (eta + 1)/2: the RSC mass diverges, so the short-time
        # slope that the far-field budget is scaled by is infinite, but the
        # rate is finite and the point ends as the mu = 1.6 one does
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.2)
        model, t = bb(2.0, cutoff=cutoff), 10.0
        with pytest.raises(ConvergenceError, match="tail bound") as excinfo:
            decay_rate_numeric(model, EM, t, CFG)
        assert excinfo.value.result.panels_used == first_layout_size(model, EM, t, CFG)


class TestRateCurve:
    def test_single_point_matches_direct_call(self):
        r = bb(1.0)
        curve = rate_curve(r, EM, [2.0], CFG)
        direct = decay_rate_numeric(r, EM, 2.0, CFG)
        assert curve.ratios[0] == direct.value / golden_rule_rate(r, EM)
        assert len(curve) == 1
        # every point of a curve is the direct call's result, bit for bit
        r = bb(2.0)
        grid = np.geomspace(0.01, 100.0, 13)
        curve = rate_curve(r, EM, grid, CFG)
        gamma0 = golden_rule_rate(r, EM)
        for i, t in enumerate(grid):
            direct = decay_rate_numeric(r, EM, float(t), CFG)
            assert curve.ratios[i] == direct.value / gamma0
            assert curve.error_estimates[i] == direct.error_estimate / gamma0
        assert not curve.flagged.any()

    def test_threaded_matches_serial_bitwise(self):
        # rate_curve keeps no mutable module state, so callers that compute
        # curves from several threads at once get the serial bytes back
        from concurrent.futures import ThreadPoolExecutor

        r = bb(2.0)
        grids = [np.geomspace(0.01, 100.0, 13), np.geomspace(0.02, 50.0, 7)]
        serial = [rate_curve(r, EM, g, CFG) for g in grids]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda g: rate_curve(r, EM, g, CFG), grids))
        for s, c in zip(serial, threaded):
            assert np.array_equal(s.ratios, c.ratios)
            assert np.array_equal(s.error_estimates, c.error_estimates)

    def test_regime_labels_and_metadata(self):
        r = bb(2.0)
        curve = rate_curve(r, EM, [4e-6, 0.1, 1e3], CFG)
        assert curve.regime_labels == ("cutoff", "intermediate", "resonant")
        assert curve.model_metadata["t_scale"] == 1.0
        assert curve.model_metadata["model"]["type"] == "broadband"

    def test_narrowband_labels(self):
        model, em = nb_resonant(q=10.0)
        curve = rate_curve(model, em, [1e-3, 1.0, 1e3], CFG)
        assert curve.regime_labels == ("zeno", "crossover", "fermi")

    def test_flagged_points_kept(self):
        cfg = QuadratureConfig(rel_tol=1e-16)
        r = bb(2.0)
        curve = rate_curve(r, EM, [0.5, 1.0], cfg)
        assert bool(np.all(curve.flagged))
        assert np.all(curve.ratios > 0.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            rate_curve(bb(1.0), EM, [2.0, 1.0], CFG)
        with pytest.raises(ValueError):
            rate_curve(bb(1.0), EM, [], CFG)

    def test_fast_growing_spectrum_curve_shape(self):
        # rise from zero, a large transient overshoot above the long-time
        # value, then 1/t relaxation back to it
        r = bb(2.0)
        grid = np.geomspace(1e-8, 1e4, 37)
        curve = rate_curve(r, EM, grid, CFG)
        peak = int(np.argmax(curve.ratios))
        assert 0 < peak < len(curve) - 1
        assert curve.ratios[0] < 1.0
        assert curve.ratios[peak] > 10.0
        assert abs(curve.ratios[-1] - 1.0) < 0.05
        assert np.all(np.diff(curve.ratios[: peak + 1]) > 0.0)
        tail = curve.ratios[peak:]
        assert np.all(np.diff(tail) < 0.0)
        assert np.all(tail > 1.0)
