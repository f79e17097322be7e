"""Generalized decay rates of a two-level emitter coupled to broadband or
narrowband reservoirs, with closed-form regime approximations and empirical
detection of the golden-rule onset time."""

from .analytic import (
    BroadbandRateParts,
    Regime,
    Visibility,
    broadband_rate_analytic,
    broadband_resonant_part,
    broadband_tail_part,
    classify_regime,
    narrowband_rate_detuned,
    narrowband_rate_resonant,
    onset_time_broadband,
    onset_time_narrowband,
)
from .errors import (
    ConvergenceError,
    FitWindowError,
    GridCoverageError,
    RegimeSeparationError,
    UnconvergedPointError,
)
from .kernel import kernel_zeros, spectral_profile
from .onset import (
    DecayClassification,
    RateCurve,
    SurvivalPoint,
    empirical_onset,
    survival_probability,
    tail_slope_fit,
    zeno_classifier,
)
from .quadrature import (
    IntegrationResult,
    QuadratureConfig,
    decay_rate_numeric,
    decay_rate_numeric_oracle,
    rate_curve,
    truncation_frequency,
)
from .reservoir import (
    BroadbandReservoir,
    CutoffKind,
    EmitterSpec,
    ExponentialCutoff,
    NarrowbandReservoir,
    PowerLorentzCutoff,
    cutoff_constant,
    evaluate_rsc,
    golden_rule_rate,
    golden_rule_rate_approx,
    zeno_slope,
)

__version__ = "0.1.0"
