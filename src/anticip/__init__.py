"""Anticipation statistics of orthogonally evolving quantum states.

Library surface: spectral differences and half-step amplitudes (`spectral`),
extremal model states (`models`), closed-form statistics (`closed_form`),
Monte Carlo sampling (`sampling`), measure-level frequency bounds (`bounds`),
and the verification criteria (`verify`).
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    DiscreteMeasure,
    OrthogonalityError,
    abs_moment,
    build_orthogonal_measure,
    check_bounds,
    median_minimizer,
)
from .closed_form import (
    LeadingOrder,
    MomentTuple,
    abs_s_squared,
    continuous_expected_pn,
    expected_moment_observable,
    expected_pN,
    expected_pn,
    expected_ptot,
    lemma_unit_sum,
    var_pN,
    var_pn,
)
from .models import DegenerateModelError, ModelSpec, closed_form_pn, make_model
from .rng import stream
from .sampling import (
    EstimateReport,
    MomentAccumulator,
    MonteCarloConfig,
    SamplingDistribution,
    merge_accumulators,
    near_zero_statistics,
    parse_distribution,
    run_monte_carlo,
    tail_exceedance,
)
from .spectral import (
    AmplitudeSeries,
    ProbabilitySeries,
    SpectralDifferenceContinuous,
    SpectralDifferencePeriodic,
    amplitudes_continuous,
    amplitudes_periodic,
    folded_index,
    probabilities,
    truncation_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
