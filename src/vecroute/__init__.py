"""Iterative routing of vector sequences with additive credit assignment.

The package turns n_inp input vectors into n_out output vectors through
an expectation-maximization loop in which outputs compete for each
input's activated data. Two interchangeable engines implement the same
semantics: :mod:`vecroute.reference`, a pluggable formulation that
materializes every per-(input, output) proposal and serves as the
correctness oracle, and :mod:`vecroute.optimized`, a concrete
parameterization that contracts over inputs first and never allocates
the proposal tensor. Each pass yields a credit matrix attributing
outputs to inputs additively; :mod:`vecroute.credit` composes those
matrices across sequential, residual, summed, and concatenated network
structure. :mod:`vecroute.params_io` pins deterministic initialization
and a bit-exact file format, and :mod:`vecroute.bench` measures the
scaling story (``vecroute-bench`` on the command line).
"""

from .tensor import (
    ALWAYS_ON,
    VARIANCE_EPS,
    AlwaysOn,
    DenseTensor,
    NumericError,
    ShapeError,
    as_array,
    log_logistic,
    logistic,
    normalize_vectors,
    softmax_rows,
    tensor,
)
from .reference import (
    BetaPair,
    HopfieldReductionReport,
    IterationRecord,
    PluggableNetworks,
    RoutingDims,
    RoutingTrace,
    always_on_activation_plugin,
    hopfield_reduction_check,
    memory_votes_plugin,
    phi_of,
    relative_linf,
    route_reference,
)
from .optimized import (
    BLOCK_ELEMENTS,
    TRANSIENT_ELEMENT_BOUND_FACTOR,
    RoutingParams,
    VoteParamBudget,
    activation_scores,
    as_plugins,
    beta_pair_for,
    field_shapes,
    m_step_factored,
    materialized_votes,
    predict_inputs,
    route_optimized,
    score_predictions,
    total_param_count,
    transient_element_bound,
    vote_param_budget,
    vote_param_count,
    votes_for_input,
)
from .credit import (
    ArityError,
    AttributionReport,
    CreditMatrix,
    DegenerateCreditError,
    attribution_report,
    compose_concat,
    compose_residual,
    compose_sequential,
    compose_sum,
    credit_from_trace,
    end_to_end_three,
)
from .params_io import ParamFormatError, init_params, load_params, save_params
from .memtrack import PeakReport, measure_peak, track_peak

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_ON",
    "AlwaysOn",
    "ArityError",
    "AttributionReport",
    "BLOCK_ELEMENTS",
    "BetaPair",
    "CreditMatrix",
    "DegenerateCreditError",
    "DenseTensor",
    "HopfieldReductionReport",
    "IterationRecord",
    "NumericError",
    "ParamFormatError",
    "PeakReport",
    "PluggableNetworks",
    "RoutingDims",
    "RoutingParams",
    "RoutingTrace",
    "ShapeError",
    "TRANSIENT_ELEMENT_BOUND_FACTOR",
    "VARIANCE_EPS",
    "VoteParamBudget",
    "activation_scores",
    "always_on_activation_plugin",
    "as_array",
    "as_plugins",
    "attribution_report",
    "beta_pair_for",
    "compose_concat",
    "compose_residual",
    "compose_sequential",
    "compose_sum",
    "credit_from_trace",
    "end_to_end_three",
    "field_shapes",
    "hopfield_reduction_check",
    "init_params",
    "load_params",
    "log_logistic",
    "logistic",
    "m_step_factored",
    "materialized_votes",
    "measure_peak",
    "memory_votes_plugin",
    "normalize_vectors",
    "phi_of",
    "predict_inputs",
    "relative_linf",
    "route_optimized",
    "route_reference",
    "save_params",
    "score_predictions",
    "softmax_rows",
    "tensor",
    "total_param_count",
    "track_peak",
    "transient_element_bound",
    "vote_param_budget",
    "vote_param_count",
    "votes_for_input",
]
