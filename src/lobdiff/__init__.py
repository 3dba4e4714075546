"""Limit-order-book queue dynamics, diffusion limits, and price analytics.

The package follows one pipeline: discrete order flows (`flows`) drive the
two best-quote queues (`book`); rescaled, the queues converge to a planar
diffusion in the positive quadrant (`diffusion`); the diffusion's
first-passage structure yields closed forms for uptick probabilities and
price-change durations (`analytics`); and the diffusion's parameters are
estimated from event data (`estimation`). `io` and `cli` cover file formats
and command-line orchestration.
"""

__version__ = "0.1.0"

from .analytics import (
    ConeGeometry,
    agent_model_params,
    cone_geometry,
    drifted_duration_params,
    duration_survival,
    duration_survival_drifted,
    duration_tail_index,
    flow_limit_params,
    prob_up,
    prob_up_mc,
)
from .book import (
    ASK,
    ASK_DEPLETED,
    BID,
    BID_DEPLETED,
    BookState,
    OrderEvent,
    PricePath,
    RegulatedPath,
    ReinitRule,
    exponential_reinit,
    geometric_reinit,
    price_from_hits,
    regulate,
    replay,
)
from .diffusion import (
    DiffusionParams,
    ScaledParams,
    first_hits,
    generator_apply,
    net_flow_fclt_check,
    rescale_discrete,
    simulate_Q,
)
from .estimation import (
    FlowSample,
    ParamEstimate,
    estimate_rates,
    estimate_report,
    estimate_rho,
    estimate_size_moments,
    hill_estimator,
    scaled_params,
    variance_ratio_table,
)
from .flows import (
    ACDSpec,
    AgentMixSpec,
    ArchVolumeSpec,
    Dist,
    HawkesFlowSpec,
    PoissonFlowSpec,
    agent_pair_table,
    gen_acd_durations,
    gen_agent_flow,
    gen_arch_volumes,
    gen_hawkes_flow,
    gen_poisson_flow,
)

__all__ = [
    "__version__",
    # book
    "ASK", "ASK_DEPLETED", "BID", "BID_DEPLETED", "BookState", "OrderEvent",
    "PricePath", "RegulatedPath", "ReinitRule", "exponential_reinit",
    "geometric_reinit", "price_from_hits", "regulate", "replay",
    # flows
    "ACDSpec", "AgentMixSpec", "ArchVolumeSpec", "Dist", "HawkesFlowSpec",
    "PoissonFlowSpec", "agent_pair_table", "gen_acd_durations",
    "gen_agent_flow", "gen_arch_volumes", "gen_hawkes_flow",
    "gen_poisson_flow",
    # diffusion
    "DiffusionParams", "ScaledParams", "first_hits",
    "generator_apply", "net_flow_fclt_check", "rescale_discrete",
    "simulate_Q",
    # analytics
    "ConeGeometry", "agent_model_params", "cone_geometry",
    "drifted_duration_params", "duration_survival",
    "duration_survival_drifted", "duration_tail_index", "flow_limit_params",
    "prob_up", "prob_up_mc",
    # estimation
    "FlowSample", "ParamEstimate", "estimate_rates", "estimate_report",
    "estimate_rho", "estimate_size_moments", "hill_estimator",
    "scaled_params", "variance_ratio_table",
]
