"""Optimal queue-length / service-cost / utility tradeoffs for
state-dependent M/M/1 queues.

Submodules:

* ``rate_functions``   cost/utility functions, envelopes, case taxonomy
* ``birth_death``      policies, exact stationary analytics, drift bound
* ``mdp``              Lagrangian relaxation, policy iteration, tracing
* ``policy_families``  explicit asymptotically-order-optimal constructions
* ``scaling``          U sweeps, regime classification, inequality audits
* ``sim``              Monte Carlo oracle
* ``cli``              command-line front end (entry point ``qtl``)
"""

__version__ = "0.1.0"

from .birth_death import (  # noqa: F401
    Metrics,
    Policy,
    StationaryResult,
    check_admissible,
    constant_policy,
    exact_metrics,
    feasibility,
    is_admissible,
    is_stable,
    mass_below,
    metrics,
    pi_at,
    policy_from_json,
    policy_from_pieces,
    policy_to_json,
    qlength_upper_bound,
    recurrent_window,
    stationary,
)
from .mdp import (  # noqa: F401
    LagrangianProblem,
    SolveResult,
    TradeoffPoint,
    solve,
    trace_tradeoff,
    uniform_actions,
)
from .policy_families import (  # noqa: F401
    lambda_mu_policy,
    lc_mirror_policy,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
)
from .rate_functions import (  # noqa: F401
    CaseTag,
    RateFunction,
    SupportLine,
    classify_case,
    discrete_function,
    evaluate,
    function_from_spec,
    function_to_spec,
    inverse,
    lower_convex_envelope,
    piecewise_function,
    power_function,
    support_line,
)
from .scaling import (  # noqa: F401
    AuditCheck,
    ScalingFit,
    ScalingSample,
    audit_lower_bound,
    classify_regime,
    sweep,
)
from .sim import SimConfig, SimEstimate, simulate  # noqa: F401
