"""Deterministic packet-forwarding simulator and analytical forwarding model.

Layout:

- :mod:`ctcsim.model` - closed-form probabilities, time split, throughput.
- :mod:`ctcsim.utilization` - node-power rates and utilization sums.
- :mod:`ctcsim.sim` - the epoch-driven simulator (cooperative time-split
  policy vs an energy-gated self-first baseline).
- :mod:`ctcsim.experiments` - case definitions, sweeps, derived curves.
- :mod:`ctcsim.report` - CSV and figure-series emission.
- :mod:`ctcsim.cli` - the ``ctcsim`` command.
"""

from .errors import (
    CtcSimError,
    DegenerateDenominatorError,
    EmptyInputError,
    EmptyTraceError,
    InvalidConfigError,
    InvalidParameterError,
    InvariantError,
    MissingCaseError,
    NoInputError,
    NonPositiveTimeError,
    UnknownCaseError,
    ZeroTimeError,
)
from .experiments import (
    CASE_IDS,
    DEFAULTS,
    CaseSpec,
    CaseVBucket,
    CaseVCurve,
    ExperimentParams,
    ResultRow,
    ResultTable,
    case_spec,
    derive_case_v,
    isotonic_nondecreasing,
    run_case,
)
from .model import MAX_K, ForwardingParams, ProbPair, TimeBudget, packet_drop_rate, prob_batch, throughput, time_components
from .report import (
    CSV_COLUMNS,
    FIG_CASE,
    TRACE_COLUMNS,
    FigureSeries,
    emit_case_v_csv,
    emit_csv,
    emit_figure_csv,
    emit_trace_csv,
    figure_series,
    read_csv,
)
from .sim import (
    MAX_EPOCHS,
    MAX_NEIGHBOR_COUNT,
    MisbehaviorStats,
    Policy,
    RateFunction,
    RateKind,
    Schedule,
    SimConfig,
    Trace,
    WindowRatio,
    classify_misbehavior,
    config_from_dict,
    ctc_split,
    load_config,
    realize,
    run,
    schedule,
)
from .utilization import (
    PacketCounters,
    PowerRates,
    RouteUtilization,
    per_route_utilization,
    power_out,
    utilization_forms,
    utilization_node,
    utilization_node_factored,
    utilization_total,
)

__version__ = "0.1.0"
