"""Joint transmission dispatch and distribution voltage regulation.

A regularized saddle-point engine couples a transmission-level economic
dispatch with voltage regulation on radial distribution feeders.  One
driver loop (`solve`) runs two interchangeable rounds — a monolithic
step and a message-passing market round (`run_market`) — and they produce
identical trajectories and records, which is the point: the
price-and-incentive protocol loses nothing relative to centrally
coordinated gradient steps.

Layout
------
``network``      case dataclasses, JSON parsing, feeder-to-bus attachment
``lindistflow``  the compiled feeder: affine voltage/head-draw model
                 plus the tree arrays the sweep reads
``acpf``         backward/forward power-flow sweep
``core``         `build_problem` (compiles each feeder once; one cost
                 and one box vector over the primal ``z = [p, q, P_M]``),
                 states, the balance target ``P0_slack`` and the
                 residual it prices, a round's five values (`Round`),
                 one price array over ``z`` (`der_signals`),
                 the gradients the round steps along, step-size audit,
                 events (applied once, to the compiled problem), the
                 round's shared network half `settle` (reads only the
                 `CompiledNetwork`, which holds no DER data), the
                 shared driver loop `solve` and its `Phase`s
``market``       stateless agents, each a name plus coordinates of ``z``
                 stepped in one `agent_step` call (the core's numpy step
                 with no library) against the broadcast prices; message bus;
                 operator step (knows only its roster and the compiled
                 network; places reports, ends in `settle`);
                 `run_market` hands its round to `solve` as the step
``trace``        per-iteration records (one float64 row each, kept in
                 `Records`), CSV write/read round trip
``scenario``     scenario JSON, `run_scenario`, `compare_runs`, oracle
``cli``          ``tdcoopt run | compare | oracle | lindump``
"""

from .acpf import SweepDivergence, SweepResult, sweep_feeder
from .core import (
    CompiledNetwork,
    DerCapacityScale,
    DispatchProblem,
    DivergenceError,
    DualState,
    EngineError,
    GeneratorOutage,
    Measurement,
    PrimalState,
    SolveResult,
    SolverConfig,
    StepsizeReport,
    apply_event,
    build_problem,
    check_stepsize,
    der_signals,
    dual_update,
    eval_lagrangian,
    grad_dual,
    grad_primal,
    initial_state,
    measure,
    measure_feeders,
    primal_dual_step,
    settle,
    solve,
    total_cost,
)
from .lindistflow import LinearFeederModel, build_lindistflow, predict
from .market import (
    AgentMessage,
    GeneratorAgent,
    MessageBus,
    OperatorConfig,
    RoundAbort,
    UserAgent,
    operator_step,
    run_market,
)
from .network import (
    Bus,
    CaseError,
    CoupledSystem,
    Der,
    DistributionFeeder,
    FeederLine,
    FeederNode,
    Generator,
    TransmissionSystem,
    VoltageLimits,
    attach_feeders,
    parse_case,
    rebase_feeder,
    serialize_case,
    validate_feeder,
    validate_transmission,
)
from .scenario import (
    ComparisonReport,
    OracleInfeasible,
    OracleReport,
    RunArtifacts,
    Scenario,
    ScenarioError,
    compare_runs,
    load_scenario,
    probe_oracle,
    run_scenario,
)
from .trace import Records, Trace, TraceRecord, read_trace, trace_columns, write_trace

__version__ = "0.1.0"

__all__ = [
    "AgentMessage",
    "Bus",
    "CaseError",
    "ComparisonReport",
    "CompiledNetwork",
    "CoupledSystem",
    "Der",
    "DerCapacityScale",
    "DispatchProblem",
    "DistributionFeeder",
    "DivergenceError",
    "DualState",
    "EngineError",
    "FeederLine",
    "FeederNode",
    "Generator",
    "GeneratorAgent",
    "GeneratorOutage",
    "LinearFeederModel",
    "Measurement",
    "MessageBus",
    "OperatorConfig",
    "OracleInfeasible",
    "OracleReport",
    "PrimalState",
    "Records",
    "RoundAbort",
    "RunArtifacts",
    "Scenario",
    "ScenarioError",
    "SolveResult",
    "SolverConfig",
    "StepsizeReport",
    "SweepDivergence",
    "SweepResult",
    "Trace",
    "TraceRecord",
    "TransmissionSystem",
    "UserAgent",
    "VoltageLimits",
    "apply_event",
    "attach_feeders",
    "build_lindistflow",
    "build_problem",
    "check_stepsize",
    "compare_runs",
    "der_signals",
    "dual_update",
    "eval_lagrangian",
    "grad_dual",
    "grad_primal",
    "initial_state",
    "load_scenario",
    "measure",
    "measure_feeders",
    "operator_step",
    "parse_case",
    "predict",
    "primal_dual_step",
    "probe_oracle",
    "read_trace",
    "rebase_feeder",
    "run_market",
    "run_scenario",
    "serialize_case",
    "settle",
    "solve",
    "sweep_feeder",
    "total_cost",
    "trace_columns",
    "validate_feeder",
    "validate_transmission",
    "write_trace",
]
