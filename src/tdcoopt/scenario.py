"""Scenario loading, execution, comparison, and the brute-force oracle.

A scenario JSON bundles everything one experiment needs: the transmission
case, feeder cases with their host buses, voltage limits, solver
configuration, engine choice, scheduled events, and initial-state
options.  Running one produces a per-iteration CSV trace and a JSON
summary (final dispatch, final voltages, active constraint sets, the
stepsize certificate, and the converged price of each phase between
events).  A failed run leaves the trace up to the failure and a summary
that names the failing iteration.  Every field of the file is read by
the typed readers of :mod:`tdcoopt.network`, each ``config`` field by the
one for the type :class:`~tdcoopt.core.SolverConfig` declares for it, so
a value of the wrong type or shape is a :class:`ScenarioError` naming the
field, and so is a key the format does not name.

``compare_runs`` diffs two traces over a shared horizon — used to price
DER participation against the baseline run that hides the balance price
from users.  ``probe_oracle`` solves small instances (at most four free
decision variables) by nested grid refinement over the affine feeder
model and reports the gap to the engine's converged point.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .acpf import SlackAccount
from .core import (
    DerCapacityScale,
    DispatchProblem,
    DualState,
    EngineError,
    GeneratorOutage,
    PrimalState,
    SolveResult,
    SolverConfig,
    build_problem,
    default_probes,
    initial_state,
    solve,
    total_cost,
)
from .market import run_market
from .lindistflow import predict
from .network import (
    CaseError,
    CoupledSystem,
    DistributionFeeder,
    FieldError,
    TransmissionSystem,
    VoltageLimits,
    array,
    attach_feeders,
    choice,
    flag,
    integer,
    parse_case,
    real,
    refuse_unknown,
    section,
    text,
)
from .trace import Records, read_trace, write_trace

__all__ = [
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "RunArtifacts",
    "run_scenario",
    "ComparisonReport",
    "compare_runs",
    "OracleInfeasible",
    "OracleReport",
    "probe_oracle",
]

ENGINES = ("core", "market", "market-br")
EVENT_KINDS = (GeneratorOutage.kind, DerCapacityScale.kind)
INIT_MODES = ("midbox", "setpoint", "random")
SLACK_MODES = ("record", "explicit")
# the reader of each type a SolverConfig field declares
_CONFIG_READERS = {"int": integer, "float": real, "bool": flag, "str": text}
# the keys of the file's top level and of each section with fixed keys
# (config's are SolverConfig's fields, and probes' are feeder ids)
_KEYS = {
    "top": frozenset({
        "name", "transmission", "feeders", "limits", "engine", "feedback",
        "config", "init", "slack", "events", "probes", "seed",
    }),
    "feeders": frozenset({"case", "host_bus"}),
    "limits": frozenset({"v_min", "v_max"}),
    "init": frozenset({"mode", "P_M"}),
    "slack": frozenset({"mode", "value"}),
    "events": frozenset({"iteration", "kind", "target", "factor"}),
}


class ScenarioError(ValueError):
    """Scenario file invalid or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment: system, limits, config, events, init."""

    name: str
    system: CoupledSystem
    limits: VoltageLimits
    config: SolverConfig
    engine: str
    events: tuple[GeneratorOutage | DerCapacityScale, ...]
    init_mode: str = "midbox"
    init_P_M: tuple[float, ...] | None = None
    slack_mode: str = "record"  # "record" | "explicit"
    slack_value: float = 0.0
    probes: dict[str, int] | None = None  # feeder id -> probe node id
    seed: int | None = None
    path: Path | None = None


def load_scenario(path, overrides: dict | None = None) -> Scenario:
    """Read and validate a scenario file; case paths resolve relative to it.

    ``overrides`` (engine, feedback, max_iter, eps, eta, seed) are applied
    before validation, so command-line flags are checked like file fields;
    an override that is ``None`` keeps the file's value.  Every error is a
    :class:`ScenarioError`.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: nests too deeply to read") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    try:
        return _read_scenario(raw, path, given)
    except FieldError as exc:
        raise ScenarioError(str(exc)) from exc


def _read_scenario(raw: dict, path: Path, overrides: dict) -> Scenario:
    """The scenario the file ``path`` holds as ``raw``; a field of the
    wrong type or shape raises :class:`FieldError`."""
    name = text(raw, "name", str(path), path.stem)
    refuse_unknown(raw, _KEYS["top"], name)
    raw = {**raw, **{k: overrides[k] for k in ("engine", "seed") if k in overrides}}

    ts = _load_case(path.parent / text(raw, "transmission", name), TransmissionSystem)
    feeders: list[DistributionFeeder] = []
    entries = array(raw, "feeders", name, ())
    for i in range(len(entries)):
        entry = section(entries, i, f"{name}: feeders")
        where = f"{name}: feeders[{i}]"
        refuse_unknown(entry, _KEYS["feeders"], where)
        host = integer(entry, "host_bus", where)
        case = path.parent / text(entry, "case", where)
        feeders.append(_load_case(case, DistributionFeeder, host))
    lim = section(raw, "limits", name, {})
    refuse_unknown(lim, _KEYS["limits"], f"{name}: limits")
    v_min = real(lim, "v_min", f"{name}: limits", 0.95)
    v_max = real(lim, "v_max", f"{name}: limits", 1.05)
    try:
        system = attach_feeders(ts, feeders)
        limits = VoltageLimits(v_min, v_max)
    except CaseError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc

    cfg_raw = {
        "feedback": raw.get("feedback", "linear"),
        **section(raw, "config", name, {}),
        **{k: overrides[k] for k in ("max_iter", "eps", "eta", "feedback") if k in overrides},
    }
    types = {f.name: f.type for f in fields(SolverConfig)}
    unknown = set(cfg_raw) - set(types)
    if unknown:
        raise ScenarioError(f"{name}: unknown config fields {sorted(unknown)}")
    where = f"{name}: bad config"
    cfg_raw = {k: _CONFIG_READERS[types[k]](cfg_raw, k, where) for k in cfg_raw}
    try:
        config = SolverConfig(**cfg_raw)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc

    engine = choice(raw, "engine", name, ENGINES, "core")

    events: list[GeneratorOutage | DerCapacityScale] = []
    entries = array(raw, "events", name, ())
    for i in range(len(entries)):
        entry = section(entries, i, f"{name}: events")
        where = f"{name}: events[{i}]"
        refuse_unknown(entry, _KEYS["events"], where)
        kind = choice(entry, "kind", where, EVENT_KINDS)
        iteration = integer(entry, "iteration", where)
        if not 1 <= iteration < config.max_iter:
            raise ScenarioError(
                f"{where}: iteration {iteration} outside [1, max_iter)"
            )
        if kind == GeneratorOutage.kind:
            target = integer(entry, "target", where)
            if not any(g.bus_id == target for g in ts.generators):
                raise ScenarioError(f"{where}: no generator at bus {target}")
            events.append(GeneratorOutage(iteration=iteration, bus_id=target))
            continue
        choice(entry, "target", where, (DerCapacityScale.target,))
        try:
            events.append(DerCapacityScale(iteration, real(entry, "factor", where)))
        except ValueError as exc:
            raise ScenarioError(f"{where}: needs a positive factor") from exc

    init = section(raw, "init", name, {})
    refuse_unknown(init, _KEYS["init"], f"{name}: init")
    init_mode = choice(init, "mode", name, INIT_MODES, "midbox", "init mode")
    init_P_M = array(init, "P_M", f"{name}: init", None)
    if init_P_M is not None:
        where = f"{name}: init: P_M"
        init_P_M = tuple(real(init_P_M, k, where) for k in range(len(init_P_M)))
        if len(init_P_M) != len(ts.generators):
            raise ScenarioError(
                f"{name}: init.P_M has {len(init_P_M)} entries, "
                f"system has {len(ts.generators)} generators"
            )

    slack = section(raw, "slack", name, {})
    refuse_unknown(slack, _KEYS["slack"], f"{name}: slack")
    slack_mode = choice(slack, "mode", name, SLACK_MODES, "record", "slack mode")
    slack_value = real(slack, "value", f"{name}: slack", 0.0)

    probes = section(raw, "probes", name, None)
    if probes is not None:
        probes = {fid: integer(probes, fid, f"{name}: probes") for fid in probes}
        ids = {f.feeder_id: f for f in system.feeders}
        for fid, node in probes.items():
            if fid not in ids:
                raise ScenarioError(f"{name}: probes name unknown feeder {fid!r}")
            if node not in ids[fid].node_index():
                raise ScenarioError(
                    f"{name}: probe node {node} not in feeder {fid}"
                )

    seed = integer(raw, "seed", name, None)
    if init_mode == "random" and seed is None:
        raise ScenarioError(f"{name}: init mode 'random' requires a seed")

    return Scenario(
        name=name,
        system=system,
        limits=limits,
        config=config,
        engine=engine,
        events=tuple(events),
        init_mode=init_mode,
        init_P_M=init_P_M,
        slack_mode=slack_mode,
        slack_value=slack_value,
        probes=probes,
        seed=seed,
        path=path,
    )


def _load_case(path: Path, expect_type, host_bus: int | None = None):
    try:
        content = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read case {path}: {exc}") from exc
    try:
        model = parse_case(content, host_bus)
    except CaseError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(model, expect_type):
        raise ScenarioError(
            f"{path}: expected a {expect_type.__name__} case, "
            f"got {type(model).__name__}"
        )
    return model


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunArtifacts:
    """Everything a run leaves behind."""

    scenario: Scenario
    result: SolveResult
    trace_path: Path
    summary_path: Path
    summary: dict


def _probe_positions(scenario: Scenario, problem: DispatchProblem) -> tuple[int, ...]:
    positions = list(default_probes(problem))
    if scenario.probes:
        for k, feeder in enumerate(scenario.system.feeders):
            if feeder.feeder_id in scenario.probes:
                positions[k] = feeder.node_index()[
                    scenario.probes[feeder.feeder_id]
                ]
    return tuple(positions)


def _label(text: str) -> str:
    return re.sub(r"[^0-9A-Za-z_.@-]", "_", text)


def run_scenario(scenario: Scenario, out_dir=".") -> RunArtifacts:
    """Execute the scenario and write its trace CSV and summary JSON.

    When the engine fails (:class:`~tdcoopt.core.EngineError`), the trace
    of the iterations completed before the failure and a summary with
    ``status: "error"``, the failing iteration and the message are still
    written; then the error is re-raised.
    """
    problem = build_problem(scenario.system, scenario.limits)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gen_labels = tuple(
        _label(str(g.bus_id)) for g in scenario.system.transmission.generators
    )
    feeder_labels = tuple(
        _label(f.feeder_id) for f in scenario.system.feeders
    )
    trace_path = out / f"{_label(scenario.name)}_trace.csv"
    summary_path = out / f"{_label(scenario.name)}_summary.json"

    def write(records: Records, summary: dict) -> None:
        write_trace(trace_path, records, gen_labels, feeder_labels)
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    try:
        result = run_scenario_in_memory(scenario, problem)
    except EngineError as exc:
        write(
            exc.records or Records(problem.n_generators, len(problem.models)),
            {
                **_run_header(scenario),
                "status": "error",
                "iteration": exc.iteration,
                "message": str(exc),
            },
        )
        raise
    summary = _summarize(scenario, problem, result)
    write(result.records, summary)
    return RunArtifacts(
        scenario=scenario,
        result=result,
        trace_path=trace_path,
        summary_path=summary_path,
        summary=summary,
    )


def _run_header(scenario: Scenario) -> dict:
    """The summary fields that describe the run's set-up."""
    return {
        "scenario": scenario.name,
        "engine": scenario.engine,
        "feedback": scenario.config.feedback,
        "seed": scenario.seed,
        "config": {
            "eps": scenario.config.eps,
            "eta": scenario.config.eta,
            "max_iter": scenario.config.max_iter,
            "tol_primal": scenario.config.tol_primal,
            "tol_dual": scenario.config.tol_dual,
            "tol_balance": scenario.config.tol_balance,
            "zero_lambda_to_ders": scenario.config.zero_lambda_to_ders,
        },
    }


def _summarize(
    scenario: Scenario, problem: DispatchProblem, result: SolveResult
) -> dict:
    system = scenario.system
    last = result.records[-1]
    active: dict[str, dict[str, list[int]]] = {}
    threshold = 1e-8
    mu_upper = result.y.mu[: problem.n_nodes]
    mu_lower = result.y.mu[problem.n_nodes :]
    for model in problem.models:
        sl = model.span
        active[model.feeder_id] = {
            "upper": [
                model.node_ids[j] for j in np.flatnonzero(mu_upper[sl] > threshold)
            ],
            "lower": [
                model.node_ids[j] for j in np.flatnonzero(mu_lower[sl] > threshold)
            ],
        }

    executed = result.iterations
    boundaries = sorted(
        {e.iteration for e in scenario.events if e.iteration <= executed}
    )
    edges = [0, *boundaries, executed + 1]
    phases = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        phases.append(
            {
                "from_iteration": a,
                "to_iteration": b - 1,
                "lambda": result.records[b - 1].lam,
            }
        )

    report = result.stepsize
    stepsize = None
    if report is not None:
        stepsize = {
            "s": report.s,
            "l": report.l,
            "eps_bound": report.eps_bound,
            "eps_over_bound": scenario.config.eps / report.eps_bound,
        }
    return {
        **_run_header(scenario),
        "status": result.status,
        "iterations": executed,
        "stepsize": stepsize,
        "final": {
            "lambda": result.y.lam,
            "total_cost": total_cost(problem, result.x),
            "slack_residual": last.slack_residual,
            "P_M": {
                str(g.bus_id): float(P)
                for g, P in zip(system.transmission.generators, result.x.P_M)
            },
            "P_L": {
                f.feeder_id: float(v)
                for f, v in zip(system.feeders, last.P_L)
            },
            "voltage": {
                f.feeder_id: {"min": float(lo), "max": float(hi)}
                for f, lo, hi in zip(system.feeders, last.v_min, last.v_max)
            },
            "active_constraints": active,
        },
        "phases": phases,
        "events": [
            {
                "iteration": e.iteration,
                "kind": e.kind,
                "target": e.target,
                "factor": getattr(e, "factor", None),
            }
            for e in scenario.events
        ],
    }


# ---------------------------------------------------------------------------
# comparing runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Per-iteration and final deltas of one metric between two traces."""

    metric: str
    iterations: np.ndarray
    values_a: np.ndarray
    values_b: np.ndarray
    deltas: np.ndarray  # a - b
    final_a: float
    final_b: float
    final_delta: float


_METRIC_COLUMNS = {"total-cost": "total_cost"}


def compare_runs(trace_a, trace_b, metric: str = "total-cost") -> ComparisonReport:
    """Diff two trace files over their (identical) iteration horizon."""
    if metric not in _METRIC_COLUMNS:
        raise ValueError(
            f"unknown metric {metric!r}; supported: {sorted(_METRIC_COLUMNS)}"
        )
    a = read_trace(trace_a)
    b = read_trace(trace_b)
    it_a = a.iterations
    it_b = b.iterations
    if len(it_a) != len(it_b) or not np.array_equal(it_a, it_b):
        raise ValueError(
            f"trace horizons differ: {len(it_a)} records "
            f"(0..{int(it_a[-1]) if len(it_a) else '-'}) vs {len(it_b)} "
            f"(0..{int(it_b[-1]) if len(it_b) else '-'})"
        )
    if not len(it_a):
        raise ValueError("no records to compare")
    col = _METRIC_COLUMNS[metric]
    va = a.column(col)
    vb = b.column(col)
    return ComparisonReport(
        metric=metric,
        iterations=it_a,
        values_a=va,
        values_b=vb,
        deltas=va - vb,
        final_a=float(va[-1]),
        final_b=float(vb[-1]),
        final_delta=float(va[-1] - vb[-1]),
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

class OracleInfeasible(RuntimeError):
    """No grid point satisfied the constraints."""


@dataclass(frozen=True)
class OracleReport:
    """Grid-refined optimum and its gap to the engine's converged point."""

    objective_oracle: float
    objective_engine: float
    objective_gap_rel: float
    coordinate_gap_inf: float
    engine_feasibility: float  # max constraint violation at the engine point
    point_oracle: dict
    point_engine: dict
    resolution: float
    evaluations: int


def probe_oracle(scenario: Scenario, resolution: float = 1e-4) -> OracleReport:
    """Solve a small instance by nested grid refinement; gap to the engine.

    Works on the affine feeder model (the same one the engine prices
    from).  The balance constraint eliminates the last free generator;
    every remaining free variable is gridded, so the instance may have at
    most four free decision variables in total.
    """
    problem = build_problem(scenario.system, scenario.limits)
    N = problem.n_nodes

    # the free coordinates of z = [p, q, P_M]; the last one, a generator,
    # is eliminated by the balance constraint and the others are gridded
    free = np.flatnonzero(problem.hi > problem.lo)
    if len(free) > 4:
        raise ValueError(
            f"instance has {len(free)} free decision variables; "
            "the oracle handles at most 4"
        )
    if not len(free) or free[-1] < 2 * N:
        raise ValueError("oracle needs at least one free generator to absorb "
                         "the balance constraint")
    elim = int(free[-1])
    dims = free[:-1]

    # affine pieces: total head draw and per-node voltages as functions of
    # the gridded variables
    fixed_inj = problem.fixed_injection
    P0 = scenario.slack_value if scenario.slack_mode == "explicit" else None
    if P0 is None:
        raise ValueError(
            "oracle requires an explicit slack target "
            "(scenario slack mode 'explicit')"
        )

    lo, hi = problem.lo[dims], problem.hi[dims]

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective and feasibility for an (m, ndim) batch of grid points."""
        m = len(points)
        z = np.zeros((m, len(problem.coef)))
        z[:, dims] = points
        p, q, P = z[:, :N], z[:, N : 2 * N], z[:, 2 * N :]
        violation = np.zeros(m)
        P_L = np.zeros(m)
        for model in problem.models:
            sl = model.span
            v = model.c + p[:, sl] @ model.A.T + q[:, sl] @ model.B.T
            violation = np.maximum(violation, np.max(v - problem.limits.v_max, axis=1))
            violation = np.maximum(violation, np.max(problem.limits.v_min - v, axis=1))
            # lossless head draw, as in ``predict``: a BLAS product with
            # ones, not np.sum
            P_L += model.d - p[:, sl] @ model.ones
        z[:, elim] = P_L - fixed_inj - P0 - (np.sum(P, axis=1) - z[:, elim])
        violation = np.maximum(violation, z[:, elim] - problem.hi[elim])
        violation = np.maximum(violation, problem.lo[elim] - z[:, elim])
        # summed per block, generators first, as ``total_cost`` sums
        cost = problem.coef * z * z
        objective = (
            np.sum(cost[:, 2 * N :], axis=1)
            + np.sum(cost[:, :N], axis=1)
            + np.sum(cost[:, N : 2 * N], axis=1)
        )
        return objective, violation

    points_per_dim = 15
    ndim = len(dims)
    cur_lo, cur_hi = lo.copy(), hi.copy()
    best_point = None
    best_obj = math.inf
    evaluations = 0
    slack = 1e-9
    while True:
        axes = [np.linspace(cur_lo[d], cur_hi[d], points_per_dim) for d in range(ndim)]
        mesh = np.meshgrid(*axes, indexing="ij") if ndim else []
        pts = (
            np.stack([m.ravel() for m in mesh], axis=1)
            if ndim
            else np.zeros((1, 0))
        )
        obj, vio = evaluate(pts)
        evaluations += len(pts)
        feasible = vio <= slack
        if not np.any(feasible):
            if best_point is None:
                raise OracleInfeasible(
                    "no grid point satisfies the voltage and balance "
                    "constraints"
                )
        else:
            idx = int(np.argmin(np.where(feasible, obj, math.inf)))
            if obj[idx] < best_obj:
                best_obj = float(obj[idx])
                best_point = pts[idx].copy()
        spacing = (cur_hi - cur_lo) / (points_per_dim - 1) if ndim else np.zeros(0)
        if ndim == 0 or np.all(spacing <= resolution):
            break
        center = best_point if best_point is not None else 0.5 * (cur_lo + cur_hi)
        half = np.maximum(spacing * 2.0, resolution * 0.5)
        cur_lo = np.clip(center - half, lo, hi)
        cur_hi = np.clip(center + half, lo, hi)

    if best_point is None:
        raise OracleInfeasible("no feasible point found")

    oracle = _full_point(problem, dims, best_point, elim, P0)

    # engine's converged point on the same instance
    run = run_scenario_in_memory(scenario, problem)
    xe = run.x
    engine_point = {
        "p": [float(v) for v in xe.p],
        "q": [float(v) for v in xe.q],
        "P_M": [float(v) for v in xe.P_M],
    }
    eng_obj = total_cost(problem, xe)
    coord_gap = float(np.max(np.abs(xe.z - oracle.z)))

    # feasibility of the engine point under the same model
    _, eng_vio = evaluate(xe.z[dims].reshape(1, -1))
    gap_rel = abs(eng_obj - best_obj) / max(1.0, abs(best_obj))
    return OracleReport(
        objective_oracle=best_obj,
        objective_engine=eng_obj,
        objective_gap_rel=gap_rel,
        coordinate_gap_inf=coord_gap,
        engine_feasibility=float(eng_vio[0]),
        point_oracle={
            "p": [float(v) for v in oracle.p],
            "q": [float(v) for v in oracle.q],
            "P_M": [float(v) for v in oracle.P_M],
        },
        point_engine=engine_point,
        resolution=resolution,
        evaluations=evaluations,
    )


def _full_point(problem, dims, point, elim, P0) -> PrimalState:
    """The primal state at a grid point, the balance closed by ``elim``."""
    z = np.zeros(len(problem.coef))
    z[dims] = point
    x = PrimalState(z, problem.n_nodes)
    P_L = sum(predict(m, x.p[m.span], x.q[m.span])[1] for m in problem.models)
    z[elim] = P_L - problem.fixed_injection - P0 - (float(np.sum(x.P_M)) - z[elim])
    return x


def run_scenario_in_memory(
    scenario: Scenario, problem: DispatchProblem | None = None
) -> SolveResult:
    """Run the scenario's engine without writing any files.

    ``problem`` is the scenario's compiled problem when the caller has
    built it already (it is not modified).
    """
    if problem is None:
        problem = build_problem(scenario.system, scenario.limits)
    probes = _probe_positions(scenario, problem)
    # only a seeded random start draws from the generator, and its first
    # use imports numpy.random (~14 ms in a fresh process)
    rng = (
        np.random.default_rng(scenario.seed)
        if scenario.init_mode == "random" and scenario.seed is not None
        else None
    )
    x0, y0 = initial_state(
        problem,
        mode=scenario.init_mode,
        P_M=None if scenario.init_P_M is None else np.array(scenario.init_P_M),
        rng=rng,
    )
    account = (
        SlackAccount(P0_slack=scenario.slack_value)
        if scenario.slack_mode == "explicit"
        else None
    )
    if scenario.engine == "core":
        return solve(
            problem,
            scenario.config,
            x0=x0,
            y0=y0,
            account=account,
            events=scenario.events,
            probes=probes,
        )
    mode = "gradient" if scenario.engine == "market" else "best-response"
    return run_market(
        problem,
        scenario.config,
        events=scenario.events,
        mode=mode,
        x0=x0,
        y0=y0,
        account=account,
        probes=probes,
    )
