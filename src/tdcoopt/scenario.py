"""Scenario loading, execution, comparison, and the exact oracle.

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
from users.  ``probe_oracle`` runs the engine on the affine feeder model,
solves the dispatch its last round stepped on exactly (``exact_saddle``,
certified through :func:`~tdcoopt.core.kkt_residual`) and reports the
gap to the engine's point, and whether the engine run converged.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    DerCapacityScale,
    DispatchProblem,
    DualState,
    EngineError,
    GeneratorOutage,
    PrimalState,
    SlackAccount,
    SolveResult,
    SolverConfig,
    build_problem,
    default_probes,
    der_signals,
    grad_dual,
    initial_state,
    kkt_residual,
    solve,
    total_cost,
)
from .market import run_market
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
    "exact_saddle",
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
        "name", "transmission", "feeders", "limits", "engine", "config",
        "init", "slack", "events", "probes", "seed",
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
    account: SlackAccount | None = None  # None: record it at the start
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
            raise ScenarioError(f"{where}: needs a finite positive factor") from exc

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
    account = SlackAccount(slack_value) if slack_mode == "explicit" else None

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
        account=account,
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
            "tol": scenario.config.tol,
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
# the exact oracle
# ---------------------------------------------------------------------------

class OracleInfeasible(RuntimeError):
    """The affine-model dispatch has no certified optimum."""


@dataclass(frozen=True)
class OracleReport:
    """The exact optimum, its gap to the engine's point, its run's status."""

    objective_oracle: float
    objective_engine: float
    objective_gap_rel: float  # |engine - oracle| / oracle
    coordinate_gap_inf: float
    engine_feasibility: float  # the largest band violation at the engine point
    point_oracle: dict
    point_engine: dict
    converged: bool
    iterations: int


def exact_saddle(
    problem: DispatchProblem, account: SlackAccount
) -> tuple[PrimalState, DualState]:
    """The optimum ``z*`` of the affine-model dispatch and its multipliers.

    Minimises ``sum(coef * z * z)`` over the boxes, subject to a zero
    balance residual against ``account`` and the affine model's voltage
    band: a strictly convex QP on the free coordinates (``hi > lo``, each
    of which carries a cost).  A Mehrotra predictor-corrector interior
    point (Nocedal & Wright, *Numerical Optimization*, ch. 16) identifies
    the active rows, those whose multiplier exceeds their slack; one KKT
    solve with them held as equalities gives the point exact to rounding,
    and the engine's ``lambda`` and ``mu``.

    The result is certified with the engine's own gradients: each of the
    five residuals of :func:`~tdcoopt.core.kkt_residual` must be at most
    1e-10, or :class:`OracleInfeasible` is raised, as it is when the
    iteration does not converge or meets a non-finite value.  Where no
    coordinate is free, the pinned point is certified at zero prices.
    """
    N = problem.n_nodes
    free = np.flatnonzero(problem.hi > problem.lo)
    n = len(free)
    # the pinned point's balance residual and band values, read at zero duals
    z = np.where(problem.hi > problem.lo, 0.0, problem.lo)
    pinned, zero = PrimalState(z, N), DualState(lam=0.0, mu=np.zeros(2 * N))
    if n == 0:
        return _certified(problem, pinned, zero, account)
    balance, g = grad_dual(problem, pinned, zero, account)
    # on the free coordinates x: the band v = v(pinned) + V x and the
    # balance residual a x - b.  A row of V is the round's prices
    # (``der_signals``) of a unit upper-band multiplier, ``a`` those of a
    # unit lambda
    unit = np.eye(2 * N)
    V = np.array(
        [der_signals(problem.network, replace(zero, mu=unit[i]))[free] for i in range(N)]
    ).reshape(N, n)
    a = der_signals(problem.network, replace(zero, lam=1.0))[free]
    b = -balance
    # G x <= h: upper-band rows, lower-band rows, then the finite box edges
    lo, hi = problem.lo[free], problem.hi[free]
    up, down = np.isfinite(hi), np.isfinite(lo)
    G = np.vstack([V, -V, np.eye(n)[up], -np.eye(n)[down]])
    h = np.concatenate([-g, hi[up], -lo[down]])
    H = 2.0 * problem.coef[free]
    m = max(len(h), 1)

    x, y, s, lam = np.zeros(n), 0.0, np.ones(len(h)), np.ones(len(h))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(100):
                r_dual = H * x + a * y + G.T @ lam
                r_bal = a @ x - b
                r_band = G @ x + s - h
                gap = float(s @ lam) / m
                worst = max(_inf(r_dual), abs(r_bal), _inf(r_band))
                if gap < 1e-14 and worst < 1e-12:
                    break
                D = lam / s
                W = G.T @ (D[:, None] * G) + np.diag(H)
                K = np.block([[W, a[:, None]], [a, 0.0]])

                def newton(r_comp):  # the step toward complementarity r_comp
                    rhs = -r_dual - G.T @ (D * r_band - r_comp / s)
                    sol = np.linalg.solve(K, np.append(rhs, -r_bal))
                    ds = -r_band - G @ sol[:n]
                    return sol[:n], sol[n], ds, -(r_comp + lam * ds) / s

                dx, dy, ds, dlam = newton(s * lam)
                alpha = min(1.0, _max_step(s, ds), _max_step(lam, dlam))
                shrunk = float((s + alpha * ds) @ (lam + alpha * dlam)) / m
                sigma = (shrunk / gap) ** 3
                dx, dy, ds, dlam = newton(s * lam + ds * dlam - sigma * gap)
                alpha = min(1.0, 0.99 * min(_max_step(s, ds), _max_step(lam, dlam)))
                x, y = x + alpha * dx, y + alpha * dy
                s, lam = s + alpha * ds, lam + alpha * dlam
            else:
                raise OracleInfeasible(f"no convergence in 100 steps: gap {gap:.3g}")
            rows = np.flatnonzero(lam > s)
            C = np.vstack([a, G[rows]])
            K = np.block([[np.diag(H), C.T], [C, np.zeros((len(C), len(C)))]])
            rhs = np.concatenate([np.zeros(n), [b], h[rows]])
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise OracleInfeasible(f"the interior point failed: {exc}") from exc

    z[free] = np.clip(sol[:n], lo, hi)
    mu = np.zeros(2 * N)
    band = rows < 2 * N
    mu[rows[band]] = sol[n + 1 :][band]
    ys = DualState(lam=float(sol[n]), mu=mu)
    return _certified(problem, PrimalState(z, N), ys, account)


def _certified(
    problem: DispatchProblem, x: PrimalState, y: DualState, account: SlackAccount
) -> tuple[PrimalState, DualState]:
    """``(x, y)``, once each KKT residual there is at most 1e-10."""
    for name, value in kkt_residual(problem, x, y, account).items():
        if not value <= 1e-10:  # NaN fails too
            raise OracleInfeasible(f"no certified optimum: {name} {value:.3g}")
    return x, y


def _inf(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """The longest step along ``dv`` that keeps ``v`` nonnegative."""
    shrinking = dv < 0
    return float(np.min(-v[shrinking] / dv[shrinking], initial=np.inf))


def probe_oracle(scenario: Scenario) -> OracleReport:
    """The exact optimum of the scenario's dispatch; its gap to the engine.

    Runs the scenario's engine on the affine feeder model (linear
    feedback, the model the oracle solves) and solves the problem its last
    round stepped on against its own slack account (:func:`exact_saddle`).
    The report says whether that run converged; the relative gap is
    infinite where only the engine's point has a cost.
    """
    linear = replace(scenario, config=replace(scenario.config, feedback="linear"))
    run = run_scenario_in_memory(linear)
    problem = run.problem
    oracle, _ = exact_saddle(problem, run.account)
    best, engine = total_cost(problem, oracle), total_cost(problem, run.x)
    gap = abs(engine - best)
    residual = kkt_residual(problem, run.x, run.y, run.account)
    return OracleReport(
        objective_oracle=best,
        objective_engine=engine,
        objective_gap_rel=gap / best if best else (np.inf if gap else 0.0),
        coordinate_gap_inf=_inf(run.x.z - oracle.z),
        engine_feasibility=residual["band violation"],
        point_oracle=_point(oracle),
        point_engine=_point(run.x),
        converged=run.converged,
        iterations=run.iterations,
    )


def _point(x: PrimalState) -> dict:
    return {name: [float(v) for v in getattr(x, name)] for name in ("p", "q", "P_M")}


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
    if scenario.engine == "core":
        return solve(
            problem,
            scenario.config,
            x0=x0,
            y0=y0,
            account=scenario.account,
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
        account=scenario.account,
        probes=probes,
    )
