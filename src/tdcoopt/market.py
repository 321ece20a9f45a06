"""Decentralized market engine: the same dispatch via price signals.

The market routes the centralized round's own messages over an
in-process bus.  Each round the operator's broadcast is the round's one
price array over the primal vector ``z = [p, q, P_M]``
(:func:`tdcoopt.core.der_signals`).  Every agent — a DER user at
``(g, N + g)``, a generator at ``(2N + k,)`` — takes the centralized
primal step on each of its coordinates and reports only the values, as
Python floats in coordinate order.  The step is one call of the
extension module's ``agent_step`` on the round's float64 arrays, the
entry-wise arithmetic of the core's primal step kernel; where no library
loads, it is the numpy primal step of :func:`tdcoopt.core.primal_dual_step`
on the agent's entries of those arrays.  The operator places the values
at the coordinates its roster holds for each sender, in one call of
``file_reports`` for a round it accepts (:func:`operator_step`), and
ends the round in the core engine's own network half,
:func:`tdcoopt.core.settle` (measure the network response, update the
duals, price anew).  No private cost or capacity data ever reaches the
operator: it works from the reports, the roster (node and generator
positions) and the problem's compiled network
(:class:`~tdcoopt.core.CompiledNetwork`: the feeder models, the summed
fixed injection, the voltage band and the counts, no DER data) alone.

The rounds run inside the centralized engine's driver loop
(:func:`tdcoopt.core.solve`), which owns the state, events, step
norms, records and the stopping rule.  Agents keep no state: each round
every agent steps from its own coordinates of the loop's primal vector
and reads its cost coefficient and box from the same coordinates of the
problem's ``coef``, ``lo`` and ``hi``, as the loop hands the round both.
So an event exists once, in that problem and that ``z``
(:func:`~tdcoopt.core.apply_event`), and reaches an agent with no
message of its own.  The agents are read off the problem too: one user
per DER of each feeder, in node order, and one agent per generator.  The
trajectory and records coincide with the centralized engine's, bit for
bit.

Rounds are strictly synchronous: the agents step on the one price
broadcast of the previous round they collect from the bus, and the
operator on exactly one report per roster entry of the current round.
A missing, duplicated or stale broadcast or report (one an injected bus
fault drops included), a report from a sender off the roster, or one
that is not a list of as many finite floats as the sender has
coordinates aborts the run with a :class:`RoundAbort` naming the round
and the sender.  The operator publishes its power-flow results and
dual updates only to a recording bus, for its journal; no agent reads
them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import _native
from .core import (
    CompiledNetwork,
    DispatchProblem,
    DualState,
    EngineError,
    PrimalState,
    Round,
    SolveResult,
    SolverConfig,
    der_signals,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    dual_update,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    iteration_record,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    measure_feeders,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    settle,
    solve,
)

__all__ = [
    "RoundAbort",
    "AgentMessage",
    "MessageBus",
    "UserAgent",
    "GeneratorAgent",
    "OperatorConfig",
    "operator_step",
    "run_market",
]


class RoundAbort(EngineError):
    """The synchronous round contract was violated (missing/stale message).

    ``iteration`` is the round that broke.
    """


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class AgentMessage:
    """One bus message: kind, sender, round tag, and a payload.

    A broadcast carries the price array over ``z``, a report its sender's
    values; the observer messages carry dicts.
    """

    kind: str  # signal-broadcast | setpoint-report | pf-result | dual-update
    sender: str
    iteration_tag: int
    payload: Any

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "sender": self.sender,
            "iteration_tag": self.iteration_tag,
            "payload": _jsonable(self.payload),
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class MessageBus:
    """In-process bus with deterministic delivery order.

    Only the current round's messages can be collected: a message tagged
    with another round discards every queued one.  ``drop`` is a
    fault-injection hook: messages it matches are silently discarded; a
    dropped broadcast or report then surfaces as a :class:`RoundAbort`.
    With ``record`` set, every delivered message is also kept in
    ``journal`` for debugging (JSON-dumpable).
    """

    drop: Callable[[AgentMessage], bool] | None = None
    record: bool = False
    journal: list[AgentMessage] = field(default_factory=list)
    _queues: defaultdict = field(default_factory=lambda: defaultdict(list))
    _round: int | None = None

    def publish(self, message: AgentMessage) -> bool:
        if self.drop is not None and self.drop(message):
            return False
        if message.iteration_tag != self._round:
            self._queues.clear()
            self._round = message.iteration_tag
        self._queues[message.kind].append(message)
        if self.record:
            self.journal.append(message)
        return True

    def collect(self, kind: str, tag: int) -> list[AgentMessage]:
        if tag != self._round:
            return []
        return list(self._queues.get(kind, []))

    def counts(self, tag: int) -> dict[str, int]:
        """Messages of round ``tag`` per kind, read from the journal."""
        if not self.record:
            raise ValueError("message counts need a recording bus (record=True)")
        counts: dict[str, int] = {}
        for msg in self.journal:
            if msg.iteration_tag == tag:
                counts[msg.kind] = counts.get(msg.kind, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------

def _report(
    agent: UserAgent | GeneratorAgent,
    z: np.ndarray,
    coef: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    prices: np.ndarray,
    eps: float,
    tag: int,
) -> AgentMessage:
    """Step each of the agent's coordinates from ``z``; report the values,
    Python floats, in coordinate order.

    The arrays are the round's float64 arrays over ``z``.  One kernel call
    (``agent_step``) steps every coordinate; where no library loads, the
    core's numpy primal step (:func:`~tdcoopt.core.primal_dual_step`) runs
    on the agent's entries.
    """
    kernels = _native.library()
    if kernels is not None:
        values = kernels.agent_step(agent.coords, z, eps, coef, prices, lo, hi)
    else:
        # no comprehension in this function: its cells cost ~3 us a round
        c = list(agent.coords)
        step = z[c] - eps * (2.0 * coef[c] * z[c] + prices[c])
        values = np.clip(step, lo[c], hi[c]).tolist()
    return AgentMessage("setpoint-report", agent.name, tag, values)


# Each kind of agent holds the step in its own class namespace, where a
# traced run patches it (see perfbench/spans.py).

@dataclass(frozen=True)
class UserAgent:
    """A DER owner, known by its name and coordinates; it keeps no state.

    ``coords`` are ``(g, N + g)``, its ``p`` and ``q`` entries: of the
    round's primal vector, of the compiled problem's ``coef``, ``lo`` and
    ``hi`` (its private cost and limits), and of the broadcast prices.
    ``step(z, coef, lo, hi, prices, eps, tag)`` reads them from those
    float64 arrays and reports its two new values.
    """

    name: str
    coords: tuple[int, ...]

    step = _report


@dataclass(frozen=True)
class GeneratorAgent:
    """A dispatchable generator, known by its name and coordinate
    ``(2N + k,)``; it keeps no state.  ``step`` is :class:`UserAgent`'s,
    on its one coordinate."""

    name: str
    coords: tuple[int, ...]

    step = _report


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorConfig:
    """All the operator knows: the compiled network, roster and solver.

    The network (:class:`~tdcoopt.core.CompiledNetwork`) carries the
    feeder models, the summed fixed injection, the voltage band and the
    counts, never user costs or limits.  ``roster`` maps each sender to
    the coordinates of ``z`` its report fills: node and generator
    positions, no private data.
    """

    network: CompiledNetwork
    roster: dict[str, tuple[int, ...]]
    solver: SolverConfig  # stepsize, regularization, feedback source
    # from the roster: sender -> (position, coordinates); all coordinates
    slots: dict[str, tuple[int, tuple[int, ...]]] = field(
        init=False, repr=False, compare=False
    )
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = {s: (k, c) for k, (s, c) in enumerate(self.roster.items())}
        index = [c for coords in self.roster.values() for c in coords]
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "index", np.array(index, dtype=np.intp))


def operator_step(
    reports: list[AgentMessage],
    y: DualState,
    cfg: OperatorConfig,
    P0_slack: float,
    tag: int,
    warm: np.ndarray | None = None,
) -> Round:
    """File the round's reports, then settle it (:func:`~tdcoopt.core.settle`).

    Each report's values are placed at the coordinates the roster holds
    for its sender.  Returns the round's five values
    (:data:`~tdcoopt.core.Round`): the reported setpoints, the new duals,
    the measurement they rest on, the balance residual and the fresh
    prices over ``z``.  A stale, duplicated or missing report, one from a
    sender off the roster, or one that is not a list of as many finite
    floats as the sender has coordinates aborts the round.  One kernel call
    (``file_reports``) files a round it accepts; any other round, or every
    round where no library loads, goes through :func:`_file_reports`,
    which accepts the same rounds and names what is wrong with the others.
    """
    network = cfg.network
    n = network.n_nodes
    kernels = _native.library()
    z = None if kernels is None else kernels.file_reports(
        reports, tag, cfg.slots, 2 * n + network.n_generators
    )
    if z is None:
        z = _file_reports(reports, cfg, tag)
    return settle(network, PrimalState(z, n), y, P0_slack, cfg.solver, tag, warm)


def _file_reports(
    reports: list[AgentMessage], cfg: OperatorConfig, tag: int
) -> np.ndarray:
    """The round's ``z``: each report's values at its sender's coordinates,
    0.0 elsewhere; or a :class:`RoundAbort` naming the first fault."""
    # each report's values are filed at its sender's roster position, so
    # the round fills z in roster order whatever order it arrived in
    slots = cfg.slots
    placed: list = [None] * len(slots)
    for msg in reports:
        if msg.iteration_tag != tag:
            raise RoundAbort(
                f"stale report from {msg.sender}: tag {msg.iteration_tag}, "
                f"round {tag}",
                iteration=tag,
            )
        slot = slots.get(msg.sender)
        if slot is None:
            raise RoundAbort(
                f"report from {msg.sender}, who is not on the roster, in "
                f"round {tag}",
                iteration=tag,
            )
        k, coords = slot
        if placed[k] is not None:
            raise RoundAbort(
                f"duplicate report from {msg.sender} in round {tag}", iteration=tag
            )
        payload = msg.payload
        if type(payload) is not list:
            raise RoundAbort(
                f"report from {msg.sender} in round {tag} is not a list of "
                f"values: {payload!r}",
                iteration=tag,
            )
        if len(payload) != len(coords):
            raise RoundAbort(
                f"report from {msg.sender} in round {tag} holds "
                f"{len(payload)} values for {len(coords)} coordinates",
                iteration=tag,
            )
        placed[k] = payload
    if len(reports) != len(placed):  # each report filed a position of its own
        missing = [s for s, (k, _) in slots.items() if placed[k] is None]
        raise RoundAbort(
            f"round {tag} missing reports from: {', '.join(missing)}",
            iteration=tag,
        )

    values: list = []
    for payload in placed:
        values += payload
    network = cfg.network
    z = np.zeros(2 * network.n_nodes + network.n_generators)
    # the values are checked for the whole round at once, since honest
    # agents report Python floats
    if set(map(type, values)) <= {float}:
        z[cfg.index] = values
        if np.isfinite(z).all():
            return z
    bad = next(m for m in reports if not all(
        type(v) is float and math.isfinite(v) for v in m.payload))
    raise RoundAbort(
        f"report from {bad.sender} in round {tag} holds a value that is not a "
        f"finite float: {bad.payload!r}",
        iteration=tag,
    )


# ---------------------------------------------------------------------------
# the market round
# ---------------------------------------------------------------------------

def run_market(
    problem: DispatchProblem,
    cfg: SolverConfig,
    x0: PrimalState | None = None,
    y0: DualState | None = None,
    *,
    bus: MessageBus | None = None,
    **options,
) -> SolveResult:
    """Run :func:`tdcoopt.core.solve` with the market's round as its step.

    ``options`` are :func:`~tdcoopt.core.solve`'s keywords but ``step``,
    and the run keeps its contract.  One user ``user:<feeder>:<node>`` stands at each
    DER's ``(p, q)`` coordinates, in node order, and one
    ``generator:<bus>`` at each generator's; each round they exchange
    their messages over ``bus`` (a fresh :class:`MessageBus` when
    ``None``).  The operator sees only ``problem.network`` (no DER data),
    the roster of each agent's coordinates and the reports.
    """
    models = problem.models
    bus = MessageBus() if bus is None else bus

    N = problem.n_nodes
    agents: list[UserAgent | GeneratorAgent] = []
    for model in models:
        for j in np.flatnonzero(problem.coef[model.span] > 0).tolist():
            g = model.span.start + j
            name = f"user:{model.feeder_id}:{model.node_ids[j]}"
            agents.append(UserAgent(name, (g, N + g)))
    agents += [
        GeneratorAgent(f"generator:{gen_bus}", (2 * N + k,))
        for k, gen_bus in enumerate(problem.gen_bus)
    ]
    op_cfg = OperatorConfig(
        problem.network, {a.name: a.coords for a in agents}, cfg
    )

    def step(problem, x, y, P0_slack, cfg, t, warm, signals):
        if t == 1:  # the opening broadcast, at the starting duals
            bus.publish(AgentMessage("signal-broadcast", "operator", 0, signals))

        received = bus.collect("signal-broadcast", t - 1)
        if len(received) != 1:
            raise RoundAbort(
                f"round {t} received {len(received)} signal broadcasts "
                f"from round {t - 1}, expected one",
                iteration=t,
            )
        prices = received[0].payload
        z, coef, lo, hi = x.z, problem.coef, problem.lo, problem.hi
        # a Python float, so that the agents report Python floats on either
        # path whatever real number the stepsize is
        publish, eps = bus.publish, float(cfg.eps)
        for agent in agents:
            publish(agent.step(z, coef, lo, hi, prices, eps, t))

        x, y, meas, residual, signals = operator_step(
            bus.collect("setpoint-report", t), y, op_cfg, P0_slack, tag=t, warm=warm
        )
        if bus.record:  # observer messages, for the journal only
            for k, model in enumerate(models):
                pf = {"feeder": k, "v": meas.v[model.span], "P_L": float(meas.P_L[k])}
                publish(AgentMessage("pf-result", "operator", t, pf))
            dual = {"lambda": y.lam, "residual": residual}
            publish(AgentMessage("dual-update", "operator", t, dual))
        publish(AgentMessage("signal-broadcast", "operator", t, signals))
        return x, y, meas, residual, signals

    return solve(problem, cfg, x0, y0, step=step, **options)
