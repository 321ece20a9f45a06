"""Decentralized market engine: the same dispatch via price signals.

Three agent roles exchange messages over an in-process bus.  Each round:
DER users and generators take one projected step on their own private
objectives using the last broadcast prices (the user objective is the
private cost plus ``alpha p + beta q``); the operator collects the
reported setpoints and ends the round in the core engine's own network
half, :func:`tdcoopt.core.settle` (measure the network response, update
the duals, price anew), then broadcasts the fresh incentive signals.  No
private cost or capacity data ever reaches the operator — it works from
setpoint reports, the compiled feeder models of the problem (which hold
no DER data), the summed fixed injection and the generator count alone.

This module only routes messages: the rounds run inside the centralized
engine's driver loop (:func:`tdcoopt.core.run_rounds`), which also owns
events, step norms, records and the stopping rule.  Each agent reads its
cost coefficient and box from its own coordinates of the problem's
``coef``, ``lo`` and ``hi`` over the primal vector ``z = [p, q, P_M]``,
as the loop hands the round that problem, so an event exists once, in
that problem, and reaches an agent with no message of its own.  The
agents themselves are read off the problem too: one user per DER
coordinate (``coef > 0``) of each feeder, in node order, and one agent
per generator.  The operator assembles one ``z`` from the reports.  In
gradient mode the produced trajectory and records coincide with the
centralized engine's, bit for bit: the agents' steps are the primal
step's arithmetic, and both engines end each round in the same
:func:`~tdcoopt.core.settle`.  Best-response mode instead lets users
jump straight to their box-clamped optimum against the current prices
(a dual-ascent variant, quadratic costs only).

Rounds are strictly synchronous: the agents step on the one price
broadcast of the previous round they collect from the bus, and the
operator on exactly one report per agent of the current round.  A
missing, duplicated, or stale broadcast or report — including one an
injected bus fault drops — aborts the run with a :class:`RoundAbort`
naming the round.  The power-flow results and dual updates the operator
also publishes are for observers and the bus journal; no agent reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .acpf import SlackAccount
from .core import (
    DispatchProblem,
    DualState,
    EngineError,
    PrimalState,
    SolveResult,
    SolverConfig,
    StepOutcome,
    der_signals,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    dual_update,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    initial_state,
    iteration_record,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    measure_feeders,  # noqa: F401  (kept patchable here, see perfbench/spans.py)
    project_box,
    run_rounds,
    settle,
)
from .lindistflow import LinearFeederModel
from .network import VoltageLimits

__all__ = [
    "RoundAbort",
    "IncentiveSignals",
    "AgentMessage",
    "MessageBus",
    "user_step",
    "user_best_response",
    "generator_step",
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

@dataclass(frozen=True)
class IncentiveSignals:
    """Broadcast prices: the DER prices over ``z[:2N]`` (alpha, then beta)
    plus the balance price for generators, all tagged with the round they
    were computed in."""

    prices: np.ndarray
    lambda_broadcast: float
    iteration_tag: int


@dataclass(frozen=True)
class AgentMessage:
    """One bus message: kind, sender, round tag, and a payload dict."""

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
    if isinstance(value, IncentiveSignals):
        return {
            "prices": _jsonable(value.prices),
            "lambda": value.lambda_broadcast,
            "iteration_tag": value.iteration_tag,
        }
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
    _queues: dict = field(default_factory=dict)
    _round: int | None = None

    def publish(self, message: AgentMessage) -> bool:
        if self.drop is not None and self.drop(message):
            return False
        if message.iteration_tag != self._round:
            self._queues.clear()
            self._round = message.iteration_tag
        self._queues.setdefault(message.kind, []).append(message)
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
# agent update rules (pure)
# ---------------------------------------------------------------------------

Box = tuple[float, float, float, float]  # p_lo, p_hi, q_lo, q_hi


def user_step(
    state: tuple[float, float],
    signals: tuple[float, float],
    cost: tuple[float, float],
    box: Box,
    eps: float,
) -> tuple[float, float]:
    """One projected gradient step on the user's own objective.

    Uses only the user's private cost coefficients ``(a_p, a_q)``, its
    box and the received prices.  The step starts from the setpoint held
    inside the box, which a capacity cut may have moved it out of.
    """
    p, q = state
    p_lo, p_hi, q_lo, q_hi = box
    if not (p_lo <= p <= p_hi and q_lo <= q <= q_hi):  # rare: after a cut
        p = project_box(p, p_lo, p_hi)
        q = project_box(q, q_lo, q_hi)
    alpha, beta = signals
    a_p, a_q = cost
    p_new = project_box(p - eps * (2.0 * a_p * p + alpha), p_lo, p_hi)
    q_new = project_box(q - eps * (2.0 * a_q * q + beta), q_lo, q_hi)
    return p_new, q_new


def user_best_response(
    signals: tuple[float, float], cost: tuple[float, float], box: Box
) -> tuple[float, float]:
    """Box-clamped exact minimizer of the user objective (quadratic cost)."""
    alpha, beta = signals
    a_p, a_q = cost
    p_lo, p_hi, q_lo, q_hi = box
    p_star = project_box(-alpha / (2.0 * a_p), p_lo, p_hi)
    q_star = project_box(-beta / (2.0 * a_q), q_lo, q_hi)
    return p_star, q_star


def generator_step(
    P_M: float, lam: float, c: float, lo: float, hi: float, eps: float
) -> float:
    """One projected gradient step on the cost ``c P**2`` over ``[lo, hi]``.

    An offline generator has the box ``[0, 0]`` and so holds zero output.
    """
    return project_box(P_M - eps * (2.0 * c * P_M + lam), lo, hi)


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------

@dataclass
class UserAgent:
    """A DER owner and its current setpoint.

    Its private cost and limits are its own coordinates of the compiled
    problem: ``index`` for ``p``, ``q_index`` for ``q``.  Its prices sit
    at the same coordinates of the broadcast.
    """

    name: str
    index: int  # the DER node's position in the global node vectors
    q_index: int  # index + the number of feeder nodes
    p: float = 0.0
    q: float = 0.0

    def step(
        self,
        coef: list[float],
        lo: list[float],
        hi: list[float],
        signals: IncentiveSignals,
        eps: float,
        mode: str,
    ) -> None:
        """Move on ``coef``, ``lo`` and ``hi``, the problem's as lists."""
        i, j = self.index, self.q_index
        prices = (signals.prices.item(i), signals.prices.item(j))
        cost = (coef[i], coef[j])
        box = (lo[i], hi[i], lo[j], hi[j])
        if mode == "gradient":
            self.p, self.q = user_step((self.p, self.q), prices, cost, box, eps)
        elif mode == "best-response":
            self.p, self.q = user_best_response(prices, cost, box)
        else:
            raise ValueError(f"unknown market mode {mode!r}")

    def report(self, tag: int) -> AgentMessage:
        return AgentMessage(
            kind="setpoint-report",
            sender=self.name,
            iteration_tag=tag,
            payload={"node": self.index, "p": self.p, "q": self.q},
        )


@dataclass
class GeneratorAgent:
    """A dispatchable generator and its current output.

    Its cost coefficient and box are its own coordinate ``z_index`` of
    the compiled problem.
    """

    name: str
    index: int  # the generator's position among the generators
    z_index: int  # index + twice the number of feeder nodes
    P: float = 0.0

    def step(
        self,
        coef: list[float],
        lo: list[float],
        hi: list[float],
        signals: IncentiveSignals,
        eps: float,
    ) -> None:
        """Move on ``coef``, ``lo`` and ``hi``, the problem's as lists."""
        i = self.z_index
        self.P = generator_step(
            self.P, signals.lambda_broadcast, coef[i], lo[i], hi[i], eps
        )

    def report(self, tag: int) -> AgentMessage:
        return AgentMessage(
            kind="setpoint-report",
            sender=self.name,
            iteration_tag=tag,
            payload={"generator": self.index, "P": self.P},
        )


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorConfig:
    """What the operator knows besides the compiled feeder models.

    Those models carry topology, impedances and base loads, never user
    costs or limits.
    """

    fixed_injection: float  # summed fixed bus injections, slack bus excluded
    n_generators: int
    limits: VoltageLimits
    expected_reports: tuple[str, ...]
    solver: SolverConfig  # stepsize, regularization, feedback source


def operator_step(
    reports: list[AgentMessage],
    y: DualState,
    models: tuple[LinearFeederModel, ...],
    cfg: OperatorConfig,
    account: SlackAccount,
    tag: int,
    warm: np.ndarray | None = None,
) -> tuple[StepOutcome, IncentiveSignals]:
    """Validate the round, then settle it (:func:`~tdcoopt.core.settle`).

    Returns the round's outcome (reported setpoints, new duals, and the
    measurement they rest on) and the fresh signals.  Any missing,
    duplicated, or stale report aborts the round.
    """
    seen: dict[str, AgentMessage] = {}
    for msg in reports:
        if msg.iteration_tag != tag:
            raise RoundAbort(
                f"stale report from {msg.sender}: tag {msg.iteration_tag}, "
                f"round {tag}",
                iteration=tag,
            )
        if msg.sender in seen:
            raise RoundAbort(
                f"duplicate report from {msg.sender} in round {tag}", iteration=tag
            )
        seen[msg.sender] = msg
    missing = [s for s in cfg.expected_reports if s not in seen]
    if missing:
        raise RoundAbort(
            f"round {tag} missing reports from: {', '.join(missing)}",
            iteration=tag,
        )

    n = sum(m.n_nodes for m in models)
    z = np.zeros(2 * n + cfg.n_generators)
    for msg in seen.values():
        pay = msg.payload
        if "generator" in pay:
            z[2 * n + pay["generator"]] = pay["P"]
        else:
            z[pay["node"]] = pay["p"]
            z[n + pay["node"]] = pay["q"]
    outcome, prices = settle(
        models, cfg.fixed_injection, cfg.limits, PrimalState(z, n), y, account,
        cfg.solver, tag, warm,
    )
    return outcome, IncentiveSignals(
        prices=prices, lambda_broadcast=outcome.y.lam, iteration_tag=tag
    )


# ---------------------------------------------------------------------------
# the market round
# ---------------------------------------------------------------------------

def run_market(
    problem: DispatchProblem,
    cfg: SolverConfig,
    events: tuple = (),
    mode: str = "gradient",
    x0: PrimalState | None = None,
    y0: DualState | None = None,
    account: SlackAccount | None = None,
    probes: tuple[int, ...] | None = None,
    bus: MessageBus | None = None,
) -> SolveResult:
    """Run synchronous market rounds until the stopping rule fires.

    The rounds go through the centralized engine's driver loop
    (:func:`~tdcoopt.core.run_rounds`); this engine only routes each
    round's messages between the agents and the operator.  Each round
    the agents read their private data from their own entries of the
    problem the loop hands it, events applied; the operator gets only
    ``problem.models``, the fixed injection and the generator count.  One
    user ``user:<feeder>:<node>`` stands at each DER coordinate, in node
    order.  In ``gradient`` mode the trajectory equals the centralized
    engine's.  ``x0`` seeds the agents (its ``p``/``q`` entries at nodes
    without a DER are ignored).  The caller's ``problem`` is not
    modified, events included.
    """
    if mode not in ("gradient", "best-response"):
        raise ValueError(f"unknown market mode {mode!r}")
    models = problem.models
    if bus is None:
        bus = MessageBus()
    x_init, y_init = initial_state(problem)
    x0 = x_init if x0 is None else x0
    y0 = y_init if y0 is None else y0

    N = problem.n_nodes
    # only DER and generator coordinates carry a cost (build_problem)
    z = np.where(problem.coef > 0, x0.z, 0.0)
    users: list[UserAgent] = []
    for model in models:
        for j in np.flatnonzero(problem.coef[model.span] > 0).tolist():
            g = model.span.start + j
            name = f"user:{model.feeder_id}:{model.node_ids[j]}"
            users.append(UserAgent(name, g, N + g, float(z[g]), float(z[N + g])))
    generators = [
        GeneratorAgent(
            name=f"generator:{gen_bus}", index=i, z_index=2 * N + i,
            P=float(z[2 * N + i]),
        )
        for i, gen_bus in enumerate(problem.gen_bus)
    ]
    op_cfg = OperatorConfig(
        fixed_injection=problem.fixed_injection,
        n_generators=problem.n_generators,
        limits=problem.limits,
        expected_reports=tuple(a.name for a in users + generators),
        solver=cfg,
    )

    # the agents read the problem last handed in as lists of Python floats,
    # converted again only when an event hands in a new one
    held = coef = lo = hi = None

    def step(problem, x, y, account, cfg, t, warm, signals):
        nonlocal held, coef, lo, hi
        if problem is not held:
            held = problem
            coef, lo, hi = (a.tolist() for a in (problem.coef, problem.lo, problem.hi))
        if t == 1:  # the opening broadcast, at the starting duals
            opening = IncentiveSignals(
                prices=signals, lambda_broadcast=y.lam, iteration_tag=0
            )
            bus.publish(AgentMessage("signal-broadcast", "operator", 0, opening))

        received = bus.collect("signal-broadcast", t - 1)
        if len(received) != 1:
            raise RoundAbort(
                f"round {t} received {len(received)} signal broadcasts "
                f"from round {t - 1}, expected one",
                iteration=t,
            )
        prices = received[0].payload
        for u in users:
            u.step(coef, lo, hi, prices, cfg.eps, mode)
            bus.publish(u.report(t))
        for g in generators:
            g.step(coef, lo, hi, prices, cfg.eps)
            bus.publish(g.report(t))

        outcome, broadcast = operator_step(
            bus.collect("setpoint-report", t), y, models, op_cfg, account,
            tag=t, warm=warm,
        )
        meas = outcome.measurement
        for k, model in enumerate(models):
            pf = {"feeder": k, "v": meas.v[model.span], "P_L": float(meas.P_L[k])}
            bus.publish(AgentMessage("pf-result", "operator", t, pf))
        dual = {"lambda": outcome.y.lam, "residual": outcome.balance_residual}
        bus.publish(AgentMessage("dual-update", "operator", t, dual))
        bus.publish(AgentMessage("signal-broadcast", "operator", t, broadcast))
        return outcome, broadcast.prices

    return run_rounds(
        problem, cfg, PrimalState(z, N), y0, account, events, probes, step
    )
