"""Decentralized market engine: equivalence, privacy, and round discipline.

The load-bearing fact is trajectory equivalence: in gradient mode the
market rounds must reproduce the centralized engine's iterates coordinate
for coordinate, because both call the same shared update arithmetic.  The
privacy tests then confirm the message layer carries no cost or capacity
data, and the fault-injection tests confirm any broken round aborts loudly
instead of silently degrading.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from tdcoopt.acpf import SlackAccount
from tdcoopt.core import (
    DerCapacityScale,
    DivergenceError,
    DualState,
    EngineError,
    GeneratorOutage,
    SolverConfig,
    build_problem,
    initial_state,
    solve,
)
from tdcoopt.market import (
    AgentMessage,
    IncentiveSignals,
    MessageBus,
    OperatorConfig,
    RoundAbort,
    generator_step,
    operator_step,
    run_market,
    user_best_response,
    user_step,
)
from tdcoopt.network import VoltageLimits

from conftest import make_system, primal

LIMITS = VoltageLimits(v_min=0.95, v_max=1.05)
EVENTS = (
    GeneratorOutage(iteration=60, bus_id=2),
    DerCapacityScale(iteration=60, factor=2.0),
)
# two cuts in a row: each agent's box must be the problem's
# ``(p_min * 0.3) * 0.7``, not a rebuilt ``(0.3 * 0.7) * p_min``
TWO_RESCALES = (
    DerCapacityScale(iteration=50, factor=0.3),
    DerCapacityScale(iteration=100, factor=0.7),
)

# a DER's cost (a_p, a_q) and box (p_lo, p_hi, q_lo, q_hi)
COST = (1.0, 0.1)
BOX = (0.0, 0.05, -0.02, 0.02)


# ---------------------------------------------------------------------------
# agent update rules
# ---------------------------------------------------------------------------

def test_user_step_arithmetic():
    # [TRIVIAL] one projected gradient step from (0.01, 0.0)
    p, q = user_step((0.01, 0.0), (-1.0, 0.5), COST, BOX, eps=0.01)
    assert p == pytest.approx(0.01 - 0.01 * (2 * 0.01 - 1.0))
    assert q == pytest.approx(max(-0.02, 0.0 - 0.01 * 0.5))


def test_user_step_projects_into_box():
    p, q = user_step((0.05, 0.02), (-100.0, -100.0), COST, BOX, eps=1.0)
    assert (p, q) == (0.05, 0.02)


def test_user_step_starts_from_the_setpoint_held_in_the_box():
    # a setpoint a capacity cut left outside the box steps from the box
    # edge, as the centralized engine's re-projected state does
    outside = user_step((0.09, -0.05), (0.0, 0.0), COST, BOX, eps=0.01)
    at_edge = user_step((0.05, -0.02), (0.0, 0.0), COST, BOX, eps=0.01)
    assert outside == at_edge


def test_user_best_response():
    # [DERIVED] unconstrained argmin of a_p p^2 + alpha p is -alpha / 2 a_p
    p, q = user_best_response((-0.06, -0.002), COST, BOX)
    assert p == pytest.approx(0.03)
    assert q == pytest.approx(0.01)
    p_clamped, _ = user_best_response((-1.0, 0.0), COST, BOX)
    assert p_clamped == 0.05


def test_generator_step():
    assert generator_step(1.0, -4.0, 1.0, 0.0, 10.0, eps=0.1) == pytest.approx(1.2)
    # an offline generator is the box [0, 0]: zero output at any price
    assert generator_step(1.0, -4.0, 1.0, 0.0, 0.0, eps=0.1) == 0.0


@pytest.mark.parametrize(
    "events",
    [(GeneratorOutage(iteration=3, bus_id=2),),
     (DerCapacityScale(iteration=3, factor=0.5),)],
    ids=["trip", "rescale"],
)
def test_agents_follow_the_events_of_the_problem(events):
    # an event reaches the agents only through the problem the loop hands
    # each round: their setpoints after it equal the centralized engine's
    problem = build_problem(
        make_system(n_feeders=1, gen_specs=[(1, 1.0), (2, 1.5)]), LIMITS
    )
    x0, _ = initial_state(problem)
    # start at the top of every DER box, so a cut must move the setpoints
    N = problem.n_nodes
    x0 = primal(problem.hi[:N], problem.hi[N : 2 * N], x0.P_M)
    for max_iter in (3, 6):
        cfg = SolverConfig(eps=0.01, max_iter=max_iter, tol_primal=0.0,
                           tol_dual=0.0, tol_balance=0.0)
        core_x = solve(problem, cfg, x0=x0, events=events).x
        market_x = run_market(problem, cfg, x0=x0, events=events).x
        np.testing.assert_array_equal(market_x.p, core_x.p)
        np.testing.assert_array_equal(market_x.q, core_x.q)
        np.testing.assert_array_equal(market_x.P_M, core_x.P_M)
    if isinstance(events[0], GeneratorOutage):
        assert market_x.P_M[1] == 0.0
    else:
        assert np.all(market_x.p <= 0.5 * problem.hi[:N])


# ---------------------------------------------------------------------------
# trajectory equivalence with the centralized engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "feedback, events",
    [
        pytest.param("linear", EVENTS, id="linear"),
        pytest.param("ac", EVENTS, id="ac"),
        pytest.param("linear", TWO_RESCALES, id="linear-two-rescales"),
        pytest.param("ac", TWO_RESCALES, id="ac-two-rescales"),
    ],
)
def test_gradient_mode_matches_centralized_engine(feedback, events):
    # identical rounds, identical arithmetic: every iterate must agree to
    # the last bit (1e-12 leaves room only for float noise, none expected)
    cfg = SolverConfig(eps=0.01, eta=0.0, max_iter=120, tol_primal=0.0,
                       tol_dual=0.0, tol_balance=0.0, feedback=feedback,
                       record_state=True)
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, LIMITS)
    core_res = solve(problem, cfg, events=events)
    market_res = run_market(problem, cfg, events=events)

    assert market_res.iterations == core_res.iterations
    for (xc, yc), (xm, ym) in zip(core_res.history, market_res.history):
        assert np.max(np.abs(xc.p - xm.p)) < 1e-12
        assert np.max(np.abs(xc.q - xm.q)) < 1e-12
        assert np.max(np.abs(xc.P_M - xm.P_M)) < 1e-12
        assert abs(yc.lam - ym.lam) < 1e-12
        assert np.max(np.abs(yc.mu - ym.mu)) < 1e-12
    # one driver loop writes both: every field of every record agrees,
    # the step norms of the event round included
    assert market_res.records == core_res.records


@pytest.mark.parametrize("feedback", ["linear", "ac"])
def test_market_roster_comes_from_the_compiled_problem(feedback):
    # feeders that list their DERs against node order: the users still
    # report in node order, named by feeder and node, and the run still
    # writes the centralized engine's records
    base = make_system(
        n_feeders=2, der_layout={2: {}, 3: {"a_p": 2.0}, 4: {"a_p": 0.5}}
    )
    system = replace(
        base, feeders=tuple(replace(f, ders=f.ders[::-1]) for f in base.feeders)
    )
    assert [der.node_id for der in system.feeders[0].ders] == [4, 3, 2]
    problem = build_problem(system, LIMITS)
    cfg = SolverConfig(eps=0.01, max_iter=20, tol_primal=0.0, tol_dual=0.0,
                       tol_balance=0.0, feedback=feedback)
    bus = MessageBus(record=True)
    market_res = run_market(problem, cfg, bus=bus)

    senders = [
        msg.sender for msg in bus.journal
        if msg.kind == "setpoint-report" and msg.iteration_tag == 1
    ]
    assert senders == [
        "user:f0:2", "user:f0:3", "user:f0:4",
        "user:f1:2", "user:f1:3", "user:f1:4",
        "generator:1", "generator:2",
    ]
    assert market_res.records == solve(problem, cfg).records


def test_market_seeds_agents_from_x0():
    system = make_system(n_feeders=1)
    problem = build_problem(system, LIMITS)
    x0, y0 = initial_state(problem)
    x0 = primal([0.0, 0.01, 0.02], x0.q, x0.P_M)
    cfg = SolverConfig(eps=0.01, max_iter=0)
    res = run_market(problem, cfg, x0=x0, y0=y0)
    np.testing.assert_allclose(res.x.p, [0.0, 0.01, 0.02])


def test_best_response_reaches_the_same_saddle():
    problem = build_problem(
        make_system(n_feeders=1, gen_specs=[(1, 1.0), (2, 1.5)]), LIMITS
    )
    cfg = SolverConfig(eps=0.02, max_iter=30000, tol_primal=1e-8,
                       tol_dual=1e-8, tol_balance=1e-8)
    grad = run_market(problem, cfg, mode="gradient")
    br = run_market(problem, cfg, mode="best-response")
    assert grad.converged and br.converged
    assert br.y.lam == pytest.approx(grad.y.lam, abs=1e-5)
    np.testing.assert_allclose(br.x.P_M, grad.x.P_M, atol=1e-5)
    np.testing.assert_allclose(br.x.p, grad.x.p, atol=1e-5)


def test_best_response_fixpoint_is_box_clamped_optimum():
    system = make_system(n_feeders=1)
    problem = build_problem(system, LIMITS)
    cfg = SolverConfig(eps=0.02, max_iter=30000, tol_primal=1e-9,
                       tol_dual=1e-9, tol_balance=1e-9)
    res = run_market(problem, cfg, mode="best-response")
    assert res.converged
    from tdcoopt.core import der_signals

    prices = der_signals(problem.models, res.y)
    N = problem.n_nodes
    lo, hi = problem.lo, problem.hi
    for g in np.flatnonzero(problem.coef[:N]):
        h = N + g  # the DER's q coordinate, in z and in the prices
        p_star, q_star = user_best_response(
            (float(prices[g]), float(prices[h])),
            (problem.coef[g], problem.coef[h]),
            (lo[g], hi[g], lo[h], hi[h]),
        )
        assert res.x.p[g] == pytest.approx(p_star, abs=1e-7)
        assert res.x.q[g] == pytest.approx(q_star, abs=1e-7)


def test_unknown_market_mode():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    with pytest.raises(ValueError, match="market mode"):
        run_market(problem, SolverConfig(max_iter=1), mode="auction")


def test_market_divergence_error():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    cfg = SolverConfig(eps=50.0, max_iter=100, divergence_limit=300.0)
    with pytest.raises(DivergenceError, match="blow-up"):
        run_market(problem, cfg)


# ---------------------------------------------------------------------------
# message accounting and privacy
# ---------------------------------------------------------------------------

def test_round_message_counts():
    # 2 DERs per feeder, 2 generators
    problem = build_problem(make_system(n_feeders=2), LIMITS)
    bus = MessageBus(record=True)
    cfg = SolverConfig(eps=0.01, max_iter=3, tol_primal=0.0, tol_dual=0.0,
                       tol_balance=0.0)
    run_market(problem, cfg, bus=bus)
    assert bus.counts(0) == {"signal-broadcast": 1}
    for t in (1, 2, 3):
        assert bus.counts(t) == {
            "setpoint-report": 6,  # 4 users + 2 generators
            "pf-result": 2,
            "dual-update": 1,
            "signal-broadcast": 1,
        }
    assert len(bus.journal) == 1 + 3 * 10


def test_bus_keeps_only_the_current_round():
    problem = build_problem(make_system(n_feeders=2), LIMITS)
    bus = MessageBus()
    cfg = SolverConfig(eps=0.01, max_iter=3, tol_primal=0.0, tol_dual=0.0,
                       tol_balance=0.0)
    run_market(problem, cfg, bus=bus)
    for kind in ("setpoint-report", "pf-result", "dual-update",
                 "signal-broadcast"):
        assert bus.collect(kind, 1) == []
    assert len(bus.collect("setpoint-report", 3)) == 6
    assert bus.journal == []
    with pytest.raises(ValueError, match="record=True"):
        bus.counts(3)


def test_journal_is_json_dumpable_and_private():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    bus = MessageBus(record=True)
    cfg = SolverConfig(eps=0.01, max_iter=2, tol_primal=0.0, tol_dual=0.0,
                       tol_balance=0.0)
    run_market(problem, cfg, bus=bus)
    dump = json.dumps([m.to_jsonable() for m in bus.journal])
    # no private cost or capacity field ever crosses the bus
    for secret in ("a_p", "a_q", "p_min", "p_max", "q_min", "q_max",
                   "cost_coefficient"):
        assert secret not in dump


def test_incentive_signals_jsonable():
    signals = IncentiveSignals(
        prices=np.array([0.1, 0.2]), lambda_broadcast=-1.0, iteration_tag=4,
    )
    msg = AgentMessage("signal-broadcast", "operator", 4, signals)
    encoded = json.loads(json.dumps(msg.to_jsonable()))
    assert encoded["payload"]["lambda"] == -1.0
    assert encoded["payload"]["prices"] == [0.1, 0.2]


# ---------------------------------------------------------------------------
# round discipline (fault injection)
# ---------------------------------------------------------------------------

def operator_fixture():
    system = make_system(n_feeders=1, gen_specs=[(1, 1.0)])
    problem = build_problem(system, LIMITS)
    _, y = initial_state(problem)
    cfg = OperatorConfig(
        fixed_injection=problem.fixed_injection,
        n_generators=problem.n_generators,
        limits=LIMITS,
        expected_reports=("user:f0:3", "generator:1"),
        solver=SolverConfig(eps=0.01),
    )
    return problem, y, cfg


def report(sender: str, tag: int, **payload) -> AgentMessage:
    return AgentMessage("setpoint-report", sender, tag, payload)


def test_operator_step_accepts_complete_round():
    problem, y, cfg = operator_fixture()
    account = SlackAccount(P0_slack=0.0)
    reports = [
        report("user:f0:3", 1, node=1, p=0.01, q=0.0),
        report("generator:1", 1, generator=0, P=1.5),
    ]
    outcome, signals = operator_step(
        reports, y, problem.models, cfg, account, tag=1
    )
    assert outcome.x.P_M[0] == 1.5
    np.testing.assert_array_equal(outcome.x.p, [0.0, 0.01, 0.0])
    assert signals.iteration_tag == 1
    # the operator's dual update consumed its own measurement
    assert outcome.measurement.tag == 1


def test_operator_step_rejects_missing_report():
    problem, y, cfg = operator_fixture()
    reports = [report("generator:1", 1, generator=0, P=1.5)]
    with pytest.raises(RoundAbort, match="missing reports from: user:f0:3"):
        operator_step(reports, y, problem.models, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)


def test_operator_step_rejects_stale_report():
    problem, y, cfg = operator_fixture()
    reports = [
        report("user:f0:3", 0, node=1, p=0.0, q=0.0),
        report("generator:1", 1, generator=0, P=1.5),
    ]
    with pytest.raises(RoundAbort, match="stale report"):
        operator_step(reports, y, problem.models, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)


def test_operator_step_rejects_duplicate_report():
    problem, y, cfg = operator_fixture()
    reports = [
        report("user:f0:3", 1, node=1, p=0.0, q=0.0),
        report("user:f0:3", 1, node=1, p=0.01, q=0.0),
        report("generator:1", 1, generator=0, P=1.5),
    ]
    with pytest.raises(RoundAbort, match="duplicate report"):
        operator_step(reports, y, problem.models, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)


def test_dropped_message_aborts_the_run():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    bus = MessageBus(
        drop=lambda m: m.kind == "setpoint-report" and m.sender == "user:f0:4"
    )
    cfg = SolverConfig(eps=0.01, max_iter=5)
    with pytest.raises(RoundAbort, match="missing reports from: user:f0:4"):
        run_market(problem, cfg, bus=bus)


@pytest.mark.parametrize("tag", [0, 3])
def test_dropped_broadcast_aborts_the_run(tag):
    # the agents step on the broadcast the bus delivers, so losing one
    # (the opening one at tag 0 included) stops the next round
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    bus = MessageBus(
        drop=lambda m: m.kind == "signal-broadcast" and m.iteration_tag == tag
    )
    cfg = SolverConfig(eps=0.01, max_iter=8)
    with pytest.raises(RoundAbort, match="0 signal broadcasts") as exc:
        run_market(problem, cfg, bus=bus)
    assert exc.value.iteration == tag + 1


def test_duplicated_broadcast_aborts_the_run():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    bus = MessageBus()
    original = bus.publish

    def publish_twice(message):
        if message.kind == "signal-broadcast" and message.iteration_tag == 2:
            original(message)
        return original(message)

    bus.publish = publish_twice
    cfg = SolverConfig(eps=0.01, max_iter=8)
    with pytest.raises(RoundAbort, match="2 signal broadcasts") as exc:
        run_market(problem, cfg, bus=bus)
    assert exc.value.iteration == 3


def test_observer_messages_are_not_read_by_the_agents():
    # power-flow results and dual updates are published for observers and
    # the journal; losing them changes nothing
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    cfg = SolverConfig(eps=0.01, max_iter=8)
    bus = MessageBus(drop=lambda m: m.kind in ("pf-result", "dual-update"))
    assert run_market(problem, cfg, bus=bus).records == (
        run_market(problem, cfg).records
    )


def test_round_abort_carries_its_round_and_the_records_before_it():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    bus = MessageBus(
        drop=lambda m: m.kind == "setpoint-report" and m.iteration_tag == 3
        and m.sender == "user:f0:4"
    )
    cfg = SolverConfig(eps=0.01, max_iter=8)
    with pytest.raises(EngineError, match="round 3 missing reports") as exc:
        run_market(problem, cfg, bus=bus)
    assert isinstance(exc.value, RoundAbort)
    assert exc.value.iteration == 3
    assert [r.iteration for r in exc.value.records] == [0, 1, 2]


def test_market_event_unknown_bus_aborts():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    cfg = SolverConfig(eps=0.01, max_iter=5)
    with pytest.raises(EngineError, match="hosts no generator"):
        run_market(problem, cfg,
                   events=(GeneratorOutage(iteration=2, bus_id=404),))
