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
import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcoopt.core import (
    CompiledNetwork,
    DerCapacityScale,
    DivergenceError,
    DualState,
    EngineError,
    GeneratorOutage,
    SlackAccount,
    SolverConfig,
    build_problem,
    check_stepsize,
    der_signals,
    initial_state,
    solve,
)
from tdcoopt.market import (
    AgentMessage,
    MessageBus,
    OperatorConfig,
    RoundAbort,
    best_response,
    coordinate_step,
    operator_step,
    run_market,
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

# a DER's p and q coordinates: cost coefficient, lower and upper limit
P_COORD = (1.0, 0.0, 0.05)
Q_COORD = (0.1, -0.02, 0.02)


# ---------------------------------------------------------------------------
# agent update rules
# ---------------------------------------------------------------------------

def test_user_step_arithmetic():
    # [TRIVIAL] one projected gradient step from (0.01, 0.0), one
    # coordinate at a time
    p = coordinate_step(0.01, -1.0, *P_COORD, eps=0.01)
    q = coordinate_step(0.0, 0.5, *Q_COORD, eps=0.01)
    assert p == pytest.approx(0.01 - 0.01 * (2 * 0.01 - 1.0))
    assert q == pytest.approx(max(-0.02, 0.0 - 0.01 * 0.5))


def test_user_step_projects_into_box():
    p = coordinate_step(0.05, -100.0, *P_COORD, eps=1.0)
    q = coordinate_step(0.02, -100.0, *Q_COORD, eps=1.0)
    assert (p, q) == (0.05, 0.02)


def test_user_best_response():
    # [DERIVED] unconstrained argmin of a_p p^2 + alpha p is -alpha / 2 a_p
    assert best_response(-0.06, *P_COORD) == pytest.approx(0.03)
    assert best_response(-0.002, *Q_COORD) == pytest.approx(0.01)
    assert best_response(-1.0, *P_COORD) == 0.05


def test_generator_step():
    assert coordinate_step(1.0, -4.0, 1.0, 0.0, 10.0, eps=0.1) == pytest.approx(1.2)
    # an offline generator is the box [0, 0]: zero output at any price
    assert coordinate_step(1.0, -4.0, 1.0, 0.0, 0.0, eps=0.1) == 0.0


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
        cfg = SolverConfig(eps=0.01, max_iter=max_iter, tol=0.0)
        core_x = solve(problem, cfg, x0=x0, events=events).x
        market_x = run_market(problem, cfg, x0=x0, events=events).x
        np.testing.assert_array_equal(market_x.p, core_x.p)
        np.testing.assert_array_equal(market_x.q, core_x.q)
        np.testing.assert_array_equal(market_x.P_M, core_x.P_M)
    if isinstance(events[0], GeneratorOutage):
        assert market_x.P_M[1] == 0.0
    else:
        assert np.all(market_x.p <= 0.5 * problem.hi[:N])


def test_market_steps_from_a_start_outside_the_boxes():
    # the agents step from the loop's primal vector as given, as the
    # centralized engine does: no engine pulls the start into the boxes
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    x0, _ = initial_state(problem)
    N = problem.n_nodes
    der = problem.coef[:N] > 0
    p = np.where(der, 2.0 * problem.hi[:N], 0.0)
    q = np.where(der, problem.lo[N : 2 * N] - 0.01, 0.0)
    x0 = primal(p, q, x0.P_M)
    assert np.all(p[der] > problem.hi[:N][der])
    assert np.all(q[der] < problem.lo[N : 2 * N][der])
    cfg = SolverConfig(eps=0.01, max_iter=3, tol=0.0)
    core_res = solve(problem, cfg, x0=x0)
    market_res = run_market(problem, cfg, x0=x0)
    assert market_res.records == core_res.records
    np.testing.assert_array_equal(market_res.x.z, core_res.x.z)


def test_market_starts_from_x0_as_given():
    # a nonzero start at a node without a DER is the loop's first record
    # in both engines; the first primal step pins it to its [0, 0] box
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    x0, _ = initial_state(problem)
    assert problem.coef[0] == 0.0  # node 0 holds no DER
    p = x0.p.copy()
    p[0] = 0.05
    x0 = primal(p, x0.q, x0.P_M)
    cfg = SolverConfig(eps=0.01, max_iter=3, tol=0.0)
    core_res = solve(problem, cfg, x0=x0)
    market_res = run_market(problem, cfg, x0=x0)
    assert market_res.records == core_res.records
    np.testing.assert_array_equal(market_res.x.z, core_res.x.z)
    assert market_res.x.p[0] == 0.0


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
    cfg = SolverConfig(eps=0.01, eta=0.0, max_iter=120, tol=0.0, feedback=feedback,
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


# signed zeros first, so that shrinking lands on them
SIGNED = st.sampled_from([0.0, -0.0])


def signed(lo: float, hi: float):
    return st.one_of(SIGNED, st.floats(lo, hi))


@st.composite
def drawn_runs(draw):
    """A small system, a start and duals, settings and events for one run."""
    n_nodes = draw(st.integers(1, 5))
    layout = {}
    for nid in draw(st.sets(st.integers(2, n_nodes + 1))):
        # ordered pairs of edges, each one maybe a signed zero: a box may
        # have zero width, or run from 0.0 to -0.0
        p_min, p_max = sorted(draw(st.lists(signed(-0.05, 0.05), min_size=2, max_size=2)))
        q_min, q_max = sorted(draw(st.lists(signed(-0.05, 0.05), min_size=2, max_size=2)))
        layout[nid] = {
            "a_p": draw(st.floats(0.1, 3.0)), "a_q": draw(st.floats(0.1, 3.0)),
            "p_min": p_min, "p_max": p_max, "q_min": q_min, "q_max": q_max,
        }
    costs = draw(st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3))
    system = make_system(
        n_feeders=draw(st.integers(1, 3)),
        gen_specs=list(zip((1, 2, 3), costs)),
        der_layout=layout,
        n_feeder_nodes=n_nodes,
    )
    problem = build_problem(system, LIMITS)
    N, G = problem.n_nodes, problem.n_generators
    # starts outside the boxes, with signed zeros
    z = draw(st.lists(signed(-0.2, 0.2), min_size=2 * N, max_size=2 * N))
    P_M = draw(st.lists(signed(-2.0, 12.0), min_size=G, max_size=G))
    x0 = primal(z[:N], z[N:], P_M)
    mu = draw(st.lists(st.one_of(SIGNED, st.floats(0.0, 2.0)),
                       min_size=2 * N, max_size=2 * N))
    y0 = DualState(lam=draw(signed(-3.0, 3.0)), mu=np.array(mu))

    eta = draw(st.sampled_from([0.0, 0.1]))
    eps = draw(st.floats(0.01, 40.0)) * check_stepsize(problem, eta).eps_bound
    cfg = SolverConfig(
        eps=eps, eta=eta, max_iter=draw(st.integers(20, 150)),
        tol=0.0,
        feedback=draw(st.sampled_from(["linear", "ac"])),
        zero_lambda_to_ders=draw(st.booleans()),
    )
    rounds = st.integers(1, cfg.max_iter)
    events = draw(st.lists(st.one_of(
        st.builds(DerCapacityScale, rounds, st.floats(0.1, 3.0)),
        st.builds(GeneratorOutage, rounds, st.sampled_from([1, 2, 3])),
    ), max_size=2))
    return problem, cfg, x0, y0, tuple(events)


def outcome_of(engine, *args, **kwargs):
    try:
        return engine(*args, **kwargs), None
    except EngineError as exc:
        return None, exc


def as_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(run=drawn_runs())
def test_engines_agree_to_the_bit_on_drawn_systems(run):
    # the market routes the core's round: on any system, start and
    # schedule the two give the same records and the same final bits,
    # signed zeros included, or fail alike
    problem, cfg, x0, y0, events = run
    core_res, core_exc = outcome_of(solve, problem, cfg, x0, y0, events=events)
    market_res, market_exc = outcome_of(
        run_market, problem, cfg, events=events, x0=x0, y0=y0
    )
    if core_exc is not None or market_exc is not None:
        assert type(market_exc) is type(core_exc)
        assert str(market_exc) == str(core_exc)
        assert market_exc.iteration == core_exc.iteration
        assert market_exc.records == core_exc.records
        return
    assert market_res.iterations == core_res.iterations
    assert market_res.records == core_res.records
    np.testing.assert_array_equal(as_bits(market_res.x.z), as_bits(core_res.x.z))
    assert as_bits(market_res.y.lam) == as_bits(core_res.y.lam)
    np.testing.assert_array_equal(as_bits(market_res.y.mu), as_bits(core_res.y.mu))


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
    cfg = SolverConfig(eps=0.01, max_iter=20, tol=0.0, feedback=feedback)
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
    cfg = SolverConfig(eps=0.02, max_iter=30000, tol=1e-8)
    grad = run_market(problem, cfg, mode="gradient")
    br = run_market(problem, cfg, mode="best-response")
    assert grad.converged and br.converged
    assert br.y.lam == pytest.approx(grad.y.lam, abs=1e-5)
    np.testing.assert_allclose(br.x.P_M, grad.x.P_M, atol=1e-5)
    np.testing.assert_allclose(br.x.p, grad.x.p, atol=1e-5)


def test_best_response_fixpoint_is_box_clamped_optimum():
    system = make_system(n_feeders=1)
    problem = build_problem(system, LIMITS)
    cfg = SolverConfig(eps=0.02, max_iter=30000, tol=1e-9)
    res = run_market(problem, cfg, mode="best-response")
    assert res.converged

    prices = der_signals(problem.network, res.y)
    N = problem.n_nodes
    lo, hi = problem.lo, problem.hi
    for g in np.flatnonzero(problem.coef[:N]):
        for c in (g, N + g):  # the DER's p and q coordinates
            star = best_response(float(prices[c]), problem.coef[c], lo[c], hi[c])
            assert res.x.z[c] == pytest.approx(star, abs=1e-7)


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
    cfg = SolverConfig(eps=0.01, max_iter=3, tol=0.0)
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


def test_a_bus_that_does_not_record_carries_no_observer_messages():
    # the power-flow results and dual updates are built for the journal
    # only: the bus sees one broadcast and one report per agent a round
    problem = build_problem(make_system(n_feeders=2), LIMITS)
    kinds = []
    bus = MessageBus(drop=lambda m: kinds.append(m.kind))  # drops nothing
    cfg = SolverConfig(eps=0.01, max_iter=3, tol=0.0)
    run_market(problem, cfg, bus=bus)
    assert set(kinds) == {"signal-broadcast", "setpoint-report"}
    assert len(kinds) == 1 + 3 * (6 + 1)  # 4 users + 2 generators


def test_bus_keeps_only_the_current_round():
    problem = build_problem(make_system(n_feeders=2), LIMITS)
    bus = MessageBus()
    cfg = SolverConfig(eps=0.01, max_iter=3, tol=0.0)
    run_market(problem, cfg, bus=bus)
    for kind in ("setpoint-report", "pf-result", "dual-update",
                 "signal-broadcast"):
        assert bus.collect(kind, 1) == []
    assert len(bus.collect("setpoint-report", 3)) == 6
    assert bus.journal == []
    with pytest.raises(ValueError, match="record=True"):
        bus.counts(3)


def test_journaled_voltages_stay_those_of_their_round():
    # each pf-result holds a view of its round's measured voltages, so a
    # measurement that reused its array would rewrite earlier rounds
    problem = build_problem(make_system(n_feeders=2), LIMITS)
    bus = MessageBus(record=True)
    cfg = SolverConfig(eps=0.01, max_iter=12, tol=0.0, feedback="ac")
    records = run_market(problem, cfg, bus=bus).records
    results = [m for m in bus.journal if m.kind == "pf-result"]
    assert len(results) == 12 * 2
    for msg in results:
        row, k = records[msg.iteration_tag], msg.payload["feeder"]
        v = msg.payload["v"]
        assert (v.min(), v.max()) == (row.v_min[k], row.v_max[k])
    assert len({records[t].v_max[0] for t in range(1, 13)}) > 1


def test_journal_is_json_dumpable_and_private():
    problem = build_problem(make_system(n_feeders=1), LIMITS)
    bus = MessageBus(record=True)
    cfg = SolverConfig(eps=0.01, max_iter=2, tol=0.0)
    run_market(problem, cfg, bus=bus)
    dump = json.dumps([m.to_jsonable() for m in bus.journal])
    # no private cost or capacity field ever crosses the bus
    for secret in ("a_p", "a_q", "p_min", "p_max", "q_min", "q_max",
                   "cost_coefficient"):
        assert secret not in dump


def test_the_operator_network_holds_no_der_data():
    # two systems that differ only in their DERs' costs and boxes compile
    # to the same network, the operator's whole view of the grid
    other = {3: {"a_p": 2.5, "a_q": 0.7, "p_max": 0.3, "q_min": -0.1},
             4: {"a_p": 0.2, "p_min": -0.04, "p_max": -0.04, "q_max": 0.0}}
    a, b = (
        build_problem(make_system(n_feeders=2, der_layout=layout), LIMITS)
        for layout in (None, other)
    )
    assert not np.array_equal(a.coef, b.coef) and not np.array_equal(a.hi, b.hi)

    def same(u, v):
        if isinstance(u, np.ndarray):
            return u.dtype == v.dtype and np.array_equal(u, v)
        return u == v

    for f in fields(CompiledNetwork):
        u, v = getattr(a.network, f.name), getattr(b.network, f.name)
        if f.name != "models":
            assert same(u, v), f.name
            continue
        assert len(u) == len(v) == 2
        for mu, mv in zip(u, v):
            for g in fields(mu):
                assert same(getattr(mu, g.name), getattr(mv, g.name)), g.name


def test_incentive_signals_jsonable():
    # the incentive signals are the price array over z, the balance price
    # of the one generator last; the message carries the round tag
    msg = AgentMessage("signal-broadcast", "operator", 4, np.array([0.1, 0.2, -1.0]))
    encoded = json.loads(json.dumps(msg.to_jsonable()))
    assert encoded["payload"] == [0.1, 0.2, -1.0]
    assert encoded["iteration_tag"] == 4


# ---------------------------------------------------------------------------
# round discipline (fault injection)
# ---------------------------------------------------------------------------

def operator_fixture():
    system = make_system(n_feeders=1, gen_specs=[(1, 1.0)])
    problem = build_problem(system, LIMITS)
    _, y = initial_state(problem)
    # the DER at node 3 sits at position 1: p at z[1], q at z[3 + 1]
    cfg = OperatorConfig(
        network=problem.network,
        roster={"user:f0:3": (1, 4), "generator:1": (6,)},
        solver=SolverConfig(eps=0.01),
    )
    return problem, y, cfg


def report(sender: str, tag: int, *values: float) -> AgentMessage:
    return AgentMessage("setpoint-report", sender, tag, list(values))


def test_operator_step_accepts_complete_round():
    problem, y, cfg = operator_fixture()
    account = SlackAccount(P0_slack=0.0)
    reports = [
        report("user:f0:3", 1, 0.01, -0.005),
        report("generator:1", 1, 1.5),
    ]
    outcome, prices = operator_step(reports, y, cfg, account, tag=1)
    assert outcome.x.P_M[0] == 1.5
    np.testing.assert_array_equal(outcome.x.p, [0.0, 0.01, 0.0])
    np.testing.assert_array_equal(outcome.x.q, [0.0, -0.005, 0.0])
    # the fresh prices are the core engine's, over all of z
    np.testing.assert_array_equal(prices, der_signals(problem.network, outcome.y))


@pytest.mark.parametrize("sender", ["intruder", "user:f0:4"])
def test_operator_step_refuses_a_sender_off_the_roster(sender):
    # a report naming any sender the roster does not hold is refused, not
    # placed, even when the round is otherwise complete
    problem, y, cfg = operator_fixture()
    reports = [
        report("user:f0:3", 1, 0.01, 0.0),
        report("generator:1", 1, 1.5),
        report(sender, 1, 0.02, 0.0),
    ]
    with pytest.raises(RoundAbort, match=f"{sender}, who is not on the roster"
                       ) as exc:
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)
    assert exc.value.iteration == 1


@pytest.mark.parametrize(
    "values", [(0.01,), (0.01, 0.0, 0.02), ()], ids=["short", "long", "empty"]
)
def test_operator_step_refuses_the_wrong_number_of_values(values):
    problem, y, cfg = operator_fixture()
    reports = [report("user:f0:3", 1, *values), report("generator:1", 1, 1.5)]
    with pytest.raises(
        RoundAbort, match=f"user:f0:3 in round 1 holds {len(values)} values for 2"
    ) as exc:
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)
    assert exc.value.iteration == 1


@pytest.mark.parametrize(
    "payload", [0.5, ["x"], [float("nan")], [True], ["0.5"]],
    ids=["bare-float", "text", "nan", "bool", "numeric-text"],
)
def test_operator_step_refuses_a_malformed_report(payload):
    # a report is a list of finite Python floats; anything else aborts the
    # round naming the round and the sender, and is never placed into z
    problem, y, cfg = operator_fixture()
    reports = [
        report("user:f0:3", 1, 0.01, 0.0),
        AgentMessage("setpoint-report", "generator:1", 1, payload),
    ]
    with pytest.raises(RoundAbort, match="from generator:1 in round 1") as exc:
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)
    assert exc.value.iteration == 1


@pytest.mark.parametrize("feedback", ["linear", "ac"])
def test_market_round_assembles_z_at_the_roster_coordinates(feedback):
    # a full round: each agent's reported values land at its coordinates,
    # and the round's state is exactly the assembled vector
    problem = build_problem(
        make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)]), LIMITS
    )
    cfg = SolverConfig(eps=0.01, max_iter=2, tol=0.0, feedback=feedback,
                       record_state=True)
    bus = MessageBus(record=True)
    res = run_market(problem, cfg, bus=bus)
    N = problem.n_nodes

    def coords_of(sender):
        # read off the sender's name: its node's p and q, or its generator
        role, *where = sender.split(":")
        if role == "generator":
            return [2 * N + problem.gen_bus.tolist().index(int(where[0]))]
        model = next(m for m in problem.models if m.feeder_id == where[0])
        g = model.span.start + model.node_ids.index(int(where[1]))
        return [g, N + g]

    for t in (1, 2):
        reports = [m for m in bus.journal
                   if m.kind == "setpoint-report" and m.iteration_tag == t]
        z = np.zeros(2 * N + problem.n_generators)
        for m in reports:
            z[coords_of(m.sender)] = m.payload
        placed = sorted(c for m in reports for c in coords_of(m.sender))
        assert placed == np.flatnonzero(problem.coef).tolist()
        np.testing.assert_array_equal(res.history[t][0].z, z)


def roster_round():
    """An operator config whose roster holds every DER and generator of a
    two-feeder problem, in coordinate order, and one complete round."""
    problem = build_problem(
        make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)]), LIMITS
    )
    N = problem.n_nodes
    roster = {
        f"user:{g}": (g, N + g)
        for g in np.flatnonzero(problem.coef[:N] > 0).tolist()
    }
    roster |= {f"generator:{k}": (2 * N + k,) for k in range(problem.n_generators)}
    cfg = OperatorConfig(
        network=problem.network,
        roster=roster,
        solver=SolverConfig(eps=0.01),
    )
    reports = [
        report(sender, 1, *(0.001 * (c + 1) for c in coords))
        for sender, coords in roster.items()
    ]
    return problem, cfg, reports


def test_operator_step_gives_the_same_bits_in_any_report_order():
    problem, cfg, reports = roster_round()
    _, y = initial_state(problem)
    # reversed, two users swapped, two generators swapped (each report
    # still of its place's length), then shuffled
    shuffled = [reports[::-1], [reports[1], reports[0], *reports[2:]],
                [*reports[:4], reports[5], reports[4]]]
    for seed in range(3):
        order = list(reports)
        random.Random(seed).shuffle(order)
        shuffled.append(order)

    def bits(round_reports):
        outcome, prices = operator_step(
            round_reports, y, cfg, SlackAccount(P0_slack=0.0),
            tag=1,
        )
        meas = outcome.measurement
        return [
            a.tobytes() for a in (outcome.x.z, outcome.y.mu, meas.v, meas.P_L, prices)
        ] + [float(outcome.y.lam).hex(), float(outcome.balance_residual).hex()]

    expected = bits(reports)
    assert len(reports) == 6  # 4 users + 2 generators
    for order in shuffled:
        assert order != reports
        assert bits(order) == expected


def faulty_round(fault, where, seed=None):
    """The complete round, shuffled by ``seed`` when given, with one fault
    in its report at ``where``: ``"first"``, ``"last"`` or a position."""
    problem, cfg, reports = roster_round()
    if seed is not None:
        random.Random(seed).shuffle(reports)
    at = {"first": 0, "last": len(reports) - 1}.get(where, where)
    good = reports[at]
    sender = good.sender
    if fault == "stale":
        bad, match = replace(good, iteration_tag=0), f"stale report from {sender}"
    elif fault == "off-roster":  # in place of a roster sender's report
        sender = "intruder"
        bad = replace(good, sender=sender)
        match = f"{sender}, who is not on the roster"
    elif fault == "duplicate":
        bad, match = good, f"duplicate report from {sender}"
    elif fault == "not-a-list":
        bad = replace(good, payload=tuple(good.payload))
        match = f"from {sender} in round 1 is not a list"
    elif fault == "wrong-length":
        bad = replace(good, payload=good.payload + [0.0])
        match = f"from {sender} in round 1 holds {len(good.payload) + 1} values"
    elif fault == "non-finite":
        bad = replace(good, payload=[float("inf")] * len(good.payload))
        match = f"from {sender} in round 1 holds a value that is not a finite"
    else:  # missing
        bad, match = None, f"missing reports from: {sender}$"
    if fault == "duplicate":  # before its original, or after it when last
        reports.insert(at + (at == len(reports) - 1), bad)
    elif bad is None:
        del reports[at]
    else:
        reports[at] = bad
    return problem, cfg, reports, match


FAULTS = ["stale", "off-roster", "duplicate", "not-a-list", "wrong-length",
          "non-finite", "missing"]


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("fault", FAULTS)
def test_operator_step_refuses_a_faulty_first_or_last_report(fault, where):
    problem, cfg, reports, match = faulty_round(fault, where)
    _, y = initial_state(problem)
    with pytest.raises(RoundAbort, match=match) as exc:
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)
    assert exc.value.iteration == 1


@pytest.mark.parametrize("at", range(6))
@pytest.mark.parametrize("fault", FAULTS)
def test_operator_step_refuses_a_fault_anywhere_in_a_shuffled_round(fault, at):
    # one pass checks every report wherever it arrives: each position of a
    # round shuffled differently, the faulty report's sender and the round
    # named
    problem, cfg, reports, match = faulty_round(fault, at, seed=at)
    _, y = initial_state(problem)
    with pytest.raises(RoundAbort, match=match) as exc:
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)
    assert exc.value.iteration == 1
    assert "round 1" in str(exc.value)


def test_operator_step_rejects_missing_report():
    problem, y, cfg = operator_fixture()
    reports = [report("generator:1", 1, 1.5)]
    with pytest.raises(RoundAbort, match="missing reports from: user:f0:3"):
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)


def test_operator_step_rejects_stale_report():
    problem, y, cfg = operator_fixture()
    reports = [
        report("user:f0:3", 0, 0.0, 0.0),
        report("generator:1", 1, 1.5),
    ]
    with pytest.raises(RoundAbort, match="stale report"):
        operator_step(reports, y, cfg,
                      SlackAccount(P0_slack=0.0), tag=1)


def test_operator_step_rejects_duplicate_report():
    problem, y, cfg = operator_fixture()
    reports = [
        report("user:f0:3", 1, 0.0, 0.0),
        report("user:f0:3", 1, 0.01, 0.0),
        report("generator:1", 1, 1.5),
    ]
    with pytest.raises(RoundAbort, match="duplicate report"):
        operator_step(reports, y, cfg,
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
