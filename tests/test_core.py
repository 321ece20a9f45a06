"""Engine building blocks: costs, states, gradients, events, and the loop.

The finite-difference check here is the small sibling of the acceptance
gate's randomized version: the analytic gradients must match central
differences of the scalar Lagrangian, and the round must step along
exactly those gradients.  The two-generator dispatch has the
closed form P_k = D (1/c_k) / sum(1/c_j) with the balance price at
-2 c_k P_k, which pins the whole loop end to end.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcoopt import _native, core
from tdcoopt.acpf import sweep_feeder
from tdcoopt.core import (
    DerCapacityScale,
    DivergenceError,
    DualState,
    EngineError,
    GeneratorOutage,
    Measurement,
    PrimalState,
    SolverConfig,
    apply_event,
    build_problem,
    check_stepsize,
    default_probes,
    der_signals,
    dual_update,
    eval_lagrangian,
    grad_dual,
    grad_primal,
    initial_state,
    measure,
    primal_dual_step,
    solve,
    total_cost,
)
from tdcoopt.market import run_market
from tdcoopt.network import CaseError, VoltageLimits, attach_feeders
from tdcoopt.scenario import load_scenario

from conftest import SCENARIOS_DIR, make_system, make_ts, primal


def dispatch_only(gen_specs, load=2.0):
    """A transmission-only problem (no feeders) with an explicit demand."""
    ts = make_ts(gen_specs, load_bus=5, load=load, slack_bus=9)
    return build_problem(attach_feeders(ts, []), VoltageLimits(0.95, 1.05))


# ---------------------------------------------------------------------------
# costs and configuration
# ---------------------------------------------------------------------------

def test_build_problem_rejects_two_generators_on_one_bus():
    # an outage names its generator by bus; with two on bus 1 it would
    # trip only the first and leave the second dispatching.  The edited
    # case is refused when built, so build_problem never receives it
    ts = make_system(n_feeders=1).transmission
    with pytest.raises(CaseError, match="two generators on bus 1") as exc:
        dataclasses.replace(ts, generators=(ts.generators[0],) * 2)
    assert exc.value.element == 1


def test_solver_config_validation():
    with pytest.raises(ValueError, match="eps"):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError, match="eps"):
        SolverConfig(eps=math.nan)
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(eta=-0.1)
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(eta=math.nan)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=-1)
    # a count of rounds is an integer: no fraction, no bool
    for bad in (2.5, 3.0, True, "7"):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=bad)
    for bad in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=bad)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="divergence_limit"):
            SolverConfig(divergence_limit=bad)
    with pytest.raises(ValueError, match="feedback"):
        SolverConfig(feedback="dc")


def test_solver_config_allows_zero_tolerances():
    # zero tolerances force a fixed-horizon run (used by run comparisons)
    cfg = SolverConfig(tol=0.0)
    assert cfg.tol == 0.0


# ---------------------------------------------------------------------------
# problem assembly and initial states
# ---------------------------------------------------------------------------

def test_build_problem_layout():
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, VoltageLimits(0.95, 1.05))
    assert problem.n_nodes == 6  # two 3-node feeders
    assert problem.n_generators == 2
    # z = [p (6), q (6), P_M (2)]; DERs sit on nodes 3 and 4, global
    # positions 1, 2 / 4, 5, and nodes without one are pinned at [0, 0]
    der = np.array([0, 1, 1, 0, 1, 1])
    np.testing.assert_array_equal(
        problem.coef, np.concatenate([1.0 * der, 0.1 * der, [1.0, 1.5]])
    )
    np.testing.assert_array_equal(
        problem.lo, np.concatenate([0.0 * der, -0.02 * der, [0.0, 0.0]])
    )
    np.testing.assert_array_equal(
        problem.hi, np.concatenate([0.05 * der, 0.02 * der, [10.0, 10.0]])
    )
    # each feeder's slice of the global node vectors
    assert [m.span for m in problem.models] == [slice(0, 3), slice(3, 6)]
    assert problem.network.fixed_injection == -2.0  # the load bus


def test_initial_state_modes():
    system = make_system()
    problem = build_problem(system, VoltageLimits(0.95, 1.05))
    x_mid, y = initial_state(problem, mode="midbox")
    np.testing.assert_allclose(x_mid.P_M, [5.0, 5.0])
    np.testing.assert_allclose(x_mid.p, 0.0)
    assert y.lam == 0.0
    np.testing.assert_array_equal(y.mu, np.zeros(12))  # 2 x 6 nodes

    x_set, _ = initial_state(problem, mode="setpoint")
    np.testing.assert_allclose(x_set.P_M, [0.0, 0.0])  # recorded setpoints

    rng = np.random.default_rng(1)
    x_rnd, _ = initial_state(problem, mode="random", rng=rng)
    assert np.all(x_rnd.P_M >= 0.0) and np.all(x_rnd.P_M <= 10.0)

    x_exp, _ = initial_state(problem, P_M=np.array([99.0, -5.0]))
    np.testing.assert_allclose(x_exp.P_M, [10.0, 0.0])  # clipped to boxes


def test_initial_state_errors():
    problem = build_problem(make_system(), VoltageLimits(0.95, 1.05))
    with pytest.raises(ValueError, match="rng"):
        initial_state(problem, mode="random")
    with pytest.raises(ValueError, match="unknown init mode"):
        initial_state(problem, mode="cold")
    for P_M in (np.ones(3), np.ones(1), np.ones((2, 1)), 1.0):
        with pytest.raises(ValueError, match="each of the 2 generators"):
            initial_state(problem, P_M=P_M)


# ---------------------------------------------------------------------------
# price signals and the dual update
# ---------------------------------------------------------------------------

def prices_of(problem, y, zero_lambda=False):
    """der_signals split into alpha, beta and the generators' prices."""
    N = problem.n_nodes
    prices = der_signals(problem.network, y, zero_lambda)
    assert len(prices) == len(problem.coef)
    return np.split(prices, [N, 2 * N])


def test_der_signals_balance_term():
    # with zero multipliers alpha is the balance price itself (M = -1),
    # and every generator is priced at it
    problem = build_problem(make_system(n_feeders=1), VoltageLimits(0.95, 1.05))
    y = DualState(lam=-2.0, mu=np.zeros(6))
    alpha, beta, gen = prices_of(problem, y)
    np.testing.assert_allclose(alpha, -2.0)
    np.testing.assert_allclose(beta, 0.0)
    np.testing.assert_array_equal(gen, [-2.0, -2.0])


def test_der_signals_voltage_term():
    problem = build_problem(make_system(n_feeders=1), VoltageLimits(0.95, 1.05))
    model = problem.models[0]
    mu = np.array([0.3, 0.0, 0.1, 0.0, 0.2, 0.0])  # upper rows then lower
    y = DualState(lam=0.0, mu=mu)
    alpha, beta, _ = prices_of(problem, y)
    w = mu[:3] - mu[3:]
    np.testing.assert_allclose(alpha, model.A.T @ w, atol=1e-15)
    np.testing.assert_allclose(beta, model.B.T @ w, atol=1e-15)


def test_der_signals_two_feeders_use_global_layout(limits):
    # mu holds the upper rows of all six nodes, then all lower rows
    problem = build_problem(make_system(n_feeders=2), limits)
    rng = np.random.default_rng(4)
    mu = rng.uniform(0.0, 1.0, 12)
    alpha, _, _ = prices_of(problem, DualState(lam=0.0, mu=mu))
    w = mu[:6] - mu[6:]
    for model in problem.models:
        sl = model.span
        np.testing.assert_array_equal(alpha[sl], model.A.T @ w[sl])


def test_der_signals_zero_lambda_baseline():
    # hiding the balance price keeps the voltage terms intact
    problem = build_problem(make_system(n_feeders=1), VoltageLimits(0.95, 1.05))
    mu = np.array([0.3, 0.0, 0.1, 0.0, 0.2, 0.0])
    y = DualState(lam=-2.0, mu=mu)
    alpha, beta, gen = prices_of(problem, y, zero_lambda=True)
    mu_alpha, mu_beta, _ = prices_of(problem, DualState(lam=0.0, mu=mu))
    lam_alpha, _, _ = prices_of(problem, y)
    np.testing.assert_allclose(alpha, mu_alpha, atol=1e-15)
    np.testing.assert_allclose(beta, mu_beta, atol=1e-15)
    assert not np.allclose(alpha, lam_alpha)
    # the generators still see the balance price
    np.testing.assert_array_equal(gen, [-2.0, -2.0])


def one_node_network(limits):
    """A one-node network with ``make_ts``'s fixed injection (a load of 2.0
    at bus 5); the dual update reads only that and the band."""
    system = make_system(
        n_feeders=1, gen_specs=[(1, 1.0)], der_layout={2: {}}, n_feeder_nodes=1
    )
    network = build_problem(system, limits).network
    assert network.fixed_injection == -2.0
    return network


def test_dual_update_arithmetic(limits):
    # [TRIVIAL] one node 0.01 above the band: mu_up climbs by eps * 0.01
    # minus the eta leak, mu_lo decays toward zero, lambda integrates the
    # balance residual
    meas = Measurement(v=np.array([1.06]), P_L=np.array([0.3]))
    y = DualState(lam=0.0, mu=np.array([0.02, 0.03]))
    P0_slack = 1.1  # matches P_M=1.2, P_L=0.3
    network = one_node_network(limits)
    y_new, residual = dual_update(
        network, y, meas, np.array([1.2]), P0_slack, eps=0.1, eta=0.5
    )
    assert residual == pytest.approx(0.0)
    # g = [1.06 - 1.05, 0.95 - 1.06] = [0.01, -0.11]
    assert y_new.mu[0] == pytest.approx(0.02 + 0.1 * (0.01 - 0.5 * 0.02))
    assert y_new.mu[1] == pytest.approx(0.03 + 0.1 * (-0.11 - 0.5 * 0.03))
    assert y_new.lam == pytest.approx(0.0)

    y_up, residual_up = dual_update(
        network, y, meas, np.array([1.7]), P0_slack, eps=0.1, eta=0.0
    )
    assert residual_up == pytest.approx(0.5)  # over-supply by 0.5
    assert y_up.lam == pytest.approx(0.05)


def test_dual_update_clamps_at_zero(limits):
    meas = Measurement(v=np.array([1.0]), P_L=np.array([0.0]))
    y = DualState(lam=0.0, mu=np.zeros(2))
    P0_slack = 0.0
    y_new, _ = dual_update(
        one_node_network(limits), y, meas, np.zeros(1), P0_slack, 0.1, 0.0
    )
    assert np.all(y_new.mu >= 0.0)
    np.testing.assert_allclose(y_new.mu, 0.0)  # violations are negative


def per_feeder_prices(models, y, n_generators, zero_lambda=False):
    """der_signals as one product per feeder, with no shortcut."""
    lam = 0.0 if zero_lambda else y.lam
    n = len(y.mu) // 2
    w = y.mu[:n] - y.mu[n:]
    prices = np.empty(2 * n)
    for model in models:
        sl = model.span
        prices[sl] = lam + model.A.T @ w[sl]
        prices[n + sl.start : n + sl.stop] = model.B.T @ w[sl]
    return np.concatenate([prices, np.full(n_generators, y.lam)])


@settings(deadline=None, max_examples=150)
@given(
    duals=st.sampled_from(["zero", "one-feeder", "equal-bands", "random"]),
    lam=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-10.0, max_value=10.0),
    ),
    zero_lambda=st.booleans(),
    data=st.data(),
)
def test_der_signals_match_the_per_feeder_products(duals, lam, zero_lambda, data):
    # the all-zero shortcut must give the products' bits, -0.0 price
    # included; the generators' entries hold the balance price as it is
    problem = build_problem(
        make_system(n_feeders=3, n_feeder_nodes=4), VoltageLimits(0.95, 1.05)
    )
    N = problem.n_nodes
    values = st.floats(min_value=0.0, max_value=5.0)
    mu = np.zeros(2 * N)
    if duals == "one-feeder":
        sl = problem.models[data.draw(st.integers(0, 2))].span
        band = data.draw(st.sampled_from([0, N]))
        mu[band + sl.start : band + sl.stop] = data.draw(
            st.lists(values, min_size=4, max_size=4)
        )
    elif duals == "equal-bands":
        mu[:N] = mu[N:] = data.draw(st.lists(values, min_size=N, max_size=N))
    elif duals == "random":
        mu[:] = data.draw(st.lists(values, min_size=2 * N, max_size=2 * N))
    y = DualState(lam=lam, mu=mu)
    G = problem.n_generators
    expected = per_feeder_prices(problem.models, y, G, zero_lambda)
    got = der_signals(problem.network, y, zero_lambda)
    assert got.tobytes() == expected.tobytes()


def test_der_signals_take_the_shortcut_only_without_multipliers(limits):
    # equal bands at a node make w zero but not mu: the products then run,
    # and give the shortcut's bits
    problem = build_problem(make_system(n_feeders=2), limits)
    N = problem.n_nodes
    equal = np.zeros(2 * N)
    equal[[1, N + 1]] = 0.25
    for lam in (-1.5, 0.0, -0.0):
        fast = der_signals(problem.network, DualState(lam=lam, mu=np.zeros(2 * N)))
        slow = der_signals(problem.network, DualState(lam=lam, mu=equal))
        assert slow.tobytes() == fast.tobytes()


def test_der_signals_pass_a_nan_multiplier_on(limits):
    problem = build_problem(make_system(n_feeders=2), limits)
    N = problem.n_nodes
    mu = np.zeros(2 * N)
    mu[N + 4] = math.nan  # a lower-band row of the second feeder
    alpha, beta, gen = prices_of(problem, DualState(lam=-1.0, mu=mu))
    sl = problem.models[1].span
    assert np.isnan(alpha[sl]).any() and np.isnan(beta[sl]).any()
    np.testing.assert_array_equal(gen, [-1.0, -1.0])


def test_der_signals_keep_a_negative_zero_price_for_the_generators(limits):
    problem = build_problem(make_system(n_feeders=2), limits)
    N = problem.n_nodes
    alpha, beta, gen = prices_of(problem, DualState(lam=-0.0, mu=np.zeros(2 * N)))
    assert np.signbit(gen).all()
    assert not np.signbit(alpha).any() and not np.signbit(beta).any()


@settings(deadline=None, max_examples=60)
@given(
    steps=st.lists(
        st.lists(
            st.sampled_from([0.95, 1.05, 0.9, 1.1, 1.0, 0.9500000000000001]),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=8,
    ),
    eps=st.sampled_from([1e-3, 0.5, 40.0]),
    eta=st.sampled_from([0.0, 0.1, 2.0]),
)
def test_dual_update_never_makes_a_negative_zero(steps, eps, eta):
    # der_signals' shortcut relies on mu holding no -0.0; voltages drawn on
    # the band edges make zero violations, large steps make clamping
    network = one_node_network(VoltageLimits(0.95, 1.05))
    P0_slack = 0.0
    y = DualState(lam=0.0, mu=np.zeros(6))
    for v in steps:
        meas = Measurement(v=np.array(v), P_L=np.zeros(1))
        y, _ = dual_update(network, y, meas, np.zeros(1), P0_slack, eps, eta)
        assert not np.signbit(y.mu).any(), y.mu


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def test_measure_linear_matches_model(limits):
    problem = build_problem(make_system(n_feeders=2), limits)
    x, _ = initial_state(problem)
    rng = np.random.default_rng(5)
    N = problem.n_nodes
    x = primal(
        rng.uniform(problem.lo[:N], problem.hi[:N]),
        rng.uniform(problem.lo[N : 2 * N], problem.hi[N : 2 * N]),
        x.P_M,
    )
    meas = measure(problem, x, feedback="linear")
    for k, model in enumerate(problem.models):
        sl = model.span
        np.testing.assert_allclose(
            meas.v[sl], model.c + model.A @ x.p[sl] + model.B @ x.q[sl]
        )
        assert meas.P_L[k] == pytest.approx(model.d - x.p[sl].sum())


def test_measure_ac_matches_sweep(limits):
    problem = build_problem(make_system(n_feeders=1), limits)
    x, _ = initial_state(problem)
    meas = measure(problem, x, feedback="ac")
    ref = sweep_feeder(problem.models[0], x.p, x.q)
    np.testing.assert_allclose(meas.v, ref.v, atol=1e-12)


def test_measure_ac_writes_a_new_array_each_call(limits):
    # each feeder's sweep fills its slice of one new v: never the warm
    # start's memory, never an earlier measurement's
    problem = build_problem(make_system(n_feeders=2), limits)
    x, _ = initial_state(problem)
    first = measure(problem, x, feedback="ac")
    kept = first.v.tobytes()
    second = measure(problem, x, feedback="ac", warm=first.v)
    assert not np.shares_memory(second.v, first.v)
    assert first.v.tobytes() == kept
    for k, model in enumerate(problem.models):
        ref = sweep_feeder(model, x.p, x.q, v_init=first.v)
        assert second.v[model.span].tobytes() == ref.v.tobytes()
        assert second.P_L[k] == ref.P_L


def test_measure_ac_hands_every_feeder_the_round_vectors(limits, monkeypatch):
    # no per-feeder slices: each sweep gets the same p, q, warm start and
    # out, and writes its own entries of out, the measurement's v
    problem = build_problem(make_system(n_feeders=3), limits)
    x, _ = initial_state(problem)
    warm = measure(problem, x, feedback="ac").v
    calls = []

    def spy(model, p, q, **kwargs):
        calls.append((model, p, q, kwargs))
        return sweep_feeder(model, p, q, **kwargs)

    monkeypatch.setattr(core, "sweep_feeder", spy)
    p, q = x.p, x.q
    meas = core.measure_feeders(problem.network, p, q, "ac", warm=warm)
    assert [model for model, *_ in calls] == list(problem.models)
    for _, p_seen, q_seen, kwargs in calls:
        assert p_seen is p and q_seen is q
        assert kwargs.keys() == {"v_init", "out"}
        assert kwargs["v_init"] is warm and kwargs["out"] is meas.v


@pytest.mark.parametrize("path", ["compiled", "reference"])
def test_a_nan_injection_fails_the_measurement_on_its_feeder(
    limits, monkeypatch, request, path
):
    # the sweep never converges on a NaN, so the round stops naming the
    # feeder instead of pricing NaN voltages
    if path == "compiled":
        request.getfixturevalue("kernels")
    else:
        monkeypatch.setattr(_native, "library", lambda: None)
    problem = build_problem(make_system(n_feeders=2), limits)
    x, _ = initial_state(problem)
    p = x.p.copy()
    p[problem.models[1].span.start] = math.nan
    with pytest.raises(EngineError, match=(
        r"^power flow failed at iteration 3 on feeder f1: sweep did not converge "
        r"within 100 iterations \(last voltage change nan\)$"
    )):
        core.measure_feeders(problem.network, p, x.q, "ac", iteration=3)


def test_a_power_flow_failure_names_its_feeder(limits):
    # both feeders number their nodes 2, 3, 4: only the feeder id tells
    # which one collapsed
    problem = build_problem(make_system(n_feeders=2), limits)
    x, _ = initial_state(problem)
    p = x.p.copy()
    p[problem.models[1].span] = -50.0
    with pytest.raises(
        EngineError,
        match=r"power flow failed at iteration 7 on feeder f1: voltage collapse at node",
    ) as exc:
        core.measure_feeders(problem.network, p, x.q, "ac", iteration=7)
    assert exc.value.iteration == 7


def test_measure_unknown_feedback(limits):
    problem = build_problem(make_system(n_feeders=1), limits)
    x, _ = initial_state(problem)
    with pytest.raises(ValueError, match="feedback"):
        measure(problem, x, feedback="dc")


# ---------------------------------------------------------------------------
# gradients against finite differences
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences(limits, rng):
    problem = build_problem(
        make_system(n_feeders=1, gen_specs=[(1, 1.0), (2, 1.5)]), limits
    )
    eta = 0.07
    P0_slack = 0.4
    x = primal(
        rng.uniform(-0.01, 0.01, problem.n_nodes),
        rng.uniform(-0.01, 0.01, problem.n_nodes),
        rng.uniform(1.0, 3.0, 2),
    )
    y = DualState(lam=-0.8, mu=rng.uniform(0.0, 0.5, 6))

    dx = grad_primal(problem, x, y)
    dlam, dmu = grad_dual(problem, x, y, P0_slack=P0_slack, eta=eta)

    def L(x_, y_):
        return eval_lagrangian(problem, x_, y_, P0_slack=P0_slack, eta=eta)

    h = 1e-6
    assert len(dx) == len(x.z) == 2 * problem.n_nodes + 2
    for i in range(len(x.z)):  # every p, then every q, then every P_M
        e = np.zeros(len(x.z))
        e[i] = h
        fd = (L(dataclasses.replace(x, z=x.z + e), y)
              - L(dataclasses.replace(x, z=x.z - e), y)) / (2 * h)
        assert dx[i] == pytest.approx(fd, abs=1e-7)
    fd = (L(x, dataclasses.replace(y, lam=y.lam + h))
          - L(x, dataclasses.replace(y, lam=y.lam - h))) / (2 * h)
    assert dlam == pytest.approx(fd, abs=1e-7)
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (L(x, DualState(lam=y.lam, mu=y.mu + e))
              - L(x, DualState(lam=y.lam, mu=y.mu - e))) / (2 * h)
        assert dmu[j] == pytest.approx(fd, abs=1e-7)


@pytest.mark.parametrize("zero_lambda", [False, True])
@pytest.mark.parametrize("feedback", ["linear", "ac"])
def test_round_steps_along_the_checked_gradients(limits, rng, feedback, zero_lambda):
    # the round's arithmetic is the gradients above, bit for bit: the
    # primal vector steps along grad_primal (with the balance price hidden
    # from the DERs in the baseline), the duals along grad_dual at the
    # round's own measurement
    problem = build_problem(make_system(n_feeders=2), limits)
    eta, eps, t = 0.3, 0.02, 4
    cfg = SolverConfig(
        eps=eps, eta=eta, feedback=feedback, zero_lambda_to_ders=zero_lambda
    )
    P0_slack = 0.4
    N = problem.n_nodes
    x = primal(
        rng.uniform(problem.lo[:N], problem.hi[:N]),
        rng.uniform(problem.lo[N : 2 * N], problem.hi[N : 2 * N]),
        rng.uniform(1.0, 3.0, problem.n_generators),
    )
    y = DualState(lam=-0.8, mu=rng.uniform(0.0, 0.5, 2 * problem.n_nodes))

    signals = der_signals(problem.network, y, zero_lambda=zero_lambda)
    x_new, y_new, meas, balance_residual, prices = primal_dual_step(
        problem, x, y, P0_slack, cfg, iteration=t, warm=None, signals=signals
    )

    if zero_lambda:
        dx = grad_primal(problem, x, y, signals)
    else:
        dx = grad_primal(problem, x, y)
    np.testing.assert_array_equal(
        x_new.z, np.clip(x.z - eps * dx, problem.lo, problem.hi)
    )
    # and reprices the new duals as the round's next prices
    np.testing.assert_array_equal(
        prices, der_signals(problem.network, y_new, zero_lambda=zero_lambda)
    )

    dlam, dmu = grad_dual(
        problem, x_new, y, P0_slack=P0_slack, eta=eta, measurement=meas
    )
    np.testing.assert_array_equal(y_new.mu, np.maximum(y.mu + eps * dmu, 0.0))
    assert y_new.lam == y.lam + eps * dlam
    # without the regularization the price gradient is the residual itself
    residual, _ = grad_dual(problem, x_new, y, P0_slack=P0_slack, measurement=meas)
    assert balance_residual == residual


def test_eval_lagrangian_regularization(limits, rng):
    problem = build_problem(make_system(n_feeders=1), limits)
    x, _ = initial_state(problem)
    y = DualState(lam=-1.2, mu=rng.uniform(0, 1, 6))
    plain = eval_lagrangian(problem, x, y, eta=0.0)
    damped = eval_lagrangian(problem, x, y, eta=0.4)
    mu_sq = float(y.mu @ y.mu)
    assert damped == pytest.approx(plain - 0.2 * (1.44 + mu_sq))


def test_total_cost_arithmetic(limits):
    problem = build_problem(
        make_system(n_feeders=1, gen_specs=[(1, 2.0)]), limits
    )
    x = primal([0.0, 0.1, 0.2], [0.0, 0.0, 0.3], [3.0])
    # [TRIVIAL] 2*9 + 1*(0.01 + 0.04) + 0.1*0.09, DERs on nodes 3 and 4
    assert total_cost(problem, x) == pytest.approx(18.0 + 0.05 + 0.009)


# ---------------------------------------------------------------------------
# stepsize certificate
# ---------------------------------------------------------------------------

def test_check_stepsize_two_by_two_example():
    # [PAPER] one generator with c = 1 against the balance row at
    # eta = 0.1: F = [[2, 1], [-1, 0.1]], s = 0.1, l = 2.4, bound = 2s/l^2
    problem = dispatch_only([(1, 1.0)])
    report = check_stepsize(problem, eta=0.1)
    assert report.s == pytest.approx(0.1)
    assert report.l == pytest.approx(2.4, abs=1e-12)
    assert report.eps_bound == pytest.approx(0.2 / 5.76, abs=1e-12)


def test_check_stepsize_eta_zero_uses_cost_curvature():
    problem = dispatch_only([(1, 1.0), (2, 1.5)])
    report = check_stepsize(problem, eta=0.0)
    assert report.s == pytest.approx(2.0)  # smallest modulus 2 * 1.0
    assert report.eps_bound == pytest.approx(2 * 2.0 / report.l**2)


def dense_operator(problem, eta: float) -> np.ndarray:
    """Reference oracle: the assembled ``F = [[H, C], [-C', eta I]]``.

    Rows of ``C``: p, q, then P_M; columns: upper-band mu, lower-band mu,
    then lambda.
    """
    N = problem.n_nodes
    xdim = 2 * N + problem.n_generators
    ydim = 2 * N + 1
    F = np.zeros((xdim + ydim, xdim + ydim))
    np.fill_diagonal(
        F, np.concatenate([2.0 * problem.coef, np.full(ydim, float(eta))])
    )
    C = F[:xdim, xdim:]
    for model in problem.models:
        sl = model.span
        shifted = slice(N + sl.start, N + sl.stop)
        C[sl, sl] = model.A
        C[sl, shifted] = -model.A
        C[shifted, sl] = model.B
        C[shifted, shifted] = -model.B
        C[sl, -1] = 1.0  # lossless: the head draw moves by -1 per unit of p
        C[shifted, -1] = 0.0  # and not at all with q
    C[2 * N :, -1] = 1.0
    F[xdim:, :xdim] = -C.T
    return F


def scenario_problem(name: str):
    sc = load_scenario(SCENARIOS_DIR / f"{name}.json")
    return build_problem(sc.system, sc.limits), sc.config.eta


der_specs = st.fixed_dictionaries(
    {
        "a_p": st.floats(0.05, 5.0),
        "a_q": st.floats(0.01, 2.0),
        "p_max": st.floats(0.01, 0.2),
    }
)


@settings(deadline=None, max_examples=80)
@given(
    n_feeders=st.integers(0, 3),
    n_nodes=st.integers(1, 8),
    layout=st.dictionaries(st.integers(2, 9), der_specs, max_size=8),
    gen_costs=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
    eta=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
)
# three identical one-node feeders: the top singular values cluster within
# ~1e-9 relative, and a test on the top Ritz value alone stops early there
@example(
    n_feeders=3,
    n_nodes=1,
    layout={2: {"a_p": 1.0, "a_q": 2.0, "p_max": 0.1}},
    gen_costs=[1.5],
    eta=0.0,
)
def test_check_stepsize_matches_dense_norm(n_feeders, n_nodes, layout, gen_costs, eta):
    # every feeder gets the same DER layout: symmetric layouts, where a
    # structured start vector can miss the top singular vector
    system = make_system(
        n_feeders=n_feeders,
        gen_specs=[(bus, c) for bus, c in zip((1, 2, 3), gen_costs)],
        der_layout=layout,
        n_feeder_nodes=n_nodes,
    )
    problem = build_problem(system, VoltageLimits(0.95, 1.05))
    reference = float(np.linalg.norm(dense_operator(problem, eta), 2))
    assert check_stepsize(problem, eta).l == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize(
    "name", ["default", "default_baseline", "dispatch9", "oracle_demo"]
)
def test_check_stepsize_matches_dense_norm_on_shipped_scenarios(name):
    problem, eta = scenario_problem(name)
    reference = float(np.linalg.norm(dense_operator(problem, eta), 2))
    assert check_stepsize(problem, eta).l == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize(
    "name, recorded",
    # the dense SVD's values, recorded before the matrix-free certificate
    [("default", 83.85020071799615), ("full39", 83.85791500078878)],
)
def test_check_stepsize_reproduces_recorded_norms(name, recorded):
    problem, eta = scenario_problem(name)
    report = check_stepsize(problem, eta)
    assert report.l == pytest.approx(recorded, rel=1e-12)
    assert check_stepsize(problem, eta) == report  # reruns agree bit for bit


def test_check_stepsize_never_assembles_the_operator(monkeypatch):
    problem, eta = scenario_problem("full39")
    dim = 4 * problem.n_nodes + problem.n_generators + 1

    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the operator")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    tracemalloc.start()
    try:
        report = check_stepsize(problem, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.l == pytest.approx(83.85791500078878, rel=1e-12)
    assert peak < dim * dim * 8  # not even one dim x dim float array


def test_check_stepsize_takes_s_from_the_smallest_curvature(limits):
    # DER a_q = 0.1 is the flattest cost; nodes without a DER carry none
    problem = build_problem(make_system(n_feeders=1), limits)
    assert check_stepsize(problem, eta=0.0).s == 2.0 * 0.1
    assert check_stepsize(problem, eta=0.05).s == 0.05


def test_check_stepsize_without_costs_certifies_nothing():
    problem = dispatch_only([])
    assert check_stepsize(problem, eta=0.1) is None
    result = solve(problem, SolverConfig(eps=0.1, max_iter=2))
    assert result.stepsize is None


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

def test_generator_outage_event(limits, rng):
    problem = build_problem(make_system(), limits)
    N = problem.n_nodes
    # DER setpoints away from zero, so leaving them alone is visible
    x, _ = initial_state(problem)
    x = primal(
        rng.uniform(problem.lo[:N], problem.hi[:N]),
        rng.uniform(problem.lo[N : 2 * N], problem.hi[N : 2 * N]),
        x.P_M,
    )
    z_before = x.z.copy()
    tripped, x2 = apply_event(problem, x, GeneratorOutage(iteration=5, bus_id=2))
    assert x2.P_M[1] == 0.0
    assert tripped.lo[2 * N + 1] == tripped.hi[2 * N + 1] == 0.0
    assert x2.P_M[0] == x.P_M[0]
    # the outage changes only the coordinate it names
    untouched = np.arange(len(x.z)) != 2 * N + 1
    np.testing.assert_array_equal(x2.z[untouched], z_before[untouched])
    np.testing.assert_array_equal(tripped.lo[untouched], problem.lo[untouched])
    np.testing.assert_array_equal(tripped.hi[untouched], problem.hi[untouched])
    # the caller's problem and state are left as they were
    assert problem.hi[2 * N + 1] == 10.0
    np.testing.assert_array_equal(x.z, z_before)


def test_outage_unknown_bus(limits):
    problem = build_problem(make_system(), limits)
    x, _ = initial_state(problem)
    with pytest.raises(EngineError, match="bus 77") as exc:
        apply_event(problem, x, GeneratorOutage(iteration=9, bus_id=77))
    assert exc.value.iteration == 9


def test_der_capacity_scale_event(limits):
    problem = build_problem(make_system(n_feeders=1), limits)
    N = problem.n_nodes
    # DERs at the top of their boxes; generators outside theirs ([0, 10])
    x = primal(problem.hi[:N], problem.hi[N : 2 * N], [99.0, -5.0])
    hi_before = problem.hi.copy()
    scaled, x2 = apply_event(problem, x, DerCapacityScale(iteration=5, factor=0.5))
    np.testing.assert_array_equal(scaled.hi[: 2 * N], hi_before[: 2 * N] * 0.5)
    np.testing.assert_array_equal(x2.z[: 2 * N], scaled.hi[: 2 * N])  # re-clipped
    # the rescale leaves every generator bit alone, even outside its box
    np.testing.assert_array_equal(x2.P_M, [99.0, -5.0])
    np.testing.assert_array_equal(scaled.lo[2 * N :], problem.lo[2 * N :])
    np.testing.assert_array_equal(scaled.hi[2 * N :], problem.hi[2 * N :])
    np.testing.assert_array_equal(problem.hi, hi_before)  # caller's copy kept
    with pytest.raises(ValueError, match="positive"):
        DerCapacityScale(iteration=5, factor=0.0)
    with pytest.raises(ValueError, match="positive"):
        DerCapacityScale(iteration=5, factor=math.nan)


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, 0.0, -2.0])
def test_der_capacity_scale_needs_a_finite_positive_factor(factor):
    # an infinite factor would turn each pinned [0, 0] box into NaN
    # (0 * inf), and the run would then die blaming the stepsize
    with pytest.raises(ValueError, match="needs a finite positive factor"):
        DerCapacityScale(iteration=5, factor=factor)


EVENTS = st.one_of(
    # bus 1 and bus 2 host the generators; an outage may trip one twice
    st.builds(GeneratorOutage, st.just(1), st.sampled_from([1, 2])),
    st.builds(DerCapacityScale, st.just(1), st.floats(5e-324, sys.float_info.max)),
)


@settings(max_examples=300, deadline=None)
@given(events=st.lists(EVENTS, max_size=6))
@example(events=[DerCapacityScale(1, sys.float_info.max)] * 3 + [GeneratorOutage(1, 2)])
@example(events=[DerCapacityScale(1, 5e-324)] * 3)
def test_no_event_empties_a_box_or_makes_a_nan_bound(events):
    # solve checks the boxes once, before round 1: an outage pins
    # [0, 0], and a finite positive rescale keeps lo <= hi, since IEEE
    # multiplication is monotone (a 1e308 one overflows edges to ±inf)
    problem = build_problem(make_system(n_feeders=2), VoltageLimits(0.95, 1.05))
    x, _ = initial_state(problem)
    with np.errstate(over="ignore"):
        for event in events:
            problem, x = apply_event(problem, x, event)
            assert not np.isnan(problem.lo).any() and not np.isnan(problem.hi).any()
            assert (problem.lo <= problem.hi).all()


@pytest.mark.parametrize("iteration", [0, -3, True, 5.0, np.int64(5), None])
@pytest.mark.parametrize(
    "make", [lambda t: GeneratorOutage(t, bus_id=2), lambda t: DerCapacityScale(t, 2.0)]
)
def test_an_event_needs_an_integer_round_of_at_least_one(make, iteration):
    # the loop fires events at rounds 1..max_iter, so an event at round 0
    # would have been dropped without a word
    with pytest.raises(ValueError, match="iteration must be an integer >= 1"):
        make(iteration)


def test_apply_unknown_event(limits):
    problem = build_problem(make_system(), limits)
    x, _ = initial_state(problem)
    with pytest.raises(EngineError, match="unknown event type"):
        apply_event(problem, x, object())


# ---------------------------------------------------------------------------
# slack-bus bookkeeping
# ---------------------------------------------------------------------------

def test_round_zero_records_the_implied_slack():
    # [TRIVIAL] fixed injections sum to -2.0 (the load bus), so with
    # P_M = 1.2 and no feeder the implied slack output is 0 - 1.2 + 2.0
    problem = dispatch_only([(1, 1.0)])
    res = solve(problem, SolverConfig(max_iter=0), x0=PrimalState(np.array([1.2]), 0))
    assert res.P0_slack == pytest.approx(0.8)
    assert res.records[0].slack_residual == 0.0
    # a feeder's head draw adds to it
    problem = build_problem(
        make_system(n_feeders=1, gen_specs=[(1, 1.0)]), VoltageLimits(0.95, 1.05)
    )
    x, _ = initial_state(problem)
    res = solve(problem, SolverConfig(max_iter=0), x0=x)
    P_L = measure(problem, x).P_L
    assert res.P0_slack == pytest.approx(P_L[0] - x.P_M[0] + 2.0)
    assert res.records[0].slack_residual == 0.0


def test_balance_residual_sign_convention():
    # raising fleet output by delta over-supplies by exactly delta
    problem = build_problem(
        make_system(n_feeders=1, gen_specs=[(1, 1.0)]), VoltageLimits(0.95, 1.05)
    )
    x, y = initial_state(problem)
    P0_slack = solve(problem, SolverConfig(max_iter=0), x0=x, y0=y).P0_slack
    assert grad_dual(problem, x, y, P0_slack)[0] == 0.0
    z = x.z.copy()
    z[-1] += 0.25  # the one generator
    raised = PrimalState(z, x.n_nodes)
    assert grad_dual(problem, raised, y, P0_slack)[0] == pytest.approx(0.25)
    # extra feeder draw under-supplies
    meas = measure(problem, x)
    drawn = Measurement(v=meas.v, P_L=meas.P_L + 0.1)
    balance = grad_dual(problem, x, y, P0_slack, measurement=drawn)[0]
    assert balance == pytest.approx(-0.1)


def test_slack_bus_p0_excluded_from_fixed_injection():
    ts = make_ts([(1, 1.0)], load_bus=5, load=2.0, slack_bus=9)
    buses = tuple(
        dataclasses.replace(b, p0=4.0) if b.id == ts.slack_bus_id else b
        for b in ts.buses
    )
    ts_slack_load = dataclasses.replace(ts, buses=buses)
    problem = build_problem(attach_feeders(ts_slack_load, []), VoltageLimits(0.95, 1.05))
    # the slack bus's own p0 must not enter the balance
    assert problem.network.fixed_injection == -2.0
    res = solve(problem, SolverConfig(max_iter=0), x0=PrimalState(np.array([1.2]), 0))
    assert res.P0_slack == pytest.approx(0.8)


def test_the_run_leaves_its_slack_account_unchanged():
    P0_slack = 0.5
    problem = dispatch_only([(1, 1.0)])
    x, y = PrimalState(np.array([0.7]), 0), DualState(lam=0.0, mu=np.zeros(0))
    first = grad_dual(problem, x, y, P0_slack)[0]
    assert first == pytest.approx(0.5 - (2.0 - 0.7))
    cfg = SolverConfig(eps=0.05, max_iter=20, tol=0.0)
    res = solve(problem, cfg, x0=x, y0=y, P0_slack=P0_slack)
    assert res.P0_slack == 0.5
    assert grad_dual(problem, x, y, P0_slack)[0] == first
    # every round reads its residual against the same target
    assert res.records[0].slack_residual == first
    last = res.records[-1]
    assert last.slack_residual == pytest.approx(0.5 - (2.0 - last.P_M[0]))


# ---------------------------------------------------------------------------
# the solve loop
# ---------------------------------------------------------------------------

def test_solve_two_generator_dispatch():
    # [DERIVED] closed form for demand 2: P = (1.2, 0.8), price -2.4
    problem = dispatch_only([(1, 1.0), (2, 1.5)])
    cfg = SolverConfig(eps=0.05, max_iter=20000, tol=1e-10)
    res = solve(problem, cfg, P0_slack=0.0)
    assert res.converged
    np.testing.assert_allclose(res.x.P_M, [1.2, 0.8], atol=1e-6)
    assert res.y.lam == pytest.approx(-2.4, abs=1e-6)
    assert res.iterations < 1000


def test_solve_zero_iterations_reports_not_converged():
    # [TRIVIAL] the status literal for an exhausted budget
    problem = dispatch_only([(1, 1.0)])
    res = solve(problem, SolverConfig(max_iter=0))
    assert res.status == "not-converged"
    assert not res.converged
    assert res.iterations == 0
    assert len(res.records) == 1 and res.records[0].iteration == 0
    assert res.records[0].step_primal is None


def test_solve_builds_no_start_when_both_are_given(monkeypatch):
    # a run handed both starting states (as every scenario run is) has no
    # use for a default start
    problem = dispatch_only([(1, 1.0), (2, 1.5)])
    x0, y0 = initial_state(problem)

    def refuse(*args, **kwargs):
        raise AssertionError("initial_state called with both starts given")

    monkeypatch.setattr(core, "initial_state", refuse)
    res = solve(problem, SolverConfig(eps=0.05, max_iter=3), x0=x0, y0=y0)
    assert res.iterations == 3


def test_records_cover_every_iteration():
    problem = dispatch_only([(1, 1.0), (2, 1.5)])
    cfg = SolverConfig(eps=0.05, max_iter=50, tol=0.0)
    res = solve(problem, cfg, P0_slack=0.0)
    assert res.status == "not-converged" and res.iterations == 50
    assert [r.iteration for r in res.records] == list(range(51))
    assert res.history is None

    res2 = solve(
        problem,
        dataclasses.replace(cfg, record_state=True),
        P0_slack=0.0,
    )
    assert len(res2.history) == len(res2.records)


def record_by_slices(problem, t, x, y, meas, residual, signals, probes, sp, sd):
    """iteration_record as one reduction and one conversion per feeder."""
    from tdcoopt.trace import TraceRecord

    N = problem.n_nodes
    v = meas.v
    spans = [model.span for model in problem.models]
    at_probe = [sl.start + j for sl, j in zip(spans, probes)]
    cost = problem.coef * x.z * x.z
    return TraceRecord(
        iteration=t,
        lam=y.lam,
        P_M=tuple(float(P) for P in x.P_M),
        P_L=tuple(float(P) for P in meas.P_L),
        v_min=tuple(float(np.min(v[sl])) for sl in spans),
        v_max=tuple(float(np.max(v[sl])) for sl in spans),
        slack_residual=residual,
        total_cost=float(
            np.sum(cost[2 * N :]) + np.sum(cost[:N]) + np.sum(cost[N : 2 * N])
        ),
        alpha_probe=tuple(float(signals[i]) for i in at_probe),
        beta_probe=tuple(float(signals[N + i]) for i in at_probe),
        step_primal=sp,
        step_dual=sd,
    )


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_feeders=st.integers(1, 3))
def test_iteration_record_matches_the_per_feeder_formula(seed, n_feeders):
    from tdcoopt.core import iteration_record
    from tdcoopt.trace import Records

    problem = build_problem(
        make_system(n_feeders=n_feeders, n_feeder_nodes=5), VoltageLimits(0.95, 1.05)
    )
    rng = np.random.default_rng(seed)
    N, G = problem.n_nodes, problem.n_generators
    x = primal(rng.normal(size=N), rng.normal(size=N), rng.normal(size=G))
    y = DualState(lam=float(rng.normal()), mu=rng.uniform(0, 1, 2 * N))
    meas = Measurement(v=rng.uniform(0.9, 1.1, N), P_L=rng.normal(size=n_feeders))
    signals = rng.normal(size=2 * N)
    probes = tuple(int(j) for j in rng.integers(0, 5, n_feeders))
    at_probe = np.array([m.span.start + j for m, j in zip(problem.models, probes)])
    args = (0.25, signals)
    records = Records(G, n_feeders)
    for _ in range(8):  # the row's index is its iteration
        iteration_record(records, problem, x, y, meas, *args, at_probe, 1.5, 0.5)
    got = records[7]
    expected = record_by_slices(problem, 7, x, y, meas, *args, probes, 1.5, 0.5)
    assert got == expected
    for name in ("P_M", "P_L", "v_min", "v_max", "alpha_probe", "beta_probe"):
        assert all(type(value) is float for value in getattr(got, name)), name
    assert type(got.total_cost) is float


def test_solve_refuses_a_feeder_without_nodes():
    # its voltage range is undefined, so its record cells cannot be filled;
    # emptying a built feeder is refused before solve can be reached
    feeder = make_system(n_feeders=1).feeders[0]
    with pytest.raises(ValueError, match="feeder without nodes"):
        dataclasses.replace(feeder, nodes=(), lines=(), ders=())


@pytest.mark.parametrize("probes", [(0, 3), (0, -1), (1,)])
def test_solve_refuses_probes_outside_their_feeder(limits, probes):
    # each probe is a node position within its own feeder (3 nodes each)
    problem = build_problem(make_system(n_feeders=2), limits)
    with pytest.raises(ValueError, match="one node of each feeder"):
        solve(problem, SolverConfig(max_iter=3), probes=probes)


def test_solve_takes_any_real_start(limits):
    # the round's kernels read float64 arrays; a float32 or strided start
    # is converted once, and gives the float64 start's records
    problem = build_problem(make_system(n_feeders=2), limits)
    x, y = initial_state(problem)
    cfg = SolverConfig(max_iter=20)
    strided = np.repeat(x.z, 2)[::2]
    starts = [
        (core.PrimalState(x.z.astype(np.float32), x.n_nodes), y),
        (core.PrimalState(strided, x.n_nodes), DualState(y.lam, np.repeat(y.mu, 2)[::2])),
    ]
    expected = solve(problem, cfg, x0=x, y0=y).records
    for x0, y0 in starts:
        assert solve(problem, cfg, x0=x0, y0=y0).records == expected


def test_build_problem_refuses_a_feeder_without_nodes():
    # refused when built, before any compile, run or stepsize certificate
    with pytest.raises(CaseError, match="feeder without nodes") as exc:
        make_system(n_feeders=2, n_feeder_nodes=0, der_layout={})
    assert exc.value.element == "f0"


def test_solve_divergence_error():
    problem = dispatch_only([(1, 1.0), (2, 1.5)])
    cfg = SolverConfig(eps=50.0, max_iter=100, divergence_limit=300.0)
    with pytest.raises(DivergenceError, match="blow-up bound") as exc:
        solve(problem, cfg, P0_slack=0.0)
    assert exc.value.iteration >= 1


@pytest.mark.parametrize("path", ["compiled", "reference"])
def test_a_nan_multiplier_never_ends_a_run_as_converged(limits, monkeypatch, path):
    # a NaN multiplier is the dual step, with z and lambda unmoved, so the
    # stopping rule never reads the step as small
    if path == "reference":
        monkeypatch.setattr(_native, "library", lambda: None)
    problem = build_problem(make_system(n_feeders=1), limits)

    def step(problem, x, y, P0_slack, cfg, t, warm, signals):
        _, _, meas, _, signals = primal_dual_step(
            problem, x, y, P0_slack, cfg, t, warm, signals
        )
        mu = y.mu.copy()
        mu[0] = math.nan
        return x, DualState(y.lam, mu), meas, 0.0, signals

    cfg = SolverConfig(eps=1e-3, max_iter=3, tol=1e-6)
    res = solve(problem, cfg, P0_slack=0.0, step=step)
    assert (res.status, res.iterations) == ("not-converged", 3)
    assert all(math.isnan(record.step_dual) for record in res.records[1:])


def test_solve_waits_for_scheduled_events():
    # tolerances alone would stop the run near iteration 450; a scheduled
    # outage at 3000 must keep it going, fire, and re-converge
    problem = dispatch_only([(1, 1.0), (2, 1.5)])
    cfg = SolverConfig(eps=0.05, max_iter=20000, tol=1e-10)
    res = solve(
        problem, cfg,
        P0_slack=0.0,
        events=(GeneratorOutage(iteration=3000, bus_id=2),),
    )
    assert res.converged
    assert res.iterations > 3000
    assert res.x.P_M[1] == 0.0
    assert res.x.P_M[0] == pytest.approx(2.0, abs=1e-6)
    assert res.y.lam == pytest.approx(-4.0, abs=1e-6)
    # the record at the event iteration already reflects the trip
    assert res.records[3000].P_M[1] == 0.0


@pytest.mark.parametrize("engine", ["core", "market"])
def test_solve_logs_stepsize_advisory(caplog, engine):
    # both engines share the driver loop that checks the stepsize
    problem = dispatch_only([(1, 1.0)])
    cfg = SolverConfig(eps=0.9, max_iter=1, tol=0.0)
    P0_slack = 0.0
    with caplog.at_level(logging.INFO, logger="tdcoopt.core"):
        if engine == "core":
            solve(problem, cfg, P0_slack=P0_slack)
        else:
            run_market(problem, cfg, P0_slack=P0_slack)
    assert any("advisory only at eta=0" in rec.message for rec in caplog.records)


def test_problem_can_be_reused_after_an_event_run(limits):
    # events act on a copy of the problem: a later run on the same problem
    # must equal a run on a freshly built one
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, limits)
    arrays = {name: getattr(problem, name).copy() for name in ("coef", "lo", "hi")}
    cfg = SolverConfig(eps=0.01, max_iter=80, tol=0.0)
    events = (
        GeneratorOutage(iteration=20, bus_id=2),
        DerCapacityScale(iteration=20, factor=2.0),
    )
    solve(problem, cfg, events=events)
    for name, before in arrays.items():
        np.testing.assert_array_equal(getattr(problem, name), before, err_msg=name)
    # an event copies the boxes, never the network
    x, _ = initial_state(problem)
    for event in events:
        assert apply_event(problem, x, event)[0].network is problem.network

    again = solve(problem, cfg)
    fresh = solve(build_problem(system, limits), cfg)
    assert again.records == fresh.records
    np.testing.assert_array_equal(again.x.P_M, fresh.x.P_M)
    assert again.y.lam == fresh.y.lam


@pytest.mark.parametrize("engine", ["core", "market"])
def test_the_result_holds_the_problem_its_last_round_stepped_on(limits, engine):
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, limits)
    cfg = SolverConfig(eps=0.01, max_iter=30)
    run = solve if engine == "core" else run_market
    assert run(problem, cfg).problem is problem

    res = run(problem, cfg, events=(GeneratorOutage(iteration=20, bus_id=2),))
    tripped = 2 * problem.n_nodes + 1  # the generator at bus 2
    assert res.problem.lo[tripped] == res.problem.hi[tripped] == 0.0
    assert problem.hi[tripped] > 0.0  # the caller's copy keeps its box
    assert res.problem.network is problem.network


@pytest.mark.parametrize("engine", ["core", "market"])
def test_the_run_records_a_phase_per_event_round(limits, engine):
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, limits)
    cfg = SolverConfig(eps=0.01, max_iter=60, tol=0.0, record_state=True)
    # listed out of round order; two events share round 40 and apply in list
    # order, which shows: the other order rounds some boxes another way
    assert not np.array_equal(problem.hi * 0.3 * 3.0, problem.hi * 3.0 * 0.3)
    events = (
        DerCapacityScale(iteration=40, factor=0.3),
        GeneratorOutage(iteration=20, bus_id=2),
        DerCapacityScale(iteration=40, factor=3.0),
    )
    run = solve if engine == "core" else run_market
    res = run(problem, cfg, events=events)

    assert [(p.first, p.last) for p in res.phases] == [(0, 19), (20, 39), (40, 60)]
    assert res.phases[0].problem is problem
    assert res.problem is res.phases[-1].problem
    for before, phase in zip(res.phases, res.phases[1:]):
        assert phase.first == before.last + 1
        assert phase.problem.network is problem.network
        expected, x = before.problem, res.history[before.last][0]
        for event in events:
            if event.iteration == phase.first:
                expected, x = apply_event(expected, x, event)
        for name in ("coef", "lo", "hi"):
            np.testing.assert_array_equal(
                getattr(phase.problem, name), getattr(expected, name), err_msg=name
            )


@pytest.mark.parametrize("engine", ["core", "market"])
def test_a_run_cut_before_its_events_has_one_phase(limits, engine):
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, limits)
    cfg = SolverConfig(eps=0.01, max_iter=12, tol=0.0)
    run = solve if engine == "core" else run_market
    res = run(problem, cfg, events=(GeneratorOutage(iteration=13, bus_id=2),))
    assert res.iterations == 12
    assert [(p.first, p.last) for p in res.phases] == [(0, 12)]
    assert res.phases[0].problem is problem


@pytest.mark.parametrize("engine", ["core", "market"])
def test_both_engines_take_the_run_options_in_the_same_places(engine):
    # the upper band binds, so the probe node shows in the records
    system = make_system(n_feeders=2, gen_specs=[(1, 1.0), (2, 1.5)])
    problem = build_problem(system, VoltageLimits(0.95, 1.002))
    x0, y0 = initial_state(problem)
    cfg = SolverConfig(eps=0.01, max_iter=200, tol=0.0)
    events = (GeneratorOutage(iteration=100, bus_id=2),)
    run = solve if engine == "core" else run_market
    res = run(problem, cfg, x0, y0, P0_slack=0.0, events=events, probes=(0, 0))

    options = dict(x0=x0, y0=y0, P0_slack=0.0, events=events)
    assert res.records == solve(problem, cfg, probes=(0, 0), **options).records
    assert res.records != solve(problem, cfg, **options).records


def test_default_probes_pick_deepest_node(limits):
    problem = build_problem(make_system(n_feeders=2), limits)
    assert default_probes(problem) == (2, 2)  # last node of each chain


def test_solve_with_voltage_constraint(limits):
    # a feeder DER pushed by a tight upper band: at convergence the
    # binding node carries a positive multiplier and the voltage sits on
    # the limit (to first order in the model)
    system = make_system(
        n_feeders=1,
        gen_specs=[(1, 1.0)],
        load=0.5,
        der_layout={4: {"p_max": 2.0, "q_max": 1.0, "q_min": -1.0}},
    )
    tight = VoltageLimits(v_min=0.95, v_max=1.003)
    problem = build_problem(system, tight)
    # at eta = 0 an active constraint leaves a small projection-induced
    # limit cycle, so the band and the stopping rule get 1e-3 headroom
    cfg = SolverConfig(eps=0.02, eta=0.0, max_iter=60000, tol=1e-3)
    res = solve(problem, cfg, P0_slack=0.0)
    assert res.converged
    v = measure(problem, res.x, feedback="linear").v
    assert np.max(v) <= tight.v_max + 2e-3
    mu_up = res.y.mu[: problem.n_nodes]
    binding = np.abs(v - tight.v_max) < 2e-3
    assert binding.any()
    assert mu_up[binding].max() > 1e-3
    assert res.x.p[2] > 0.1  # the DER is actively producing
    assert res.y.lam < 0
