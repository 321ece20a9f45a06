"""Exact feeder power flow and slack-bus bookkeeping.

The case33bw regression pins the solver against the published solution of
that feeder (minimum voltage 0.9131 p.u., total loss 202.68 kW at the
nominal load): agreement there validates the whole sweep arithmetic on a
realistic 33-node system.  The remaining tests check fixed-point and
conservation identities that hold exactly regardless of the data.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcoopt.acpf import (
    SlackAccount,
    SweepDivergence,
    fixed_injection,
    record_slack,
    recompute_branch_mismatch,
    slack_residual,
    sweep_feeder,
)
from tdcoopt.lindistflow import build_lindistflow
from tdcoopt.network import parse_case

from conftest import CASES_DIR, make_chain_feeder, make_ts


def load_feeder(name: str):
    return parse_case((CASES_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# published-solution regression
# ---------------------------------------------------------------------------

def test_case33bw_published_solution():
    # [PAPER] the 33-node benchmark feeder at nominal load solves to a
    # minimum voltage of 0.9131 p.u. and 202.68 kW of line loss
    feeder = load_feeder("case33bw")
    zero = np.zeros(feeder.n_nodes)
    res = sweep_feeder(build_lindistflow(feeder), zero, zero)
    assert res.v.min() == pytest.approx(0.9131, abs=5e-5)
    assert res.loss * feeder.base_mva * 1000 == pytest.approx(202.68, abs=0.05)
    # head draw = load + losses; the load totals 3.715 MW / 2.3 Mvar
    assert res.P_L * feeder.base_mva == pytest.approx(3.9177, abs=1e-3)
    assert res.Q_L * feeder.base_mva == pytest.approx(2.4351, abs=1e-3)
    assert res.iterations <= 10


@pytest.mark.parametrize(
    "name",
    ["case33bw", "feeder4", "feeder18", "feeder22", "feeder42sce",
     "feeder69", "feeder85", "feeder141"],
)
def test_sweep_is_a_branch_flow_fixed_point(name):
    # [DERIVED] rebuilding branch flows and voltages from the returned
    # profile must reproduce it to the sweep tolerance
    feeder = load_feeder(name)
    zero = np.zeros(feeder.n_nodes)
    model = build_lindistflow(feeder)
    res = sweep_feeder(model, zero, zero, tol=1e-10)
    assert recompute_branch_mismatch(model, zero, zero, res) < 1e-8


@pytest.mark.parametrize("name", ["case33bw", "feeder69"])
def test_energy_conservation(name):
    # [DERIVED] head draw equals total consumption plus total line loss
    feeder = load_feeder(name)
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 5e-4, feeder.n_nodes)
    q = rng.uniform(-2e-4, 2e-4, feeder.n_nodes)
    res = sweep_feeder(build_lindistflow(feeder), p, q, tol=1e-12)
    consumed = -sum(node.p_load for node in feeder.nodes) - p.sum()
    assert res.P_L == pytest.approx(consumed + res.loss, abs=1e-9)


# ---------------------------------------------------------------------------
# sweep behavior
# ---------------------------------------------------------------------------

def test_voltage_drops_monotonically_along_loaded_chain():
    # [DERIVED] with loads only, every node sits below its parent
    feeder = make_chain_feeder(n_nodes=6, load=5e-3)
    zero = np.zeros(6)
    res = sweep_feeder(build_lindistflow(feeder), zero, zero)
    assert res.v[0] < feeder.v0
    assert np.all(np.diff(res.v) < 0)


def test_injection_raises_voltages():
    # [DERIVED] adding real injection at the end node lifts the profile
    feeder = make_chain_feeder(n_nodes=4, load=5e-3)
    zero = np.zeros(4)
    model = build_lindistflow(feeder)
    base = sweep_feeder(model, zero, zero)
    p = np.array([0.0, 0.0, 0.0, 5e-3])
    lifted = sweep_feeder(model, p, np.zeros(4))
    assert np.all(lifted.v > base.v)


def test_warm_start_converges_at_least_as_fast():
    feeder = load_feeder("case33bw")
    zero = np.zeros(feeder.n_nodes)
    model = build_lindistflow(feeder)
    cold = sweep_feeder(model, zero, zero, tol=1e-10)
    warm = sweep_feeder(model, zero, zero, tol=1e-10, v_init=cold.v)
    assert warm.iterations <= cold.iterations
    assert warm.iterations == 1
    np.testing.assert_allclose(warm.v, cold.v, atol=1e-9)


def test_overload_raises_sweep_divergence():
    feeder = make_chain_feeder(n_nodes=3, load=2e-3, r=0.02)
    heavy = dataclasses.replace(
        feeder,
        nodes=tuple(
            dataclasses.replace(n, p_load=n.p_load * 5000) for n in feeder.nodes
        ),
    )
    zero = np.zeros(3)
    with pytest.raises(SweepDivergence) as exc:
        sweep_feeder(build_lindistflow(heavy), zero, zero)
    assert exc.value.iterations >= 1


def test_nonconvergence_reports_residual():
    feeder = load_feeder("case33bw")
    zero = np.zeros(feeder.n_nodes)
    with pytest.raises(SweepDivergence, match="did not converge") as exc:
        sweep_feeder(build_lindistflow(feeder), zero, zero, tol=1e-15, max_iter=2)
    assert exc.value.iterations == 2
    assert math.isfinite(exc.value.residual)


def test_injection_length_validation():
    model = build_lindistflow(make_chain_feeder(n_nodes=3))
    with pytest.raises(ValueError, match="length 3"):
        sweep_feeder(model, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="v_init"):
        sweep_feeder(model, np.zeros(3), np.zeros(3), v_init=np.ones(5))


@settings(deadline=None, max_examples=30)
@given(
    n_nodes=st.integers(min_value=1, max_value=8),
    load=st.floats(min_value=1e-4, max_value=8e-3),
    inj=st.floats(min_value=-4e-3, max_value=4e-3),
)
def test_fixed_point_property(n_nodes, load, inj):
    # [DERIVED] any light-load operating point the sweep accepts is a
    # genuine fixed point of the branch-flow equations
    model = build_lindistflow(make_chain_feeder(n_nodes=n_nodes, load=load))
    p = np.full(n_nodes, inj)
    q = np.zeros(n_nodes)
    res = sweep_feeder(model, p, q, tol=1e-12)
    assert recompute_branch_mismatch(model, p, q, res) < 1e-9
    consumed = n_nodes * load - p.sum()
    assert res.P_L == pytest.approx(consumed + res.loss, abs=1e-9)


# ---------------------------------------------------------------------------
# slack-bus bookkeeping
# ---------------------------------------------------------------------------

def test_record_slack_arithmetic():
    # [TRIVIAL] fixed injections sum to -2.0 (the load bus), so with
    # P_M = 1.2 and P_L = 0.3 the implied slack output is 0.3 - 1.2 + 2.0
    ts = make_ts([(1, 1.0)], load_bus=5, load=2.0, slack_bus=9)
    P_M = np.array([1.2])
    P_L = np.array([0.3])
    fixed = fixed_injection(ts)
    account = record_slack(fixed, P_M, P_L)
    assert account.P0_slack == pytest.approx(1.1)
    assert slack_residual(account, fixed, P_M, P_L) == pytest.approx(0.0)


def test_slack_residual_sign_convention():
    # raising fleet output by delta over-supplies by exactly delta
    ts = make_ts([(1, 1.0)], load_bus=5, load=2.0, slack_bus=9)
    P_M = np.array([1.2])
    P_L = np.array([0.3])
    fixed = fixed_injection(ts)
    account = record_slack(fixed, P_M, P_L)
    assert slack_residual(account, fixed, P_M + 0.25, P_L) == pytest.approx(0.25)
    # extra feeder draw under-supplies
    assert slack_residual(account, fixed, P_M, P_L + 0.1) == pytest.approx(-0.1)


def test_slack_bus_p0_excluded_from_fixed_injection():
    ts = make_ts([(1, 1.0)], load_bus=5, load=2.0, slack_bus=9)
    buses = tuple(
        dataclasses.replace(b, p0=4.0) if b.id == ts.slack_bus_id else b
        for b in ts.buses
    )
    ts_slack_load = dataclasses.replace(ts, buses=buses)
    # the slack bus's own p0 must not enter the balance
    assert fixed_injection(ts_slack_load) == -2.0
    account = record_slack(
        fixed_injection(ts_slack_load), np.array([1.2]), np.array([0.3])
    )
    assert account.P0_slack == pytest.approx(1.1)


def test_slack_residual_is_pure():
    account = SlackAccount(P0_slack=0.5)
    fixed = fixed_injection(make_ts([(1, 1.0)]))
    first = slack_residual(account, fixed, np.array([0.7]), np.array([0.0]))
    assert first == pytest.approx(0.5 - (2.0 - 0.7))
    assert account == SlackAccount(P0_slack=0.5)
    assert slack_residual(account, fixed, np.array([0.7]), np.array([0.0])) == first
