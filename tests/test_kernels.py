"""The compiled round kernels (``_round.c``) against their numpy references.

Each kernel of the package's extension module replaces a chain of numpy
calls in :mod:`tdcoopt.core`, which stays as the reference and runs where
no library can be built; the market agents' ``agent_step`` replaces
that numpy primal step on each agent's coordinates (the operator's
``file_reports`` meets its Python intake in ``test_market.py``).  Here
each kernel meets that numpy code on drawn inputs, special values
included (signed zeros, NaN, infinities), and must give the same bits
(NaN only as NaN: see :func:`same_bits`).  Every kernel checks its
arguments before it reads them, so arrays that do not fit raise instead
of being read out of bounds.  The last test runs short scenarios in
fresh processes with no compiler on ``PATH`` and checks that the numpy
and Python paths write the same trace and summary bytes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcoopt import _native, core, scenario, trace
from tdcoopt.acpf import SweepResult
from tdcoopt.core import DualState, Measurement, PrimalState, build_problem
from tdcoopt.market import (
    AgentMessage,
    GeneratorAgent,
    MessageBus,
    UserAgent,
    run_market,
)
from tdcoopt.network import VoltageLimits
from tdcoopt.scenario import load_scenario, run_scenario
from tdcoopt.trace import Records

from conftest import SCENARIOS_DIR, make_system


@contextlib.contextmanager
def numpy_reference():
    """A context in which :mod:`tdcoopt.core` runs its numpy code."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "library", lambda: None)
        yield


def same_bits(a, b) -> bool:
    """Equal bits, where any NaN equals any NaN.

    The sign of a NaN is not compared: numpy itself gives either sign for
    the same operands (on numpy 2.4, ``-nan + nan`` is ``-nan`` in an
    8-entry array and ``nan`` in a 30-entry one), and a trace writes every
    NaN as ``nan``.
    """
    a, b = (np.asarray(side, dtype=np.float64) for side in (a, b))
    return (
        a.shape == b.shape
        and np.array_equal(np.isnan(a), np.isnan(b))
        and np.where(np.isnan(a), 0.0, a).tobytes()
        == np.where(np.isnan(b), 0.0, b).tobytes()
    )


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 1e-300, -2.5)
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def arrays(data, n, elements=values):
    return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)


# ---------------------------------------------------------------------------
# the projected primal step
# ---------------------------------------------------------------------------

boxes = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                     (-math.inf, math.inf), (0.0, 1.0), (-1.0, -0.0)]),
    st.tuples(values, values),  # NaN and empty boxes too: numpy's rules hold
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=32),
    eps=st.one_of(st.sampled_from([5e-4, 1.0, 0.0]), st.floats(1e-6, 10.0)),
)
def test_primal_step_is_numpys_clip_of_the_gradient_step(kernels, data, n, eps):
    # coef and signals of 0.0 leave z on its bound, so ties at ±0.0 occur
    z = arrays(data, n)
    coef = arrays(data, n)
    signals = arrays(data, n)
    pairs = data.draw(st.lists(boxes, min_size=n, max_size=n))
    lo = np.array([low for low, _ in pairs], dtype=float)
    hi = np.array([high for _, high in pairs], dtype=float)
    with np.errstate(all="ignore"):
        expected = np.clip(z - eps * (2.0 * coef * z + signals), lo, hi)
    assert same_bits(kernels.primal_step(z, eps, coef, signals, lo, hi), expected)


def test_primal_step_gives_the_bound_on_a_tie(kernels):
    z = np.array([-0.0, 0.0, 0.0, 0.0, math.nan, 2.0])
    lo = np.array([0.0, -0.0, 0.0, -1.0, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 0.0, -0.0, 1.0, math.nan])
    zero = np.zeros(6)
    got = kernels.primal_step(z, 5e-4, zero, zero, lo, hi)
    assert [math.copysign(1.0, g) for g in got[:4]] == [1.0, -1.0, 1.0, -1.0]
    assert math.isnan(got[4]) and math.isnan(got[5])


# ---------------------------------------------------------------------------
# one market agent's step
# ---------------------------------------------------------------------------

EDGES_OF_A_BOX = (0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan)


@st.composite
def agent_rounds(draw):
    """An agent (a user's two coordinates or a generator's one) and the
    round's arrays over z, up to 80 entries long, so that numpy clips the
    whole vector in its vectorized loop (67 entries and up).  The agent's
    coordinates sit in boxes of signed zeros, [0, 0] ones, empty ones
    (``lo > hi``) and ones with a NaN edge, start on a bound or off it, and
    get NaN prices."""
    n = draw(st.integers(2, 80))
    coords = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    agent = (UserAgent if len(coords) == 2 else GeneratorAgent)("a", tuple(coords))
    edges = st.one_of(st.sampled_from(EDGES_OF_A_BOX), st.floats(-1e3, 1e3))
    drawn = {name: np.array(draw(st.lists(values, min_size=n, max_size=n)))
             for name in ("z", "coef", "signals")}
    lo, hi = np.zeros(n), np.zeros(n)
    for c in coords:
        lo[c], hi[c] = draw(st.lists(edges, min_size=2, max_size=2))
        # coef and price 0.0 keep z where it starts, on a bound: a tie
        drawn["z"][c] = draw(st.one_of(st.sampled_from([lo[c], hi[c]]), values))
    return agent, drawn["z"], drawn["coef"], drawn["signals"], lo, hi


def held(value, lo, hi, n=67):
    """A generator at coordinate 0 of a round of ``n`` entries, each
    ``value`` in the box ``[lo, hi]`` at no cost and no price: the step
    keeps ``value``, and the clip alone decides what is reported."""
    zero = np.zeros(n)
    return (GeneratorAgent("a", (0,)), np.full(n, value), zero, zero,
            np.full(n, lo), np.full(n, hi))


@settings(max_examples=100, deadline=None)
@given(
    run=agent_rounds(),
    eps=st.one_of(st.sampled_from([5e-4, 1.0, 0.0]), st.floats(1e-6, 10.0)),
)
@example(run=held(-0.0, 0.0, 1.0), eps=5e-4)
@example(run=held(0.0, -1.0, -0.0), eps=5e-4)
@example(run=held(-0.0, 0.0, -0.0), eps=5e-4)
@example(run=held(math.nan, -math.inf, math.inf), eps=5e-4)
@example(run=held(0.5, math.nan, 1.0), eps=5e-4)
@example(run=held(0.5, 0.0, math.nan), eps=5e-4)
@example(run=held(-2.0, math.nan, math.nan), eps=5e-4)
def test_agent_step_is_coordinate_step_to_the_bit(kernels, run, eps):
    # at the agent's coordinates, the agent_step kernel gives the bits of
    # the core's step on the whole z, compiled (primal_step) and in numpy
    # (the clip of core.py's gradient step); the agent reports them on the
    # kernel and on its numpy reference
    agent, z, coef, signals, lo, hi = run
    at = list(agent.coords)
    values = kernels.agent_step(agent.coords, z, eps, coef, signals, lo, hi)
    assert type(values) is list and {type(v) for v in values} == {float}
    assert same_bits(values, kernels.primal_step(z, eps, coef, signals, lo, hi)[at])
    x = PrimalState(z, 0)
    with np.errstate(all="ignore"):
        step = z - eps * core.grad_primal(SimpleNamespace(coef=coef), x, None, signals)
        assert same_bits(values, np.clip(step, lo, hi)[at])
    reports = [agent.step(z, coef, lo, hi, signals, eps, 7)]
    with numpy_reference(), np.errstate(all="ignore"):
        reports.append(agent.step(z, coef, lo, hi, signals, eps, 7))
    for report in reports:
        assert (report.sender, report.iteration_tag) == ("a", 7)
        assert {type(v) for v in report.payload} == {float}
        assert same_bits(report.payload, values)


# ---------------------------------------------------------------------------
# the dual step
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=32),
    eps=st.one_of(st.sampled_from([5e-4, 1.0]), st.floats(1e-6, 10.0)),
    eta=st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 5.0)),
)
def test_dual_step_is_numpys_projected_ascent_in_mu(kernels, data, n, eps, eta):
    limits = VoltageLimits(0.95, 1.05)
    # voltages on the band edges give zero violations of either sign
    v = arrays(data, n, st.one_of(
        st.sampled_from([0.95, 1.05, 1.0, math.nan, math.inf, -math.inf]),
        st.floats(0.9, 1.1),
    ))
    mu = arrays(data, 2 * n, st.one_of(st.sampled_from([0.0, -0.0, 1e-3]), values))
    with np.errstate(all="ignore"):
        dmu = np.concatenate([v - limits.v_max, limits.v_min - v]) - eta * mu
        expected = np.maximum(mu + eps * dmu, 0.0)
    got, _, _ = kernels.dual_step(
        mu, v, limits.v_min, limits.v_max, eps, eta, 0.0, np.zeros(0), np.zeros(0),
        0.0, 0.0,
    )
    assert same_bits(got, expected)


def test_dual_step_clamps_minus_zero_to_plus_zero(kernels):
    # both violations are +0.0, so a step of eps = -1 takes -0.0 to
    # -0.0 + -0.0: the clamp gives +0.0, as np.maximum(., 0.0) does
    mu = np.array([-0.0, -0.0])
    got, _, _ = kernels.dual_step(
        mu, np.array([1.0]), 1.0, 1.0, -1.0, 0.0, 0.0, np.zeros(0), np.zeros(0),
        0.0, 0.0,
    )
    assert same_bits(got, [0.0, 0.0])
    assert same_bits(np.maximum(mu + -1.0 * (np.zeros(2) - 0.0 * mu), 0.0), got)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=32),
    n_feeders=st.sampled_from([0, 1, 7, 8, 9, 20]),
    n_generators=st.sampled_from([0, 1, 7, 8, 9, 130]),
)
def test_dual_step_is_dual_updates_numpy_code(kernels, data, n, n_feeders, n_generators):
    # the multipliers' step and the price's, whose residual sums P_L and
    # P_M as np.add.reduce does: on either side of its 8 and 128
    limits = VoltageLimits(0.95, 1.05)
    network = SimpleNamespace(limits=limits, fixed_injection=data.draw(values))
    v = arrays(data, n, st.one_of(st.sampled_from([0.95, 1.05, math.nan]), st.floats(0.9, 1.1)))
    meas = Measurement(v=v, P_L=arrays(data, n_feeders))
    y = DualState(lam=data.draw(values), mu=arrays(data, 2 * n))
    P_M = arrays(data, n_generators)
    P0_slack = data.draw(values)
    eps = data.draw(st.sampled_from([5e-4, 1.0]))
    eta = data.draw(st.sampled_from([0.0, 0.1]))
    with numpy_reference(), np.errstate(all="ignore"):
        expected, residual = core.dual_update(network, y, meas, P_M, P0_slack, eps, eta)
    mu, lam, got = kernels.dual_step(
        y.mu, v, limits.v_min, limits.v_max, eps, eta, y.lam, meas.P_L, P_M,
        P0_slack, network.fixed_injection,
    )
    assert same_bits(mu, expected.mu)
    assert same_bits(lam, expected.lam) and same_bits(got, residual)


# ---------------------------------------------------------------------------
# the norms
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=32))
def test_norms_match_numpys_maximum_reduce(kernels, data, n):
    # step_norms with eps = 1 and lam = 0 reduces to the two maximum
    # reductions: |a - b| over z as the primal step, |a| over z_new as the
    # state's norm, and |a - b| over mu as the dual step beside |0 - 0|
    a = arrays(data, n)
    b = arrays(data, n)
    empty = np.zeros(0)
    with numpy_reference(), np.errstate(all="ignore"):
        diff, norm = core._max_abs_diff(a, b), core._max_abs(a)
    primal, _, state = kernels.step_norms(a, b, empty, empty, 0.0, 0.0, 1.0)
    assert same_bits(primal, diff)
    assert same_bits(state, norm)
    _, dual, _ = kernels.step_norms(empty, empty, a, b, 0.0, 0.0, 1.0)
    assert same_bits(dual, np.maximum(0.0, diff))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 31, 64])
def test_norms_propagate_a_nan_at_any_position(kernels, n):
    # a NaN in z_new or z is the primal step, one in mu_new or mu the dual
    # step, and one in z_new the state's norm; a NaN lam_new is the dual
    # step and the state's norm, a NaN lam the dual step
    cases = [(vector, at, 0.5, 0.25) for vector in range(4) for at in range(n)]
    cases += [(None, None, math.nan, 0.25), (None, None, 0.5, math.nan)]
    for vector, at, lam_new, lam in cases:
        args = [np.arange(n, dtype=float) * k for k in (3.0, 1.0, 2.0, 0.5)]
        if vector is not None:
            args[vector][at] = math.nan
        got = kernels.step_norms(*args, lam_new, lam, 1e-3)
        x_new, x = PrimalState(args[0], 0), PrimalState(args[1], 0)
        y_new, y = DualState(lam_new, args[2]), DualState(lam, args[3])
        with numpy_reference():
            expected = core._step_norms(x_new, x, y_new, y, 1e-3)
        assert all(same_bits(a, b) for a, b in zip(got, expected)), (got, expected)
        assert math.isnan(got[0]) == (vector in (0, 1))
        assert math.isnan(got[1]) == (vector in (2, 3) or vector is None)
        assert math.isnan(got[2]) == (vector == 0 or math.isnan(lam_new))
    empty = np.zeros(0)
    assert kernels.step_norms(empty, empty, empty, empty, 0.0, 0.0, 1.0) == (0.0, 0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 40), m=st.integers(0, 40))
def test_step_norms_are_the_driver_loops_numpy_norms(kernels, data, n, m):
    # lanes of four and a tail, NaN at any place, ±inf, signed zeros
    z_new, z = arrays(data, n), arrays(data, n)
    mu_new, mu = arrays(data, m), arrays(data, m)
    x_new, x = PrimalState(z_new, 0), PrimalState(z, 0)
    y_new = DualState(lam=data.draw(values), mu=mu_new)
    y = DualState(lam=data.draw(values), mu=mu)
    eps = data.draw(st.sampled_from([5e-4, 1.0, 3.0]))
    with numpy_reference(), np.errstate(all="ignore"):
        expected = core._step_norms(x_new, x, y_new, y, eps)
    got = kernels.step_norms(z_new, z, mu_new, mu, y_new.lam, y.lam, eps)
    assert len(got) == 3
    assert all(same_bits(a, b) for a, b in zip(got, expected)), (got, expected)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    zero_lambda=st.booleans(),
    mu_kind=st.sampled_from(["zero", "minus-zero", "one", "nan"]),
)
def test_flat_signals_are_der_signals_shortcut(kernels, data, zero_lambda, mu_kind):
    problem = build_problem(make_system(n_feeders=2), VoltageLimits(0.95, 1.05))
    network, N = problem.network, problem.n_nodes
    mu = np.zeros(2 * N)
    at = data.draw(st.integers(0, 2 * N - 1))
    mu[at] = {"zero": 0.0, "minus-zero": -0.0, "one": 1e-3, "nan": math.nan}[mu_kind]
    y = DualState(lam=data.draw(values), mu=mu)
    lam_ders = 0.0 if zero_lambda else y.lam
    prices, w, active = kernels.flat_signals(
        mu, N, network.n_generators, lam_ders, y.lam, network.starts
    )
    expected = core._der_prices(network, y, zero_lambda)
    if mu_kind in ("one", "nan"):
        # the feeder of the multiplier is left for its products, from w
        k = int(np.searchsorted(network.starts, at % N, side="right")) - 1
        assert active == (k,)
        assert same_bits(w, mu[:N] - mu[N:])
        sl = network.models[k].span
        prices[sl] = expected[sl]
        prices[N + sl.start : N + sl.stop] = expected[N + sl.start : N + sl.stop]
    else:
        assert active == () and w is None
    assert same_bits(prices, expected)
    assert same_bits(core.der_signals(network, y, zero_lambda), expected)
    # a multiplier vector the kernel cannot read as it is takes numpy's path
    starts = network.starts
    assert kernels.flat_signals(noncontiguous(mu), N, network.n_generators, 0.0, 0.0,
                                starts) is None
    assert kernels.flat_signals(mu[:-1], N, network.n_generators, 0.0, 0.0, starts) is None


@settings(max_examples=100, deadline=None)
@given(data=st.data(), zero_lambda=st.booleans())
def test_der_signals_price_only_the_feeders_that_need_products(kernels, data, zero_lambda):
    # feeders whose w is all zero (±0.0, or equal multipliers on both
    # bands) take the kernel's flat prices, the rest numpy's products:
    # the reference's bits either way
    problem = build_problem(make_system(n_feeders=3), VoltageLimits(0.95, 1.05))
    network, N = problem.network, problem.n_nodes
    entries = st.sampled_from([0.0, 0.0, -0.0, 1e-3, 2.5, math.inf, math.nan])
    mu = np.array(data.draw(st.lists(entries, min_size=2 * N, max_size=2 * N)))
    if data.draw(st.booleans()):  # equal bands: w is +0.0 where both are finite
        mu[N:] = mu[:N]
    y = DualState(lam=data.draw(values), mu=mu)
    with np.errstate(invalid="ignore"):
        expected = core._der_prices(network, y, zero_lambda)
        got = core.der_signals(network, y, zero_lambda)
    assert same_bits(got, expected)


# ---------------------------------------------------------------------------
# the total cost and the record row
# ---------------------------------------------------------------------------

# block lengths either side of the pairwise sum's 8, its 128 and numpy's
# 8 192-entry buffer
EDGES = (0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 256, 257,
         8191, 8192, 8193, 16384, 20000)
lengths = st.one_of(st.sampled_from(EDGES), st.integers(0, 20000))


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=lengths,
    n_generators=lengths,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["mixed", "minus-zero", "special"]),
)
def test_total_cost_sums_in_numpys_order(kernels, n_nodes, n_generators, seed, kind):
    rng = np.random.default_rng(seed)
    n = 2 * n_nodes + n_generators
    if kind == "minus-zero":  # every term -0.0: numpy's sum is +0.0
        coef, z = np.full(n, -1.0), np.zeros(n)
    else:
        coef = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-8, 2, n)
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2, n)
        if kind == "special" and n:
            z[rng.integers(0, n, 3)] = rng.choice([0.0, -0.0, math.inf, math.nan], 3)
    # record_row fills its total-cost cell as core.total_cost sums
    records, none = Records(n_generators, 0), np.zeros(0, dtype=np.intp)
    row = np.zeros(records.width)
    kernels.record_row(row, records.layout, 0.0, z, n_nodes, coef, np.zeros(0),
                       np.ones(n_nodes), none, np.zeros(2 * n_nodes), none, 0.0, 0.0, 0.0)
    with np.errstate(all="ignore"):
        expected = core.total_cost(SimpleNamespace(coef=coef), PrimalState(z, n_nodes))
    assert same_bits(row[records.total_cost], expected)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    n_feeders=st.integers(1, 3),
    n_feeder_nodes=st.integers(2, 12),
)
def test_record_row_matches_iteration_record(kernels, data, seed, n_feeders, n_feeder_nodes):
    # voltages of one sign, with ±0.0 drawn in, so that zeros tie for a
    # feeder's lowest or highest voltage: a zero extreme is recorded as
    # +0.0 on both paths, whichever of the tied zeros a reduction keeps;
    # NaN and ±inf are drawn too
    problem = build_problem(
        make_system(n_feeders=n_feeders, n_feeder_nodes=n_feeder_nodes),
        VoltageLimits(0.95, 1.05),
    )
    rng = np.random.default_rng(seed)
    N, G = problem.n_nodes, problem.n_generators
    z = rng.normal(size=2 * N + G)
    v = data.draw(st.sampled_from([1.0, -1.0])) * rng.uniform(0.9, 1.1, N)
    for at in data.draw(st.lists(st.integers(0, N - 1), max_size=3)):
        v[at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    for at in data.draw(st.lists(st.integers(0, N - 1), max_size=12)):
        v[at] = data.draw(st.sampled_from([0.0, -0.0]))
    x = PrimalState(z, N)
    y = DualState(lam=float(rng.normal()), mu=rng.uniform(0, 1, 2 * N))
    meas = Measurement(v=v, P_L=rng.normal(size=n_feeders))
    signals = rng.normal(size=2 * N + G)
    probes = np.array(
        [m.span.start + int(rng.integers(0, m.n_nodes)) for m in problem.models],
        dtype=np.intp,
    )

    def rows():
        for path in (contextlib.nullcontext(), numpy_reference()):
            records = Records(G, n_feeders)
            with path:
                core.iteration_record(
                    records, problem, x, y, meas, 0.25, signals, probes, 1.5, 0.5
                )
            yield records._chunks[0][0].copy()

    compiled, reference = rows()
    assert compiled.tobytes() == reference.tobytes()
    # a feeder whose voltages are all -0.0 records +0.0 at both extremes
    v[problem.models[0].span] = -0.0
    layout = Records(G, n_feeders)
    extremes = [layout.v_min.start, layout.v_max.start]
    for row in rows():
        assert row[extremes].tobytes() == bytes(16)


# ---------------------------------------------------------------------------
# argument checks: nothing is read that does not fit
# ---------------------------------------------------------------------------

def valid_calls():
    """Each kernel's name and a call of it that succeeds."""
    n, G, F = 6, 2, 2
    records = Records(G, F)
    z = np.linspace(-1.0, 1.0, 2 * n + G)
    order = np.arange(3, dtype=np.intc)
    return {
        "primal_step": [z, 5e-4, np.ones(2 * n + G), np.zeros(2 * n + G),
                        np.full(2 * n + G, -1.0), np.ones(2 * n + G)],
        "record_row": [np.empty(records.width), records.layout, 0.5, z, n,
                       np.ones(2 * n + G), np.ones(F), np.ones(n),
                       np.array([0, 3], dtype=np.intp), np.ones(2 * n + G),
                       np.array([1, 4], dtype=np.intp), 0.0, 0.0, 0.0],
        "dual_step": [np.zeros(2 * n), np.ones(n), 0.95, 1.05, 5e-4, 0.0, 0.5,
                      np.ones(F), np.ones(G), 1.0, 0.25],
        "step_norms": [z, z[::-1].copy(), np.zeros(2 * n), np.ones(2 * n), 0.5, 0.25,
                       5e-4],
        "flat_signals": [np.zeros(2 * n), n, G, 0.5, 0.5, np.array([0, 3], dtype=np.intp)],
        "agent_step": [(1, n + 1), z, 5e-4, np.ones(2 * n + G), np.zeros(2 * n + G),
                       np.full(2 * n + G, -1.0), np.ones(2 * n + G)],
        "file_reports": [[AgentMessage("setpoint-report", "user", 1, [0.5, -0.5])], 1,
                         {"user": (0, (1, n + 1))}, 2 * n + G],
        "bind_feeder": [SweepResult, order, np.array([-1, 0, 1], dtype=np.intc),
                        np.array([0], dtype=np.intc), np.full(3, 0.01), np.full(3, 0.01),
                        np.full(3, -1e-3), np.zeros(3), 1.0, 1, 5],
        # a feeder of 3 nodes at 1 to 4 of a network of 5
        "sweep": [order, np.array([-1, 0, 1], dtype=np.intc),
                  np.array([0], dtype=np.intc), np.full(3, 0.01), np.full(3, 0.01),
                  np.full(3, -1e-3), np.zeros(3), 1.0, 1, 5, np.zeros(5), np.zeros(5),
                  None, 1e-8, 100, None],
    }


def entry(kernels, name):
    """The kernel ``name`` of :func:`valid_calls`.  ``sweep`` binds the tree
    and its place in the network in its first ten arguments and sweeps
    with the rest, as :mod:`tdcoopt.acpf` does:
    ``bind_feeder(SweepResult, *a[:10]).sweep(*a[10:])``."""
    if name == "sweep":
        return lambda *a: kernels.bind_feeder(SweepResult, *a[:10]).sweep(*a[10:])
    return getattr(kernels, name)


def noncontiguous(a):
    spread = np.empty(2 * len(a), dtype=a.dtype)
    spread[::2] = a
    return spread[::2]


def read_only(a):
    a.flags.writeable = False
    return a


# (kernel, argument position, how it is spoilt, the error)
SPOILT = [
    ("primal_step", 0, lambda a: a.astype(np.float32), TypeError),
    ("primal_step", 2, lambda a: a.tolist(), TypeError),
    ("primal_step", 3, noncontiguous, ValueError),
    ("primal_step", 4, lambda a: a[:-1], ValueError),
    ("primal_step", 5, lambda a: a.reshape(1, -1), ValueError),
    ("primal_step", 1, lambda eps: "5e-4", TypeError),
    ("dual_step", 1, lambda v: v[:-1], ValueError),  # mu is then too long
    ("dual_step", 1, lambda v: v.astype(np.int64), TypeError),
    ("dual_step", 0, lambda mu: mu.astype(">f8"), TypeError),
    ("step_norms", 0, lambda z_new: z_new[:-1], ValueError),
    ("step_norms", 2, noncontiguous, ValueError),
    ("step_norms", 0, lambda z_new: z_new.astype(np.float32), TypeError),
    ("record_row", 4, lambda n_nodes: 8, ValueError),  # 2 n_nodes > len(z)
    ("record_row", 4, lambda n_nodes: -1, ValueError),
    ("record_row", 3, lambda z: z[:-1], ValueError),  # shorter than coef
    ("record_row", 0, lambda row: row[:-1], ValueError),  # the layout overruns it
    ("record_row", 0, lambda row: row.astype(np.float32), TypeError),
    ("record_row", 1, lambda layout: layout[:-1], ValueError),
    ("record_row", 1, lambda layout: layout.astype(np.int32), TypeError),
    ("record_row", 1, lambda layout: np.where(layout == 1, -1, layout), ValueError),
    ("record_row", 6, lambda P_L: P_L[:1], ValueError),
    ("record_row", 7, lambda v: v[:-1], ValueError),
    ("record_row", 8, lambda starts: starts + 4, IndexError),
    ("record_row", 8, lambda starts: starts - 1, IndexError),
    ("record_row", 9, lambda s: s[:11], ValueError),  # fewer than 2 N prices
    ("record_row", 10, lambda probes: probes + 5, IndexError),
    ("record_row", 10, lambda probes: np.array([-1, 0], dtype=np.intp), IndexError),
    ("record_row", 10, lambda probes: probes.astype(np.int32), TypeError),
    ("sweep", 0, lambda order: order + 1, IndexError),
    ("sweep", 1, lambda parent: parent - 1, IndexError),
    ("sweep", 2, lambda roots: np.array([3], dtype=np.intc), IndexError),
    ("sweep", 0, lambda order: order.astype(np.int64), TypeError),
    ("sweep", 3, lambda r: r[:-1], ValueError),
    ("sweep", 10, lambda p: np.zeros(4), ValueError),
    ("sweep", 12, lambda v_init: np.ones(2), ValueError),
    ("sweep", 14, lambda max_iter: 2**40, ValueError),
    ("sweep", 15, lambda out: np.empty(2), ValueError),
    ("sweep", 15, lambda out: read_only(np.empty(5)), ValueError),
    ("sweep", 15, lambda out: np.empty(5, dtype=np.float32), TypeError),
    ("sweep", 15, lambda out: noncontiguous(np.empty(5)), ValueError),
    ("sweep", 15, lambda out: np.empty((1, 5)), ValueError),
    ("sweep", 15, lambda out: [0.0] * 5, TypeError),
    ("sweep", 10, lambda p: p.reshape(5, 1), ValueError),
    ("sweep", 11, lambda q: np.float64(0.0), ValueError),
    ("sweep", 12, lambda v_init: np.ones((1, 5)), ValueError),
    ("dual_step", 0, lambda mu: mu[:-1], ValueError),  # not twice v's length
    ("dual_step", 7, lambda P_L: P_L.astype(np.float32), TypeError),
    ("dual_step", 8, noncontiguous, ValueError),
    ("dual_step", 9, lambda slack: "1.0", TypeError),
    ("step_norms", 1, lambda z: z[:-1], ValueError),
    ("step_norms", 3, lambda mu: mu[:-1], ValueError),
    ("step_norms", 2, lambda mu: mu.astype(np.int64), TypeError),
    ("flat_signals", 1, lambda n: -1, ValueError),
    ("flat_signals", 3, lambda lam: None, TypeError),
    ("bind_feeder", 0, lambda result: list, TypeError),  # a type with fields
    ("bind_feeder", 0, lambda result: (), TypeError),
    ("bind_feeder", 1, lambda order: np.array([1, 0, 2], dtype=np.intc), ValueError),
    ("bind_feeder", 1, lambda order: np.array([0, 0, 2], dtype=np.intc), ValueError),
    ("bind_feeder", 2, lambda parent: np.array([-1, 2, 1], dtype=np.intc), ValueError),
    ("bind_feeder", 2, lambda parent: np.array([-1, 0, 3], dtype=np.intc), IndexError),
    ("bind_feeder", 8, lambda v0: "1.0", TypeError),
    ("bind_feeder", 0, lambda result: None, TypeError),  # a plain tuple is no result type
    ("agent_step", 0, list, TypeError),
    ("agent_step", 0, lambda coords: (1, 14), IndexError),  # 2 n + G coordinates
    ("agent_step", 0, lambda coords: (-1,), IndexError),
    ("agent_step", 0, lambda coords: (1.0,), TypeError),
    ("agent_step", 0, lambda coords: (np.intp(1),), TypeError),
    ("agent_step", 1, lambda z: z.astype(np.float32), TypeError),
    ("agent_step", 2, lambda eps: "5e-4", TypeError),
    ("agent_step", 4, noncontiguous, ValueError),
    ("agent_step", 5, lambda lo: lo[:-1], ValueError),
    ("agent_step", 5, lambda lo: lo.astype(np.float32), TypeError),
    ("agent_step", 6, lambda hi: hi.tolist(), TypeError),
    ("file_reports", 0, tuple, TypeError),
    ("file_reports", 2, lambda slots: list(slots.items()), TypeError),
    ("file_reports", 3, lambda n: -1, ValueError),
    # a sweep's vectors span the network (5), not the feeder (3) or more
    ("sweep", 10, lambda p: np.zeros(3), ValueError),
    ("sweep", 11, lambda q: np.zeros(3), ValueError),
    ("sweep", 12, lambda v_init: np.ones(3), ValueError),
    ("sweep", 15, lambda out: np.empty(3), ValueError),
    ("sweep", 10, lambda p: np.zeros(6), ValueError),
    ("sweep", 11, lambda q: np.zeros(6), ValueError),
    ("sweep", 12, lambda v_init: np.ones(6), ValueError),
    ("sweep", 15, lambda out: np.empty(6), ValueError),
    ("bind_feeder", 9, lambda start: 3, ValueError),  # nodes 3 to 6 of 5
    ("bind_feeder", 9, lambda start: -1, ValueError),
    ("bind_feeder", 10, lambda n_network: 2, ValueError),
    ("bind_feeder", 10, lambda n_network: 5.0, TypeError),
    ("flat_signals", 5, lambda starts: np.array([1, 3], dtype=np.intp), ValueError),
    ("flat_signals", 5, lambda starts: np.array([0, 7], dtype=np.intp), ValueError),
    ("flat_signals", 5, lambda starts: np.array([0, 4, 2], dtype=np.intp), ValueError),
    ("flat_signals", 5, lambda starts: np.array([], dtype=np.intp), ValueError),
    ("flat_signals", 5, lambda starts: starts.astype(np.int32), TypeError),
]


@pytest.mark.parametrize(
    "name, at, spoil, error", SPOILT, ids=[f"{s[0]}-{k}" for k, s in enumerate(SPOILT)]
)
def test_kernels_refuse_arguments_that_do_not_fit(kernels, name, at, spoil, error):
    args = valid_calls()[name]
    entry(kernels, name)(*args)  # the unspoilt call works
    args[at] = spoil(args[at])
    with pytest.raises(error):
        entry(kernels, name)(*args)


@pytest.mark.parametrize("name", sorted(valid_calls()))
def test_kernels_refuse_a_wrong_argument_count(kernels, name):
    args = valid_calls()[name]
    with pytest.raises(TypeError, match="arguments"):
        entry(kernels, name)(*args[:-1])


@pytest.mark.parametrize(
    "shared", ["p", "q", "v_init", "v_init-shifted", "v_init-itself", "p-outside-span"]
)
def test_sweep_refuses_an_out_that_overlaps_its_inputs(kernels, shared):
    # the voltages are never written over the injections or the warm
    # start, the warm start itself included, nor over part of either,
    # even where neither entry is the feeder's (nodes 1 to 4 of 5)
    args = valid_calls()["sweep"]
    buffer = np.ones(9)
    at = {"p": 10, "q": 11, "p-outside-span": 10}.get(shared, 12)
    args[at] = buffer[:5]
    args[15] = {"v_init-shifted": buffer[1:6], "p-outside-span": buffer[4:]}.get(
        shared, buffer[:5]
    )
    if shared == "v_init-itself":
        args[15] = args[at]
    with pytest.raises(ValueError, match="out overlaps"):
        entry(kernels, "sweep")(*args)
    assert buffer.tolist() == [1.0] * 9


def test_record_row_refuses_a_read_only_row(kernels):
    args = valid_calls()["record_row"]
    args[0].flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        kernels.record_row(*args)


def test_format_rows_refuses_a_buffer_too_small(kernels):
    cells = np.ones((3, 2))
    iterations = np.arange(3, dtype=np.int64)
    out = np.empty(3 * trace._row_bytes(2) - 1, dtype=np.uint8)
    table = trace._schubfach_table()
    with pytest.raises(ValueError, match="cannot hold"):
        kernels.format_rows(iterations, cells, table, out)
    with pytest.raises(ValueError):
        kernels.format_rows(iterations[:2], cells, table, out)
    with pytest.raises(TypeError):
        kernels.format_rows(iterations, cells.astype(np.float32), table, out)


# ---------------------------------------------------------------------------
# no compiler: the numpy and Python paths write the same bytes
# ---------------------------------------------------------------------------

RUN = """
import json, sys
from pathlib import Path
from tdcoopt.scenario import load_scenario, run_scenario
for path, overrides, out in json.loads(sys.argv[1]):
    run_scenario(load_scenario(path, overrides), out)
"""


def short_scenario(tmp_path, name, rounds, event_at):
    """A shipped scenario cut to ``rounds`` rounds, its events at ``event_at``."""
    source = SCENARIOS_DIR / f"{name}.json"
    raw = json.loads(source.read_text())
    raw["transmission"] = str(source.parent / raw["transmission"])
    for entry in raw.get("feeders", []):
        entry["case"] = str(source.parent / entry["case"])
    raw["config"]["max_iter"] = rounds
    for event in raw.get("events", []):
        event["iteration"] = event_at
    path = tmp_path / f"short-{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_runs_without_a_compiler_write_the_same_bytes(kernels, tmp_path):
    default = short_scenario(tmp_path, "default", 400, 150)
    runs = [
        (default, {"engine": "core", "feedback": "ac"}),
        (default, {"engine": "market", "feedback": "ac"}),
        (default, {"engine": "market", "feedback": "linear"}),
        (short_scenario(tmp_path, "dispatch9", 300, 100),
         {"engine": "market", "feedback": "linear"}),
    ]
    outputs = {}
    for label in ("compiled", "fallback"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        if label == "fallback":
            cache = tmp_path / "empty-cache"
            cache.mkdir(mode=0o700)
            no_cc = tmp_path / "no-cc"
            no_cc.mkdir()
            env.update(PATH=str(no_cc), XDG_CACHE_HOME=str(cache))
        jobs = [(path, overrides, str(tmp_path / label / str(k)))
                for k, (path, overrides) in enumerate(runs)]
        done = subprocess.run(
            [sys.executable, "-c", RUN, json.dumps(jobs)], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        if label == "fallback":
            assert done.stderr.count("using the Python sweep and trace formatter") == 1
            assert not list(cache.rglob("*.so"))
        outputs[label] = {
            path.relative_to(tmp_path / label): path.read_bytes()
            for path in sorted((tmp_path / label).rglob("*")) if path.is_file()
        }
    assert len(outputs["compiled"]) == 8  # a trace and a summary per run
    assert outputs["fallback"] == outputs["compiled"]


@pytest.mark.parametrize("engine", ["core", "market"])
def test_patching_the_library_runs_every_reference_in_process(kernels, tmp_path, engine):
    # _native.library is the one switch: patched to return None after a
    # native run has loaded every kernel, a run on a freshly built problem
    # binds no model, writes every trace row by trace._row, and writes the
    # native run's bytes; a market run's recording bus journals the native
    # run's messages
    sc = load_scenario(short_scenario(tmp_path, "default", 60, 30),
                       {"engine": engine, "feedback": "ac"})
    buses = [MessageBus(record=True), MessageBus(record=True)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "run_market", functools.partial(run_market, bus=buses[0]))
        native = run_scenario(sc, tmp_path / "native")
    built, rows = [], []
    row = trace._row

    def building(system, limits):
        built.append(core.build_problem(system, limits))
        return built[-1]

    def spied(iteration, cells):
        rows.append(iteration)
        return row(iteration, cells)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "library", lambda: None)
        patch.setattr(scenario, "build_problem", building)
        patch.setattr(trace, "_row", spied)
        patch.setattr(scenario, "run_market", functools.partial(run_market, bus=buses[1]))
        reference = run_scenario(sc, tmp_path / "reference")
    assert len(built) == 1
    assert not any("_bound" in vars(model) for model in built[0].models)
    assert rows == list(range(len(reference.result.records)))
    assert len(rows) > 1
    for ran, kept in zip((reference.trace_path, reference.summary_path),
                         (native.trace_path, native.summary_path)):
        assert ran.read_bytes() == kept.read_bytes()
    native_journal, reference_journal = (
        json.dumps([m.to_jsonable() for m in bus.journal]) for bus in buses
    )
    assert reference_journal == native_journal
    assert (len(buses[0].journal) > 0) == (engine == "market")
