"""Exact feeder power flow.

The case33bw regression pins the solver against the published solution of
that feeder (minimum voltage 0.9131 p.u., total loss 202.68 kW at the
nominal load): agreement there validates the whole sweep arithmetic on a
realistic 33-node system.  The remaining tests check fixed-point and
conservation identities that hold exactly regardless of the data.
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import math
import os
import pickle
import re
import shutil
import stat
import subprocess
import sys
import time
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tdcoopt import _native, acpf
from tdcoopt.acpf import SweepDivergence, sweep_feeder
from tdcoopt.lindistflow import build_lindistflow
from tdcoopt.network import DistributionFeeder, FeederLine, FeederNode, parse_case
from tdcoopt.scenario import load_scenario

from conftest import CASES_DIR, SCENARIOS_DIR, make_chain_feeder


def load_feeder(name: str):
    return parse_case((CASES_DIR / f"{name}.json").read_text())


def recompute_branch_mismatch(model, p, q, result) -> float:
    """Max violation of the exact branch-flow equations at a sweep solution.

    Rebuilding branch flows and voltages from ``result.v`` must reproduce
    them at a fixed point of the sweep.
    """
    order = model.order.tolist()
    parent = model.parent.tolist()
    r, x = model.r.tolist(), model.x.tolist()
    n = model.n_nodes
    v = result.v
    P_recv = -(model.p0 + p)
    Q_recv = -(model.q0 + q)
    P_send = np.zeros(n)
    Q_send = np.zeros(n)
    ell = np.zeros(n)
    for j in order[::-1]:
        ell[j] = (P_recv[j] ** 2 + Q_recv[j] ** 2) / (v[j] * v[j])
        P_send[j] = P_recv[j] + r[j] * ell[j]
        Q_send[j] = Q_recv[j] + x[j] * ell[j]
        if parent[j] >= 0:
            P_recv[parent[j]] += P_send[j]
            Q_recv[parent[j]] += Q_send[j]
    mismatch = 0.0
    for j in order:
        pj = parent[j]
        u_up = model.v0 ** 2 if pj < 0 else v[pj] ** 2
        u_j = (
            u_up
            - 2.0 * (r[j] * P_send[j] + x[j] * Q_send[j])
            + (r[j] ** 2 + x[j] ** 2) * ell[j]
        )
        mismatch = max(mismatch, abs(math.sqrt(max(u_j, 0.0)) - v[j]))
    return mismatch


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


SHIPPED_FEEDERS = ["case33bw", "feeder4", "feeder18", "feeder22", "feeder42sce",
                   "feeder69", "feeder85", "feeder141"]


@pytest.mark.parametrize("name", SHIPPED_FEEDERS)
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
# compiled kernel against the Python reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel():
    # with a compiler on PATH, falling back to the Python sweep is a failure
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: sweep_feeder runs the Python sweep")
    library = _native.library()
    assert library is not None, "cc is on PATH but the compiled sweep did not load"
    return library


def outcome(sweep, model, p, q, tol=1e-8, max_iter=100, v_init=None):
    """Everything a sweep returns or raises, floats as their bytes."""
    try:
        res = sweep(model, p, q, tol, max_iter, v_init)
    except (SweepDivergence, ZeroDivisionError) as exc:
        residual = getattr(exc, "residual", None)
        return (type(exc), str(exc), getattr(exc, "iterations", None),
                None if residual is None else np.float64(residual).tobytes())
    scalars = np.array([res.P_L, res.Q_L, res.loss, res.residual])
    return res.v.tobytes(), scalars.tobytes(), res.iterations


def assert_kernel_matches_reference(model, p, q, **kwargs):
    fast = outcome(sweep_feeder, model, p, q, **kwargs)
    assert fast == outcome(acpf._sweep_python, model, p, q, **kwargs)
    return fast


def test_sweep_feeder_runs_the_kernel(kernel, monkeypatch):
    def reference(*args):
        raise AssertionError("sweep_feeder ran the Python sweep")

    monkeypatch.setattr(acpf, "_sweep_python", reference)
    model = build_lindistflow(load_feeder("case33bw"))
    zero = np.zeros(model.n_nodes)
    assert sweep_feeder(model, zero, zero).iterations > 0


@pytest.mark.parametrize("name", SHIPPED_FEEDERS)
def test_kernel_matches_reference_on_shipped_feeders(kernel, name):
    model = build_lindistflow(load_feeder(name))
    n = model.n_nodes
    rng = np.random.default_rng(sum(map(ord, name)))
    zero = np.zeros(n)
    cold = assert_kernel_matches_reference(model, zero, zero)
    assert cold[2] > 1
    for _ in range(3):
        p = rng.uniform(-2e-3, 2e-3, n)
        q = rng.uniform(-1e-3, 1e-3, n)
        solved = sweep_feeder(model, p, q, tol=1e-12)
        assert_kernel_matches_reference(model, p, q)
        assert_kernel_matches_reference(model, p, q, tol=1e-12)
        # warm starts: the solution itself, a nudged and a flat profile
        assert_kernel_matches_reference(model, p, q, v_init=solved.v)
        nudged = solved.v * rng.uniform(0.99, 1.01, n)
        assert_kernel_matches_reference(model, p, q, v_init=nudged)
        assert_kernel_matches_reference(model, p, q, v_init=np.ones(n))


@st.composite
def radial_feeders(draw):
    """A random tree: each node hangs off an earlier one or the substation."""
    n = draw(st.integers(min_value=1, max_value=25))
    ids = draw(st.permutations(range(2, n + 2)))
    impedance = st.floats(min_value=1e-4, max_value=0.05)
    heavy = draw(st.sampled_from([1.0, 30.0]))  # heavy feeders can collapse
    load = st.floats(min_value=-4e-2 * heavy, max_value=1e-2)
    nodes, lines = [], []
    for k, node_id in enumerate(ids):
        up = draw(st.integers(min_value=-1, max_value=k - 1))
        parent = 1 if up < 0 else ids[up]
        lines.append(FeederLine(parent, node_id, draw(impedance), draw(impedance)))
        nodes.append(FeederNode(node_id, draw(load), draw(load)))
    order = draw(st.permutations(range(n)))
    return DistributionFeeder(
        feeder_id="drawn", host_bus_id=None, base_mva=100.0, substation_id=1,
        v0=draw(st.floats(min_value=0.95, max_value=1.05)),
        nodes=tuple(nodes[k] for k in order),
        lines=tuple(lines[k] for k in order),
    )


@settings(deadline=None, max_examples=150)
@given(
    feeder=radial_feeders(),
    data=st.data(),
    max_iter=st.sampled_from([1, 3, 100]),
    warm=st.booleans(),
)
def test_kernel_matches_reference_on_drawn_feeders(kernel, feeder, data, max_iter, warm):
    # converged, collapsed and exhausted sweeps alike
    model = build_lindistflow(feeder)
    n = model.n_nodes
    vectors = st.lists(st.floats(min_value=-2e-2, max_value=2e-2), min_size=n, max_size=n)
    p = np.array(data.draw(vectors))
    q = np.array(data.draw(vectors))
    v_init = None
    if warm:
        v_init = np.array(data.draw(st.lists(
            st.floats(min_value=0.5, max_value=1.2), min_size=n, max_size=n)))
    assert_kernel_matches_reference(model, p, q, max_iter=max_iter, v_init=v_init)


def test_kernel_matches_reference_on_collapse(kernel):
    feeder = make_chain_feeder(n_nodes=3, load=2e-3, r=0.02)
    heavy = dataclasses.replace(
        feeder,
        nodes=tuple(
            dataclasses.replace(n, p_load=n.p_load * 5000) for n in feeder.nodes
        ),
    )
    zero = np.zeros(3)
    kind, message, iterations, residual = assert_kernel_matches_reference(
        build_lindistflow(heavy), zero, zero
    )
    assert kind is SweepDivergence and "voltage collapse at node" in message
    assert iterations >= 1 and residual == np.float64(math.inf).tobytes()


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_kernel_matches_reference_when_iterations_run_out(kernel, max_iter):
    model = build_lindistflow(load_feeder("case33bw"))
    zero = np.zeros(model.n_nodes)
    kind, message, iterations, _ = assert_kernel_matches_reference(
        model, zero, zero, tol=1e-15, max_iter=max_iter
    )
    assert kind is SweepDivergence and "did not converge" in message
    assert iterations == max_iter


@pytest.mark.parametrize("where", [0, -1])
def test_kernel_matches_reference_on_a_zero_warm_start(kernel, where):
    model = build_lindistflow(load_feeder("feeder18"))
    v_init = np.ones(model.n_nodes)
    v_init[model.order[where]] = 0.0
    zero = np.zeros(model.n_nodes)
    kind, message, _, _ = assert_kernel_matches_reference(
        model, zero, zero, v_init=v_init
    )
    assert kind is ZeroDivisionError
    with pytest.raises(ZeroDivisionError):
        sweep_feeder(model, zero, zero, v_init=v_init)


def test_kernel_workspace_is_exact_across_interleaved_models(kernel):
    # each model owns its workspace: alternating two models, and sweeping
    # one model twice in a row, gives the reference bits every time
    models = [build_lindistflow(load_feeder(name)) for name in ("feeder69", "feeder141")]
    rng = np.random.default_rng(11)
    for _ in range(3):
        for model in models + models[::-1]:
            n = model.n_nodes
            p = rng.uniform(-2e-3, 2e-3, n)
            q = rng.uniform(-1e-3, 1e-3, n)
            assert_kernel_matches_reference(model, p, q)
            assert_kernel_matches_reference(model, p, q, v_init=np.ones(n))


def test_kernel_result_owns_its_voltages(kernel):
    model = build_lindistflow(load_feeder("case33bw"))
    n = model.n_nodes
    zero = np.zeros(n)
    v_init = np.ones(n)
    first = sweep_feeder(model, zero, zero, v_init=v_init)
    kept = first.v.tobytes()
    assert not np.shares_memory(first.v, v_init)
    assert v_init.tolist() == [1.0] * n  # the warm start is copied, not swept
    later = sweep_feeder(model, np.full(n, 1e-3), zero)
    assert later.v.tobytes() != kept
    assert first.v.tobytes() == kept
    assert not np.shares_memory(first.v, later.v)


# ---------------------------------------------------------------------------
# the sweep into the caller's array (out=), compiled and in Python
# ---------------------------------------------------------------------------

@pytest.fixture(params=["compiled", "fallback"])
def sweep_path(request, monkeypatch):
    """sweep_feeder running the kernel, or the Python sweep in its place."""
    if request.param == "compiled":
        request.getfixturevalue("kernel")
    else:
        monkeypatch.setattr(_native, "library", lambda: None)
    return request.param


def into_a_new_array(model, p, q, tol, max_iter, v_init):
    out = np.full(model.n_nodes, math.nan)
    res = sweep_feeder(model, p, q, tol, max_iter, v_init, out=out)
    assert res.v is out
    return res


def assert_out_matches_reference(model, p, q, **kwargs):
    """Into a new array, sweep_feeder gives the bits (or the error) of the
    call without ``out`` and of the Python sweep, and leaves ``v_init`` as
    it was."""
    v_init = kwargs.get("v_init")
    kept = None if v_init is None else v_init.tobytes()
    reference = outcome(acpf._sweep_python, model, p, q, **kwargs)
    for sweep in (sweep_feeder, into_a_new_array):
        assert outcome(sweep, model, p, q, **kwargs) == reference, sweep.__name__
    assert kept is None or v_init.tobytes() == kept


@pytest.mark.parametrize("name", SHIPPED_FEEDERS)
def test_out_matches_reference_on_shipped_feeders(sweep_path, name):
    model = build_lindistflow(load_feeder(name))
    n = model.n_nodes
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    zero = np.zeros(n)
    assert_out_matches_reference(model, zero, zero)
    for _ in range(2):
        p = rng.uniform(-2e-3, 2e-3, n)
        q = rng.uniform(-1e-3, 1e-3, n)
        assert_out_matches_reference(model, p, q)
        warm = sweep_feeder(model, p, q).v * rng.uniform(0.99, 1.01, n)
        assert_out_matches_reference(model, p, q, v_init=warm)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    feeder=radial_feeders(),
    data=st.data(),
    max_iter=st.sampled_from([1, 3, 100]),
    warm=st.booleans(),
)
def test_out_matches_reference_on_drawn_feeders(sweep_path, feeder, data, max_iter, warm):
    # converged, collapsed and exhausted sweeps alike
    model = build_lindistflow(feeder)
    n = model.n_nodes
    vectors = st.lists(st.floats(min_value=-2e-2, max_value=2e-2), min_size=n, max_size=n)
    p = np.array(data.draw(vectors))
    q = np.array(data.draw(vectors))
    v_init = None
    if warm:
        v_init = np.array(data.draw(st.lists(
            st.floats(min_value=0.5, max_value=1.2), min_size=n, max_size=n)))
    assert_out_matches_reference(model, p, q, max_iter=max_iter, v_init=v_init)


def test_out_refusals_are_the_same_on_both_paths(sweep_path):
    model = build_lindistflow(load_feeder("feeder4"))
    n = model.n_nodes
    p, q = np.zeros(n), np.zeros(n)
    shared = np.ones(n + 1)
    v_init = shared[:n]
    read_only = np.empty(n)
    read_only.flags.writeable = False
    spread = np.empty(2 * n)
    refused = [
        (np.empty(n + 1), ValueError, f"out has length {n + 1}, not {n}"),
        (read_only, ValueError, "out must be writeable"),
        (np.empty(n, dtype=np.float32), TypeError, "out must have dtype"),
        (spread[::2], ValueError, "out must be C-contiguous and aligned"),
        (np.empty((1, n)), ValueError, "out must have 1 dimension"),
        (list(range(n)), TypeError, "out must be a numpy array"),
        (p, ValueError, "out overlaps p"),
        (q, ValueError, "out overlaps q"),
        (shared[1:], ValueError, "out overlaps v_init"),
        (v_init, ValueError, "out overlaps v_init"),  # the warm start itself
    ]
    for out, error, message in refused:
        with pytest.raises(error, match=message):
            sweep_feeder(model, p, q, v_init=v_init, out=out)
    assert (p.tolist(), q.tolist(), shared.tolist()) == ([0.0] * n, [0.0] * n,
                                                          [1.0] * (n + 1))


@pytest.mark.parametrize("name", ["p", "q", "v_init"])
def test_input_refusals_are_the_same_on_both_paths(sweep_path, name):
    # a vector of the wrong shape is refused before the sweep, its
    # dimension checked before its length
    model = build_lindistflow(load_feeder("feeder4"))
    n = model.n_nodes
    refused = [
        (np.zeros((n, 1)), "must have 1 dimension"),
        (np.zeros((1, n)), "must have 1 dimension"),
        (np.zeros((n + 1, 1)), "must have 1 dimension"),
        (np.float64(0.0), "must have 1 dimension"),
        ([[1.0]] * n, "must have 1 dimension"),
        (np.ones(n + 1), f"must have length {n}"),
    ]
    for bad, message in refused:
        args = {"p": np.zeros(n), "q": np.zeros(n), "v_init": np.ones(n), name: bad}
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            sweep_feeder(model, args["p"], args["q"], v_init=args["v_init"])


@pytest.mark.parametrize("how", ["deepcopy", "copy", "pickle"])
def test_kernel_copied_model_binds_its_own_buffers(kernel, how):
    model = build_lindistflow(load_feeder("feeder22"))
    n = model.n_nodes
    zero = np.zeros(n)
    sweep_feeder(model, zero, zero)  # bind the original first
    twin = {
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
        "pickle": lambda m: pickle.loads(pickle.dumps(m)),
    }[how](model)
    if how != "copy":  # a shallow copy shares the read-only arrays
        for name in ("order", "parent", "roots", "r", "x", "p0", "q0"):
            assert not np.shares_memory(getattr(model, name), getattr(twin, name)), name
    p = np.full(n, 5e-4)
    assert outcome(sweep_feeder, twin, p, zero) == outcome(
        acpf._sweep_python, model, p, zero
    )


def test_kernel_is_exact_after_each_failure(kernel):
    # a failed sweep leaves the workspace half written; the next call must
    # not depend on it
    model = build_lindistflow(load_feeder("feeder18"))
    n = model.n_nodes
    zero = np.zeros(n)
    p = np.full(n, 1e-3)
    zero_start = np.ones(n)
    zero_start[model.order[-1]] = 0.0
    failures = [
        (SweepDivergence, dict(p=np.full(n, -5.0))),  # collapse
        (SweepDivergence, dict(tol=1e-15, max_iter=2)),  # not converged
        (ZeroDivisionError, dict(v_init=zero_start)),
    ]
    for error, kwargs in failures:
        with pytest.raises(error):
            sweep_feeder(model, kwargs.pop("p", p), zero, **kwargs)
        assert_kernel_matches_reference(model, p, zero)
        assert_kernel_matches_reference(model, p, zero, v_init=np.ones(n))


# ---------------------------------------------------------------------------
# each model's binding: its tree checked and copied once, at its first sweep
# ---------------------------------------------------------------------------

def test_a_model_is_bound_at_its_first_sweep_and_copies_are_not(kernel):
    model = build_lindistflow(load_feeder("feeder18"))
    assert "_bound" not in vars(model)  # building compiles no binding
    zero = np.zeros(model.n_nodes)
    sweep_feeder(model, zero, zero)
    bound = vars(model)["_bound"]
    sweep_feeder(model, zero, zero, v_init=np.ones(model.n_nodes))
    assert vars(model)["_bound"] is bound  # bound once
    for twin in (copy.copy(model), copy.deepcopy(model),
                 pickle.loads(pickle.dumps(model)),
                 dataclasses.replace(model, feeder_id="twin")):
        assert "_bound" not in vars(twin)


@settings(deadline=None, max_examples=60)
@given(feeder=radial_feeders(), data=st.data())
def test_a_bound_model_sweeps_as_the_reference_call_after_call(kernel, feeder, data):
    # one binding, swept again and again: warm and flat starts, into a new
    # array or a given one, converged, collapsed
    # (the node named) and out of iterations (the residual given)
    model = build_lindistflow(feeder)
    n = model.n_nodes
    vectors = st.lists(st.floats(min_value=-2e-2, max_value=2e-2), min_size=n, max_size=n)
    starts = st.lists(st.floats(min_value=0.5, max_value=1.2), min_size=n, max_size=n)
    for _ in range(data.draw(st.integers(2, 5))):
        p = np.array(data.draw(vectors))
        q = np.array(data.draw(vectors))
        v_init = np.array(data.draw(starts)) if data.draw(st.booleans()) else None
        max_iter = data.draw(st.sampled_from([1, 3, 100]))
        into = data.draw(st.sampled_from([None, "new"]))
        reference = outcome(acpf._sweep_python, model, p, q, 1e-8, max_iter, v_init)

        def bound(model, p, q, tol, max_iter, v_init):
            out = None if into is None else np.empty(n)
            res = sweep_feeder(model, p, q, tol, max_iter, v_init, out=out)
            assert out is None or res.v is out
            return res

        assert outcome(bound, model, p, q, 1e-8, max_iter, v_init) == reference
        if reference[0] is SweepDivergence and "collapse" in reference[1]:
            assert "at node" in reference[1]
    assert "_bound" in vars(model)


@pytest.mark.parametrize("spoil, message", [
    (lambda order: order[::-1], "comes before its parent"),
    (lambda order: np.concatenate([order[:1], order[:-1]]), "repeats a node"),
])
def test_binding_refuses_an_order_that_is_not_parents_first(sweep_path, spoil, message):
    # the kernel binds only a tree whose order it can sweep without
    # reading scratch it has not written; the Python sweep refuses the same
    model = build_lindistflow(load_feeder("feeder4"))
    order = np.ascontiguousarray(spoil(model.order), dtype=np.intc)
    order.flags.writeable = False
    bad = dataclasses.replace(model, order=order)
    zero = np.zeros(model.n_nodes)
    with pytest.raises(ValueError, match=rf"^order\[\d+\] = \d+ {message}"):
        sweep_feeder(bad, zero, zero)
    assert "_bound" not in vars(bad)


# ---------------------------------------------------------------------------
# a feeder at its span of a network: its sweeps take the network's vectors
# and read and write only the feeder's entries of them
# ---------------------------------------------------------------------------

# each path called directly: the kernel (with the ``kernels`` fixture) and
# the Python sweep
SWEEPS = {"compiled": sweep_feeder, "python": acpf._sweep_python}


@st.composite
def networks(draw):
    """One to three drawn feeders, placed one after another: the feeders,
    their offsets and the network's node count."""
    feeders = draw(st.lists(radial_feeders(), min_size=1, max_size=3))
    offsets = np.cumsum([0] + [f.n_nodes for f in feeders]).tolist()
    return feeders, offsets[:-1], offsets[-1]


@settings(deadline=None, max_examples=60)
@given(
    network=networks(),
    data=st.data(),
    max_iter=st.sampled_from([1, 3, 100]),
    warm=st.booleans(),
    into=st.booleans(),
)
def test_a_feeder_sweeps_its_span_as_it_sweeps_alone(
    kernels, network, data, max_iter, warm, into
):
    # converged, collapsed and exhausted sweeps alike, cold and warm, into
    # the network's out or a new array: the bits (or the error) of the
    # feeder compiled alone and swept on copies of its entries, the inputs
    # left as they are and no entry of out outside the span written
    feeders, offsets, N = network
    vectors = st.lists(st.floats(min_value=-2e-2, max_value=2e-2), min_size=N, max_size=N)
    p = np.array(data.draw(vectors))
    q = np.array(data.draw(vectors))
    v_init = None
    if warm:
        v_init = np.array(data.draw(st.lists(
            st.floats(min_value=0.5, max_value=1.2), min_size=N, max_size=N)))
    inputs = [a.tobytes() for a in (p, q, v_init) if a is not None]
    for path, sweep in SWEEPS.items():
        out = np.arange(N) - 0.5 if into else None
        for feeder, offset in zip(feeders, offsets):
            model = build_lindistflow(feeder, offset, N)
            alone = build_lindistflow(feeder)
            sl, n = model.span, model.n_nodes

            def at_span(model, p, q, tol, max_iter, v_init):
                res = sweep(model, p, q, tol, max_iter, v_init, out)
                assert out is None or np.shares_memory(res.v, out[sl])
                return res

            def on_copies(model, p, q, tol, max_iter, v_init):
                own = np.empty(n) if into else None
                return sweep(model, p.copy(), q.copy(), tol, max_iter,
                             None if v_init is None else v_init.copy(), own)

            kept = None if out is None else np.delete(out, np.r_[sl]).tobytes()
            got = outcome(at_span, model, p, q, 1e-8, max_iter, v_init)
            expected = outcome(on_copies, alone, p[sl], q[sl], 1e-8, max_iter,
                               None if v_init is None else v_init[sl])
            assert got == expected, (path, offset)
            assert kept is None or np.delete(out, np.r_[sl]).tobytes() == kept
        assert [a.tobytes() for a in (p, q, v_init) if a is not None] == inputs


@pytest.mark.parametrize("path", sorted(SWEEPS))
def test_a_feeder_at_its_span_refuses_vectors_of_another_length(kernels, path):
    # feeder4 at nodes 2 to 6 of a network of 9: each vector must span the
    # network, never the feeder alone, and out may share no memory with an
    # input, not even outside the span
    sweep = SWEEPS[path]
    model = build_lindistflow(load_feeder("feeder4"), 2, 9)
    n, N = model.n_nodes, 9
    p, q, v_init = np.zeros(N), np.zeros(N), np.ones(N)
    buffer = np.ones(2 * N)
    refused = [
        (dict(p=np.zeros(n)), f"p must have length {N}"),
        (dict(q=np.zeros(N + 1)), f"q must have length {N}"),
        (dict(v_init=np.ones(n)), f"v_init must have length {N}"),
        (dict(out=np.empty(n)), f"out has length {n}, not {N}"),
        (dict(out=np.empty(N + 1)), f"out has length {N + 1}, not {N}"),
        (dict(out=p), "out overlaps p"),
        (dict(q=buffer[:N], out=buffer[N - 1 : 2 * N - 1]), "out overlaps q"),
        (dict(v_init=buffer[1 : N + 1], out=buffer[:N]), "out overlaps v_init"),
    ]
    for spoilt, message in refused:
        args = dict(p=p, q=q, v_init=v_init, out=np.empty(N)) | spoilt
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            sweep(model, args["p"], args["q"], 1e-8, 100, args["v_init"], args["out"])
    assert (p.tolist(), q.tolist(), buffer.tolist()) == ([0.0] * N, [0.0] * N,
                                                         [1.0] * (2 * N))


@pytest.mark.parametrize("path", sorted(SWEEPS))
def test_a_feeder_outside_its_network_is_refused(kernels, path):
    feeder = load_feeder("feeder4")
    n = feeder.n_nodes
    message = f"nodes 2 to {n + 2} lie outside a network of {n + 1} nodes"
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_lindistflow(feeder, 2, n + 1)
    bad = dataclasses.replace(build_lindistflow(feeder, 2, n + 2), n_network=n + 1)
    zero = np.zeros(n + 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SWEEPS[path](bad, zero, zero, 1e-8, 100, None)
    assert "_bound" not in vars(bad)


@pytest.mark.parametrize("path", sorted(SWEEPS))
@pytest.mark.parametrize("spoilt", ["p", "v_init"])
def test_a_sweep_that_meets_a_nan_never_converges(kernels, path, spoilt):
    # a NaN voltage change would lose every comparison with the residual,
    # so the sweep once stopped after a few passes with NaN voltages
    feeder = load_scenario(SCENARIOS_DIR / "default.json").system.feeders[0]
    model = build_lindistflow(feeder)
    n = model.n_nodes
    vectors = {"p": np.zeros(n), "q": np.zeros(n), "v_init": np.ones(n)}
    vectors[spoilt][n // 2] = math.nan
    with pytest.raises(SweepDivergence, match=(
        r"^sweep did not converge within 100 iterations \(last voltage change nan\)$"
    )) as exc:
        SWEEPS[path](model, vectors["p"], vectors["q"], 1e-8, 100, vectors["v_init"])
    assert exc.value.iterations == 100 and math.isnan(exc.value.residual)


# ---------------------------------------------------------------------------
# building and caching the compiled library (``_native``, shared with the
# trace formatter)
# ---------------------------------------------------------------------------

def test_kernel_is_cached_under_xdg_cache_home(kernel, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    directory = _native._cache_dir()
    assert directory == tmp_path / "tdcoopt"
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    cc = shutil.which("cc")
    library = _native._build_kernel(cc, directory)
    key = library.with_suffix(".key")
    assert library.parent == directory and library.name.startswith("kernels-")
    # no temporaries: the library and the copy of its key
    assert sorted(p.name for p in directory.iterdir()) == [key.name, library.name]
    # one key over the sources and the header, each named and sized, then
    # the flags, the interpreter's extension ABI and numpy's version
    expected = b""
    for source in _native._SOURCES + _native._HEADERS:
        text = source.read_bytes()
        expected += f"{source.name} {len(text)}\n".encode() + text
    expected += " ".join(_native._BUILD + _native._LIBS).encode()
    expected += f"\n{EXTENSION_SUFFIXES[0]} numpy {np.__version__}".encode()
    assert [s.name for s in _native._SOURCES + _native._HEADERS] == [
        "_kernels.c", "_sweep.c", "_format.c", "_round.c", "_kernels.h",
    ]
    assert key.read_bytes() == expected
    built = library.stat().st_mtime_ns
    assert _native._build_kernel(cc, directory) == library
    assert library.stat().st_mtime_ns == built


def seed_cache(directory):
    """A copy, in ``directory``, of the library and key the ``kernel``
    fixture left in the cache, under the same stem: the library a build
    into ``directory`` would find there."""
    cached = _native._build_kernel(shutil.which("cc"), _native._cache_dir())
    library = directory / cached.name
    shutil.copyfile(cached, library)
    shutil.copyfile(cached.with_suffix(".key"), library.with_suffix(".key"))
    return library


@pytest.mark.parametrize("stale", ["other-key", "truncated-key", "no-key"])
def test_kernel_with_a_stale_key_is_rebuilt(kernel, tmp_path, stale):
    # a name shared with another source (CRC-32 collides) or a half-written
    # cache must never be loaded
    cc = shutil.which("cc")
    library = seed_cache(tmp_path)
    key = library.with_suffix(".key")
    expected = key.read_bytes()
    library.write_bytes(b"not the kernel")
    if stale == "other-key":
        key.write_bytes(bytes(b ^ 1 for b in expected))
    elif stale == "truncated-key":
        key.write_bytes(expected[:-1])
    else:
        key.unlink()
    assert _native._build_kernel(cc, tmp_path) == library
    assert library.read_bytes()[:4] == b"\x7fELF"
    assert key.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == [key.name, library.name]


def test_kernel_cached_for_another_abi_is_rebuilt(kernel, tmp_path, monkeypatch):
    # the library links against the interpreter and numpy's C API: one
    # whose stored key names another ABI or numpy must never be loaded
    cc = shutil.which("cc")
    library = seed_cache(tmp_path)
    key = library.with_suffix(".key")
    expected = key.read_bytes()
    assert EXTENSION_SUFFIXES[0].encode() in expected
    assert f"numpy {np.__version__}".encode() in expected
    foreign = []
    for owner, name, value in [
        (_native, "EXTENSION_SUFFIXES", [".cpython-39-x86_64-linux-gnu.so"]),
        (_native.np, "__version__", "1.26.4"),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, value)
            foreign.append(_native._key())
    assert expected not in foreign
    # another interpreter's build, found under this key's name (as after a
    # CRC-32 collision): compared with its stored key, then rebuilt
    library.write_bytes(b"built for another interpreter")
    key.write_bytes(foreign[0])
    assert _native._build_kernel(cc, tmp_path) == library
    assert library.read_bytes()[:4] == b"\x7fELF"
    assert key.read_bytes() == expected


def test_kernel_build_keeps_only_the_newest_libraries(kernel, tmp_path):
    # libraries of older sources would otherwise stay in the cache for good;
    # files of other names, such as the ``sweep-`` libraries of versions
    # that held the sweep alone, are not this build's to remove
    cc = shutil.which("cc")
    hour_ago = time.time_ns() - 3600 * 10**9

    def leave(name, age, key=True):
        # a library (and its key) of another source, ``age`` seconds older
        mtime = hour_ago - age * 10**9
        for suffix in (".so", ".key") if key else (".so",):
            path = tmp_path / f"{name}{suffix}"
            path.write_bytes(b"old")
            os.utime(path, ns=(mtime, mtime))

    leave("kernels-00000000-1", 0)
    leave("kernels-00000001-1", 1)
    leave("sweep-00000001-1", 1)
    leave("kernels-" + "ab" * 32, 2, key=False)  # key-less
    leave("kernels-00000002-1", 3)
    leave("kernels-00000003-1", 4)
    leave("sweep-00000003-1", 4)
    leave("sweep-" + "ab" * 32, 5, key=False)
    locked = tmp_path / "kernels-locked.so"
    locked.mkdir()  # the oldest, and it cannot be unlinked: skipped
    os.utime(locked, ns=(hour_ago - 9 * 10**9, hour_ago - 9 * 10**9))
    (tmp_path / ".kernels-inflight.so").write_bytes(b"")  # another build's temporary
    (tmp_path / "other.so").write_bytes(b"")  # not a library of this package
    library = _native._build_kernel(cc, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
        library.name, library.with_suffix(".key").name,
        "kernels-00000000-1.so", "kernels-00000000-1.key",
        "kernels-00000001-1.so", "kernels-00000001-1.key",
        "kernels-" + "ab" * 32 + ".so", "kernels-locked.so",
        "sweep-00000001-1.so", "sweep-00000001-1.key",
        "sweep-00000003-1.so", "sweep-00000003-1.key", "sweep-" + "ab" * 32 + ".so",
        ".kernels-inflight.so", "other.so",
    ])
    # a cache hit removes nothing
    leave("kernels-00000004-1", 5)
    assert _native._build_kernel(cc, tmp_path) == library
    assert (tmp_path / "kernels-00000004-1.so").exists()
    assert (tmp_path / "kernels-00000004-1.key").exists()


FRESH_RUNS = {
    "an AC sweep": (
        "import numpy as np\n"
        "from tdcoopt.acpf import sweep_feeder\n"
        "from tdcoopt.lindistflow import build_lindistflow\n"
        "from tdcoopt.network import parse_case\n"
        f"feeder = parse_case(open({str(CASES_DIR / 'feeder4.json')!r}).read())\n"
        "model = build_lindistflow(feeder)\n"
        "zero = np.zeros(model.n_nodes)\n"
        "assert sweep_feeder(model, zero, zero).iterations > 0\n"
    ),
    # a linear run never sweeps: its round and its trace write load the library
    "a linear run writing its trace": (
        "import tempfile\n"
        "from tdcoopt import _native\n"
        "from tdcoopt.scenario import load_scenario, run_scenario\n"
        f"sc = load_scenario({str(SCENARIOS_DIR / 'dispatch9.json')!r},\n"
        "                   {'feedback': 'linear', 'max_iter': 200})\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    run_scenario(sc, out)\n"
        "assert _native.library.cache_info().currsize == 1\n"
        "assert _native.library() is not None\n"
    ),
}


def test_ac_sweep_with_a_cached_kernel_imports_neither_hashlib_nor_subprocess(kernel):
    # hashlib loads OpenSSL, ~3.5 MB resident in every run; each fresh
    # process below finds the library cached by the ``kernel`` fixture
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for what, code in FRESH_RUNS.items():
        code = "import sys\n" + code + (
            "print(sorted({'hashlib', '_hashlib', 'subprocess'} & set(sys.modules)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, (what, done.stderr)
        assert done.stdout.strip() == "[]", what


def test_set_up_neither_builds_nor_loads_the_library(tmp_path):
    # the library is built at the first sweep or trace write, so set-up
    # time never includes a compile
    code = (
        "from tdcoopt import _native, core\n"
        "from tdcoopt.scenario import load_scenario\n"
        f"sc = load_scenario({str(SCENARIOS_DIR / 'full39.json')!r})\n"
        "problem = core.build_problem(sc.system, sc.limits)\n"
        "core.check_stepsize(problem, sc.config.eta)\n"
        "print(_native.library.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               XDG_CACHE_HOME=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
    assert not (tmp_path / "tdcoopt").exists()


def test_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _native._cache_dir() == tmp_path / ".cache" / "tdcoopt"


@pytest.mark.parametrize("kind", ["shared", "symlink"])
def test_cache_dir_must_be_private(tmp_path, monkeypatch, kind):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if kind == "shared":
        (tmp_path / "tdcoopt").mkdir()
        os.chmod(tmp_path / "tdcoopt", 0o777)
    else:
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        (tmp_path / "tdcoopt").symlink_to(tmp_path / "elsewhere")
    with pytest.raises(PermissionError, match="not a private directory"):
        _native._cache_dir()


@pytest.mark.parametrize("failure", ["no-compiler", "shared-cache", "bad-build"])
def test_kernel_falls_back_with_one_logged_line(tmp_path, monkeypatch, caplog, failure):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if failure == "no-compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    elif failure == "shared-cache":
        (tmp_path / "tdcoopt").mkdir()
        os.chmod(tmp_path / "tdcoopt", 0o777)
    else:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(_native, "_SOURCES", (_native._SOURCES[0], broken))
    with caplog.at_level(logging.WARNING, logger="tdcoopt._native"):
        assert _native.library.__wrapped__() is None
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert "using the Python sweep and trace formatter" in message
    if failure == "no-compiler":
        assert not (tmp_path / "tdcoopt").exists()
    assert not list(tmp_path.glob("tdcoopt/*.so"))

