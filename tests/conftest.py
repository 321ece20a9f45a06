"""Shared builders for small test systems."""

from __future__ import annotations

import copy
import dataclasses
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import tdcoopt
from tdcoopt import _native
from tdcoopt.core import (
    PrimalState,
    SolverConfig,
    build_problem,
    check_stepsize,
)
from tdcoopt.lindistflow import build_lindistflow, predict
from tdcoopt.network import (
    Bus,
    CoupledSystem,
    Der,
    DistributionFeeder,
    FeederLine,
    FeederNode,
    Generator,
    TransmissionSystem,
    VoltageLimits,
    attach_feeders,
)
from tdcoopt.scenario import Scenario

PACKAGE_DIR = Path(tdcoopt.__file__).parent
CASES_DIR = PACKAGE_DIR / "cases"
SCENARIOS_DIR = PACKAGE_DIR / "scenarios"


def make_chain_feeder(
    feeder_id: str = "chain",
    n_nodes: int = 3,
    der_nodes: dict | None = None,
    load: float = 2e-3,
    r: float = 0.02,
    x: float = 0.012,
    host_bus: int | None = None,
    v0: float = 1.0,
) -> DistributionFeeder:
    """Substation 1 feeding a chain of ``n_nodes`` loaded nodes (ids 2..)."""
    der_nodes = der_nodes or {}
    nodes = tuple(
        FeederNode(id=i, p_load=-load, q_load=-load * 0.5)
        for i in range(2, n_nodes + 2)
    )
    lines = tuple(
        FeederLine(parent=i - 1, child=i, r=r, x=x)
        for i in range(2, n_nodes + 2)
    )
    ders = tuple(
        Der(
            node_id=nid,
            a_p=spec.get("a_p", 1.0),
            a_q=spec.get("a_q", 0.1),
            p_min=spec.get("p_min", 0.0),
            p_max=spec.get("p_max", 0.05),
            q_min=spec.get("q_min", -0.02),
            q_max=spec.get("q_max", 0.02),
        )
        for nid, spec in sorted(der_nodes.items())
    )
    return DistributionFeeder(
        feeder_id=feeder_id,
        host_bus_id=host_bus,
        base_mva=100.0,
        substation_id=1,
        v0=v0,
        nodes=nodes,
        lines=lines,
        ders=ders,
    )


def make_ts(
    gen_specs: list[tuple[int, float]] | None = None,
    load_bus: int = 5,
    load: float = 2.0,
    slack_bus: int = 9,
    extra_buses: tuple[int, ...] = (),
) -> TransmissionSystem:
    """Generators from (bus, cost) pairs plus one load bus and a slack."""
    gen_specs = gen_specs if gen_specs is not None else [(1, 1.0)]
    bus_ids = sorted(
        {b for b, _ in gen_specs} | {load_bus, slack_bus} | set(extra_buses)
    )
    buses = tuple(
        Bus(id=i, p0=-load if i == load_bus else 0.0) for i in bus_ids
    )
    gens = tuple(
        Generator(bus_id=b, cost_coefficient=c, p_min=0.0, p_max=10.0)
        for b, c in gen_specs
    )
    lines = tuple((bus_ids[i], bus_ids[i + 1]) for i in range(len(bus_ids) - 1))
    return TransmissionSystem(
        name="test-ts",
        base_mva=100.0,
        buses=buses,
        lines=lines,
        generators=gens,
        slack_bus_id=slack_bus,
    )


def make_system(
    n_feeders: int = 2,
    gen_specs: list[tuple[int, float]] | None = None,
    load: float = 2.0,
    der_layout: dict | None = None,
    n_feeder_nodes: int = 3,
) -> CoupledSystem:
    """A transmission system with ``n_feeders`` chain feeders attached."""
    gen_specs = gen_specs if gen_specs is not None else [(1, 1.0), (2, 1.5)]
    host_buses = [5, 6, 7][:n_feeders]
    ts = make_ts(
        gen_specs,
        load_bus=5,
        load=load,
        slack_bus=9,
        extra_buses=tuple(host_buses),
    )
    if der_layout is None:
        der_layout = {n_feeder_nodes + 1: {}, n_feeder_nodes: {}}
    feeders = [
        make_chain_feeder(
            feeder_id=f"f{k}",
            n_nodes=n_feeder_nodes,
            der_nodes={
                nid: spec for nid, spec in der_layout.items()
                if nid <= n_feeder_nodes + 1
            },
            host_bus=host_buses[k],
        )
        for k in range(n_feeders)
    ]
    return attach_feeders(ts, feeders)


def _fork_feeder(rng: np.random.Generator, der_nodes: dict, load: float,
                 host_bus: int) -> DistributionFeeder:
    """Trunk node 2 with sibling leaves 3 and 4, per-line impedance jitter.

    The forked shape keeps the voltage rows of different nodes linearly
    independent on the free variables, so a binding limit pins a unique
    multiplier instead of a drifting ray.
    """
    nodes = tuple(
        FeederNode(id=i, p_load=-load, q_load=-load * 0.5) for i in (2, 3, 4)
    )
    parents = {2: 1, 3: 2, 4: 2}
    lines = tuple(
        FeederLine(parent=parents[i], child=i, r=r_i,
                   x=r_i * rng.uniform(0.4, 0.9))
        for i, r_i in zip((2, 3, 4), rng.uniform(0.3, 0.7, size=3))
    )
    ders = tuple(
        Der(node_id=nid, **spec) for nid, spec in sorted(der_nodes.items())
    )
    return DistributionFeeder(
        feeder_id="rf",
        host_bus_id=host_bus,
        base_mva=100.0,
        substation_id=1,
        v0=1.0,
        nodes=nodes,
        lines=lines,
        ders=ders,
    )


def random_small_instance(seed: int) -> Scenario:
    """Acceptance criterion 4's instance ``seed`` (of 0-19): at most four
    free variables; roughly half get a binding voltage cap.

    The cap sits a fixed fraction below the corner voltage (full active
    injection, full reactive absorption), which guarantees a few mp.u. of
    violable overshoot: the binding multiplier then charges at a usable
    rate instead of creeping for millions of iterations.
    """
    rng = np.random.default_rng(seed)
    load = rng.uniform(0.15, 0.45)
    der_kwargs = dict(
        a_p=rng.uniform(0.5, 2.0),
        a_q=rng.uniform(0.05, 0.3),
        p_min=0.0,
        p_max=rng.uniform(0.006, 0.02),
    )
    qcap = rng.uniform(0.001, 0.004)
    if seed % 2 == 0:
        gens = [(1, rng.uniform(0.4, 1.2)), (2, rng.uniform(0.4, 1.2))]
        ders = {4: dict(der_kwargs, q_min=-qcap, q_max=qcap)}
    else:
        gens = [(1, rng.uniform(0.4, 1.2))]
        ders = {
            4: dict(der_kwargs, q_min=-qcap, q_max=qcap),
            3: dict(a_p=rng.uniform(0.5, 2.0), a_q=1.0, p_min=0.0,
                    p_max=rng.uniform(0.006, 0.02), q_min=0.0, q_max=0.0),
        }
    feeder = _fork_feeder(rng, ders, rng.uniform(5e-4, 2e-3), host_bus=7)
    ts = make_ts(gens, load_bus=5, load=load, slack_bus=9, extra_buses=(7,))
    ts = dataclasses.replace(
        ts,
        generators=tuple(
            dataclasses.replace(g, p_max=load + 1.0) for g in ts.generators
        ),
    )
    system = attach_feeders(ts, [feeder])
    model = build_lindistflow(system.feeders[0])

    u = rng.uniform()
    theta = rng.uniform(0.4, 0.75)
    wide = build_problem(system, VoltageLimits(0.9, 2.0))
    v_zero, _ = predict(model, np.zeros(3), np.zeros(3))
    n = wide.n_nodes
    v_corner, _ = predict(model, wide.hi[:n], wide.lo[n : 2 * n])
    span = float(v_corner.max() - v_zero.max())
    if u < 0.5 and span > 8e-3:
        v_max = float(v_corner.max() - theta * span)
    else:
        v_max = 1.05
    limits = VoltageLimits(0.9, v_max)

    problem = build_problem(system, limits)
    eps = 0.9 * check_stepsize(problem, 0.0).eps_bound
    cfg = SolverConfig(
        eps=eps,
        eta=0.0,
        max_iter=150_000,
        tol=1e-8,
    )
    return Scenario(
        name=f"oracle-rand-{seed}",
        system=system,
        limits=limits,
        config=cfg,
        engine="core",
        events=(),
        init_mode="setpoint",
        P0_slack=0.0,
    )


# one JSON value of each kind a reader can meet, NaN, ±Infinity and an
# integer too large for a float included
ANY_JSON = (None, True, "1", [], [1], {}, 1.5, -1, 10**400, math.nan, math.inf, -math.inf)


def key_paths(raw, prefix=()):
    """Every key path into the JSON data ``raw``, into the first two items
    of each array."""
    items = raw.items() if isinstance(raw, dict) else enumerate(raw[:2])
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


def set_path(raw, path, value):
    """``raw`` with the field at ``path`` set to ``value`` (a deep copy)."""
    raw = copy.deepcopy(raw)
    *keys, last = path
    target = raw
    for key in keys:
        target = target[key]
    target[last] = value
    return raw


def primal(p, q, P_M) -> PrimalState:
    """The primal state ``z = [p, q, P_M]`` from its three blocks."""
    return PrimalState(np.concatenate([p, q, P_M]), len(p))


@pytest.fixture
def limits() -> VoltageLimits:
    return VoltageLimits(v_min=0.95, v_max=1.05)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def kernels():
    """The extension module; skips the test where no ``cc`` is on PATH."""
    # with a compiler on PATH, falling back to numpy is a failure
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the round runs its numpy reference")
    kernels = _native.library()
    assert kernels is not None, "cc is on PATH but the extension module did not load"
    return kernels
