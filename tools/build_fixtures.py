#!/usr/bin/env python3
"""Regenerate the packaged case fixtures under ``src/tdcoopt/cases/``.

Running this script is deterministic: it rewrites every case file from
the data tables and the seeded generator below, then re-verifies each
feeder against its expected power-flow signature (printed at the end).
Provenance notes live in ``src/tdcoopt/cases/MANIFEST.md``.

Usage::

    python3 tools/build_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tdcoopt.acpf import sweep_feeder  # noqa: E402
from tdcoopt.lindistflow import build_lindistflow, predict  # noqa: E402
from tdcoopt.network import (  # noqa: E402
    Bus,
    Der,
    DistributionFeeder,
    FeederLine,
    FeederNode,
    Generator,
    TransmissionSystem,
    serialize_case,
)

CASES = ROOT / "src" / "tdcoopt" / "cases"

# ---------------------------------------------------------------------------
# transmission: New England 39-bus shape, dispatch scaled to ~5 p.u. total
# ---------------------------------------------------------------------------

# bus id -> load (MW, widely published pattern), divided by 10 below so the
# whole dispatch runs at a numerically mild ~520 MW scale
IEEE39_LOADS_MW = {
    3: 322.0, 4: 500.0, 7: 233.8, 8: 522.0, 12: 8.5, 15: 320.0, 16: 329.0,
    18: 158.0, 20: 680.0, 21: 274.0, 23: 247.5, 24: 308.6, 25: 224.0,
    26: 139.0, 27: 281.0, 28: 206.0, 29: 283.5, 31: 9.2, 39: 1104.0,
}

IEEE39_LINES = [
    (1, 2), (1, 39), (2, 3), (2, 25), (2, 30), (3, 4), (3, 18), (4, 5),
    (4, 14), (5, 6), (5, 8), (6, 7), (6, 11), (6, 31), (7, 8), (8, 9),
    (9, 39), (10, 11), (10, 13), (10, 32), (12, 11), (12, 13), (13, 14),
    (14, 15), (15, 16), (16, 17), (16, 19), (16, 21), (16, 24), (17, 18),
    (17, 27), (19, 20), (19, 33), (20, 34), (21, 22), (22, 23), (22, 35),
    (23, 24), (23, 36), (25, 26), (25, 37), (26, 27), (26, 28), (26, 29),
    (28, 29), (29, 38),
]

# generator bus -> (cost coefficient, initial setpoint p.u., p_max p.u.)
IEEE39_GENERATORS = {
    30: (1.0, 0.250, 1.2),
    31: (1.5, 0.573, 1.2),
    32: (1.3, 0.650, 1.4),
    33: (1.7, 0.632, 1.3),
    34: (1.8, 0.508, 1.1),
    35: (1.0, 0.650, 1.4),
    36: (2.0, 0.560, 1.2),
    37: (0.8, 0.540, 1.1),
    38: (1.2, 0.830, 1.7),
}

LOAD_SCALE = 0.1  # MW -> p.u. on 100 MVA, then /10 to the benchmark scale


def build_gen9() -> TransmissionSystem:
    """Bare dispatch benchmark: 9 generators, one 3 p.u. load, no feeders."""
    coefs = [c for _, (c, _, _) in sorted(IEEE39_GENERATORS.items())]
    buses = tuple(
        [Bus(id=i, p0=0.0) for i in range(1, 10)]
        + [Bus(id=10, p0=-3.0), Bus(id=11, p0=0.0)]
    )
    lines = tuple((i, 10) for i in range(1, 10)) + ((10, 11),)
    gens = tuple(
        Generator(bus_id=i, cost_coefficient=coefs[i - 1], p_min=0.0,
                  p_max=2.0, setpoint_initial=0.0)
        for i in range(1, 10)
    )
    return TransmissionSystem(
        name="gen9",
        base_mva=100.0,
        buses=buses,
        lines=lines,
        generators=gens,
        slack_bus_id=11,
    )


def build_gen2() -> TransmissionSystem:
    """Two-generator micro system for oracle demonstrations."""
    buses = (
        Bus(id=1, p0=0.0), Bus(id=2, p0=0.0),
        Bus(id=3, p0=-1.2), Bus(id=4, p0=0.0),
    )
    gens = (
        Generator(bus_id=1, cost_coefficient=1.0, p_min=0.0, p_max=2.0),
        Generator(bus_id=2, cost_coefficient=1.5, p_min=0.0, p_max=2.0),
    )
    return TransmissionSystem(
        name="gen2",
        base_mva=100.0,
        buses=buses,
        lines=((1, 3), (2, 3), (3, 4)),
        generators=gens,
        slack_bus_id=4,
    )


def build_feeder4() -> DistributionFeeder:
    """Three-node chain feeder with a single DER at the end node."""
    z_base = CASE33_KV**2 / BASE_MVA
    nodes = (
        FeederNode(id=2, p_load=-0.0010, q_load=-0.0005),
        FeederNode(id=3, p_load=-0.0012, q_load=-0.0006),
        FeederNode(id=4, p_load=-0.0008, q_load=-0.0004),
    )
    lines = (
        FeederLine(parent=1, child=2, r=0.40 / z_base, x=0.25 / z_base),
        FeederLine(parent=2, child=3, r=0.50 / z_base, x=0.30 / z_base),
        FeederLine(parent=3, child=4, r=0.45 / z_base, x=0.28 / z_base),
    )
    ders = (
        Der(node_id=4, a_p=1.0, a_q=0.1, p_min=0.0, p_max=0.02,
            q_min=-0.01, q_max=0.01),
    )
    return DistributionFeeder(
        feeder_id="feeder4",
        host_bus_id=None,
        base_mva=BASE_MVA,
        substation_id=1,
        v0=1.0,
        nodes=nodes,
        lines=lines,
        ders=ders,
    )


def build_ieee39() -> TransmissionSystem:
    buses = tuple(
        Bus(id=i, p0=-IEEE39_LOADS_MW.get(i, 0.0) / 100.0 * LOAD_SCALE)
        for i in range(1, 40)
    )
    gens = tuple(
        Generator(
            bus_id=bus,
            cost_coefficient=c,
            p_min=0.0,
            p_max=p_max,
            setpoint_initial=setpoint,
        )
        for bus, (c, setpoint, p_max) in sorted(IEEE39_GENERATORS.items())
    )
    return TransmissionSystem(
        name="ieee39",
        base_mva=100.0,
        buses=buses,
        lines=tuple(IEEE39_LINES),
        generators=gens,
        slack_bus_id=39,
    )


# ---------------------------------------------------------------------------
# case33bw: published 33-node radial feeder (branch ohms, loads kW/kvar)
# ---------------------------------------------------------------------------

# (from, to, R ohm, X ohm); node loads follow in CASE33_LOADS
CASE33_BRANCHES = [
    (1, 2, 0.0922, 0.0470), (2, 3, 0.4930, 0.2511), (3, 4, 0.3660, 0.1864),
    (4, 5, 0.3811, 0.1941), (5, 6, 0.8190, 0.7070), (6, 7, 0.1872, 0.6188),
    (7, 8, 0.7114, 0.2351), (8, 9, 1.0300, 0.7400), (9, 10, 1.0440, 0.7400),
    (10, 11, 0.1966, 0.0650), (11, 12, 0.3744, 0.1238),
    (12, 13, 1.4680, 1.1550), (13, 14, 0.5416, 0.7129),
    (14, 15, 0.5910, 0.5260), (15, 16, 0.7463, 0.5450),
    (16, 17, 1.2890, 1.7210), (17, 18, 0.7320, 0.5740),
    (2, 19, 0.1640, 0.1565), (19, 20, 1.5042, 1.3554),
    (20, 21, 0.4095, 0.4784), (21, 22, 0.7089, 0.9373),
    (3, 23, 0.4512, 0.3083), (23, 24, 0.8980, 0.7091),
    (24, 25, 0.8960, 0.7011), (6, 26, 0.2030, 0.1034),
    (26, 27, 0.2842, 0.1447), (27, 28, 1.0590, 0.9337),
    (28, 29, 0.8042, 0.7006), (29, 30, 0.5075, 0.2585),
    (30, 31, 0.9744, 0.9630), (31, 32, 0.3105, 0.3619),
    (32, 33, 0.3410, 0.5302),
]

# node -> (P kW, Q kvar); totals 3715 kW / 2300 kvar
CASE33_LOADS = {
    2: (100, 60), 3: (90, 40), 4: (120, 80), 5: (60, 30), 6: (60, 20),
    7: (200, 100), 8: (200, 100), 9: (60, 20), 10: (60, 20), 11: (45, 30),
    12: (60, 35), 13: (60, 35), 14: (120, 80), 15: (60, 10), 16: (60, 20),
    17: (60, 20), 18: (90, 40), 19: (90, 40), 20: (90, 40), 21: (90, 40),
    22: (90, 40), 23: (90, 50), 24: (420, 200), 25: (420, 200), 26: (60, 25),
    27: (60, 25), 28: (60, 20), 29: (120, 70), 30: (200, 600), 31: (150, 70),
    32: (210, 100), 33: (60, 40),
}

CASE33_KV = 12.66
BASE_MVA = 100.0

# node -> (a_p, a_q, p_max, q_max); homogeneous costs, small symmetric boxes
CASE33_DERS = {
    6: (1.0, 0.1, 0.004, 0.004),
    12: (1.0, 0.1, 0.004, 0.004),
    15: (1.0, 0.1, 0.004, 0.004),
    18: (1.0, 0.1, 0.004, 0.004),
    25: (1.0, 0.1, 0.004, 0.004),
    29: (1.0, 0.1, 0.004, 0.004),
    31: (1.0, 0.1, 0.004, 0.004),
    33: (1.0, 0.1, 0.004, 0.004),
}


def build_case33bw() -> DistributionFeeder:
    z_base = CASE33_KV**2 / BASE_MVA  # ohm
    nodes = []  # the substation (id 1) is not a controllable node
    for nid in range(2, 34):
        p_kw, q_kvar = CASE33_LOADS[nid]
        nodes.append(
            FeederNode(id=nid, p_load=-p_kw / 1000.0 / BASE_MVA,
                       q_load=-q_kvar / 1000.0 / BASE_MVA)
        )
    lines = tuple(
        FeederLine(parent=u, child=v, r=r / z_base, x=x / z_base)
        for u, v, r, x in CASE33_BRANCHES
    )
    ders = tuple(
        Der(node_id=nid, a_p=a_p, a_q=a_q, p_min=0.0, p_max=p_max,
            q_min=-q_max, q_max=q_max)
        for nid, (a_p, a_q, p_max, q_max) in sorted(CASE33_DERS.items())
    )
    return DistributionFeeder(
        feeder_id="case33bw",
        host_bus_id=None,
        base_mva=BASE_MVA,
        substation_id=1,
        v0=1.0,
        nodes=tuple(nodes),
        lines=lines,
        ders=ders,
    )


# ---------------------------------------------------------------------------
# synthetic radial feeders (seeded; impedances rescaled to a target drop)
# ---------------------------------------------------------------------------

def synthetic_feeder(
    name: str,
    n_nodes: int,
    seed: int,
    target_drop: float,
    der_nodes: dict[int, tuple[float, float, float, float]],
    branch_prob: float = 0.25,
) -> DistributionFeeder:
    """A random radial feeder with loads in the tens-of-kW range.

    The topology is a trunk with side laterals; after generation every
    impedance is rescaled by one common factor so the exact power-flow
    voltage dip at nominal load equals ``target_drop``.
    """
    rng = np.random.default_rng(seed)
    parents = [None, None]  # 1-indexed; node 1 is the substation
    for nid in range(2, n_nodes + 1):
        if nid == 2 or rng.random() > branch_prob:
            parent = nid - 1  # extend the current trunk
        else:
            parent = int(rng.integers(1, nid - 1))  # start a lateral
        parents.append(parent)

    nodes = []  # the substation (id 1) is not a controllable node
    for nid in range(2, n_nodes + 1):
        p_kw = float(rng.uniform(30.0, 120.0))
        q_kvar = p_kw * float(rng.uniform(0.3, 0.6))
        nodes.append(
            FeederNode(id=nid, p_load=-p_kw / 1000.0 / BASE_MVA,
                       q_load=-q_kvar / 1000.0 / BASE_MVA)
        )
    lines = [
        FeederLine(
            parent=parents[nid],
            child=nid,
            r=float(rng.uniform(0.10, 0.60)) / (CASE33_KV**2 / BASE_MVA),
            x=float(rng.uniform(0.08, 0.45)) / (CASE33_KV**2 / BASE_MVA),
        )
        for nid in range(2, n_nodes + 1)
    ]

    feeder = DistributionFeeder(
        feeder_id=name,
        host_bus_id=None,
        base_mva=BASE_MVA,
        substation_id=1,
        v0=1.0,
        nodes=tuple(nodes),
        lines=tuple(lines),
        ders=(),
    )
    result = sweep_feeder(
        build_lindistflow(feeder),
        np.zeros(feeder.n_nodes),
        np.zeros(feeder.n_nodes),
    )
    drop = 1.0 - float(np.min(result.v))
    scale = target_drop / drop
    lines = tuple(
        FeederLine(parent=ln.parent, child=ln.child,
                   r=ln.r * scale, x=ln.x * scale)
        for ln in lines
    )
    ders = tuple(
        Der(node_id=nid, a_p=a_p, a_q=a_q, p_min=0.0, p_max=p_max,
            q_min=-q_max, q_max=q_max)
        for nid, (a_p, a_q, p_max, q_max) in sorted(der_nodes.items())
    )
    return DistributionFeeder(
        feeder_id=name,
        host_bus_id=None,
        base_mva=BASE_MVA,
        substation_id=1,
        v0=1.0,
        nodes=tuple(nodes),
        lines=lines,
        ders=ders,
    )


SYNTHETIC = {
    # name: (nodes, seed, target drop, DER nodes)
    "feeder18": (18, 11, 0.040, {
        9: (1.0, 0.1, 0.003, 0.003),
        13: (1.0, 0.1, 0.003, 0.003),
        16: (1.0, 0.1, 0.003, 0.003),
        18: (1.0, 0.1, 0.003, 0.003),
    }),
    "feeder22": (22, 22, 0.045, {
        11: (1.0, 0.1, 0.003, 0.003),
        17: (1.0, 0.1, 0.003, 0.003),
        22: (1.0, 0.1, 0.003, 0.003),
    }),
    "feeder42sce": (42, 42, 0.050, {
        14: (1.0, 0.1, 0.003, 0.003),
        23: (1.0, 0.1, 0.003, 0.003),
        31: (1.0, 0.1, 0.003, 0.003),
        42: (1.0, 0.1, 0.003, 0.003),
    }),
    "feeder69": (69, 69, 0.055, {
        27: (1.0, 0.1, 0.003, 0.003),
        45: (1.0, 0.1, 0.003, 0.003),
        61: (1.0, 0.1, 0.003, 0.003),
        69: (1.0, 0.1, 0.003, 0.003),
    }),
    "feeder85": (85, 85, 0.055, {
        31: (1.0, 0.1, 0.003, 0.003),
        52: (1.0, 0.1, 0.003, 0.003),
        70: (1.0, 0.1, 0.003, 0.003),
        85: (1.0, 0.1, 0.003, 0.003),
    }),
    "feeder141": (141, 141, 0.060, {
        40: (1.0, 0.1, 0.003, 0.003),
        77: (1.0, 0.1, 0.003, 0.003),
        104: (1.0, 0.1, 0.003, 0.003),
        128: (1.0, 0.1, 0.003, 0.003),
        141: (1.0, 0.1, 0.003, 0.003),
    }),
}


def verify_feeder(feeder: DistributionFeeder) -> str:
    n = feeder.n_nodes
    zero = np.zeros(n)
    model = build_lindistflow(feeder)
    ac = sweep_feeder(model, zero, zero)
    v_lin, _ = predict(model, zero, zero)
    err_full = float(np.max(np.abs(v_lin - ac.v)))

    half = DistributionFeeder(
        feeder_id=feeder.feeder_id,
        host_bus_id=feeder.host_bus_id,
        base_mva=feeder.base_mva,
        substation_id=feeder.substation_id,
        v0=feeder.v0,
        nodes=tuple(
            FeederNode(id=nd.id, p_load=nd.p_load / 2, q_load=nd.q_load / 2)
            for nd in feeder.nodes
        ),
        lines=feeder.lines,
        ders=feeder.ders,
    )
    model_half = build_lindistflow(half)
    ac_half = sweep_feeder(model_half, zero, zero)
    v_lin_half, _ = predict(model_half, zero, zero)
    err_half = float(np.max(np.abs(v_lin_half - ac_half.v)))
    ratio = err_full / err_half if err_half > 0 else float("inf")

    return (
        f"{feeder.feeder_id:11s} n={n:3d} vmin={float(np.min(ac.v)):.4f} "
        f"loss={ac.loss * 1e5:8.2f} kW  lin-err={err_full:.2e} "
        f"(half-load ratio {ratio:.2f}x)"
    )


def main() -> None:
    CASES.mkdir(parents=True, exist_ok=True)
    ts = build_ieee39()
    (CASES / "ieee39.json").write_text(serialize_case(ts) + "\n")
    total_load = -sum(b.p0 for b in ts.buses)
    total_set = sum(g.setpoint_initial for g in ts.generators)
    print(
        f"ieee39      buses=39 generators={len(ts.generators)} "
        f"load={total_load:.3f} p.u. setpoints={total_set:.3f} p.u."
    )

    gen9 = build_gen9()
    (CASES / "gen9.json").write_text(serialize_case(gen9) + "\n")
    print(f"gen9        buses=11 generators={len(gen9.generators)} load=3.000 p.u.")
    gen2 = build_gen2()
    (CASES / "gen2.json").write_text(serialize_case(gen2) + "\n")
    print(f"gen2        buses=4  generators={len(gen2.generators)} load=1.200 p.u.")

    feeders = [build_case33bw(), build_feeder4()]
    for name, (n, seed, drop, ders) in SYNTHETIC.items():
        feeders.append(synthetic_feeder(name, n, seed, drop, ders))
    for feeder in feeders:
        (CASES / f"{feeder.feeder_id}.json").write_text(
            serialize_case(feeder) + "\n"
        )
        print(verify_feeder(feeder))


if __name__ == "__main__":
    main()
