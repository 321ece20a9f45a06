"""Case model, parsing, validation, rebasing, and feeder attachment."""

from __future__ import annotations

import dataclasses
import json

import pytest

from conftest import CASES_DIR, make_chain_feeder, make_ts
from tdcoopt.network import (
    Bus,
    CaseError,
    Der,
    DistributionFeeder,
    FeederLine,
    FeederNode,
    Generator,
    TransmissionSystem,
    attach_feeders,
    feeder_topology,
    parse_case,
    rebase_feeder,
    serialize_case,
    validate_feeder,
    validate_transmission,
)


def all_case_files():
    return sorted(CASES_DIR.glob("*.json"))


@pytest.mark.parametrize("path", all_case_files(), ids=lambda p: p.stem)
def test_shipped_cases_parse_and_round_trip(path):
    model = parse_case(path.read_text())
    again = parse_case(serialize_case(model))
    assert again == model


def test_parse_rejects_syntax_errors_with_location():
    with pytest.raises(CaseError, match="line"):
        parse_case('{"kind": "feeder",}')


def test_parse_rejects_unknown_kind():
    with pytest.raises(CaseError, match="unknown case kind"):
        parse_case('{"kind": "substation"}')


def test_parse_rejects_missing_fields():
    with pytest.raises(CaseError, match="missing or malformed"):
        parse_case('{"kind": "transmission", "buses": []}')


def test_transmission_validation_duplicate_bus():
    ts = TransmissionSystem(
        name="t",
        base_mva=100.0,
        buses=(Bus(id=1), Bus(id=1)),
        lines=(),
        generators=(Generator(bus_id=1, cost_coefficient=1.0, p_min=0, p_max=1),),
        slack_bus_id=1,
    )
    with pytest.raises(CaseError, match="duplicate bus"):
        validate_transmission(ts)


def test_transmission_validation_unknown_slack():
    ts = TransmissionSystem(
        name="t",
        base_mva=100.0,
        buses=(Bus(id=1),),
        lines=(),
        generators=(Generator(bus_id=1, cost_coefficient=1.0, p_min=0, p_max=1),),
        slack_bus_id=99,
    )
    with pytest.raises(CaseError, match="slack"):
        validate_transmission(ts)


def test_transmission_validation_generator_box():
    ts = make_ts([(1, 1.0)])
    bad = dataclasses.replace(
        ts,
        generators=(
            Generator(bus_id=1, cost_coefficient=1.0, p_min=2.0, p_max=1.0),
        ),
    )
    with pytest.raises(CaseError, match="p_min"):
        validate_transmission(bad)


def test_feeder_validation_cycle():
    feeder = DistributionFeeder(
        feeder_id="cyc",
        host_bus_id=None,
        base_mva=100.0,
        substation_id=1,
        v0=1.0,
        nodes=(FeederNode(id=2), FeederNode(id=3)),
        lines=(
            FeederLine(parent=1, child=2, r=0.01, x=0.01),
            FeederLine(parent=2, child=3, r=0.01, x=0.01),
            FeederLine(parent=3, child=2, r=0.01, x=0.01),
        ),
    )
    with pytest.raises(CaseError):
        validate_feeder(feeder)


def test_feeder_validation_disconnected_node():
    feeder = DistributionFeeder(
        feeder_id="disc",
        host_bus_id=None,
        base_mva=100.0,
        substation_id=1,
        v0=1.0,
        nodes=(FeederNode(id=2), FeederNode(id=3)),
        lines=(FeederLine(parent=1, child=2, r=0.01, x=0.01),),
    )
    with pytest.raises(CaseError, match="non-radial"):
        validate_feeder(feeder)


def test_feeder_validation_nonpositive_resistance():
    feeder = DistributionFeeder(
        feeder_id="bad-r",
        host_bus_id=None,
        base_mva=100.0,
        substation_id=1,
        v0=1.0,
        nodes=(FeederNode(id=2),),
        lines=(FeederLine(parent=1, child=2, r=0.0, x=0.01),),
    )
    with pytest.raises(CaseError, match="resistance"):
        validate_feeder(feeder)


def test_feeder_validation_der_at_unknown_node():
    feeder = make_chain_feeder(n_nodes=2)
    bad = dataclasses.replace(
        feeder,
        ders=(
            Der(node_id=77, a_p=1.0, a_q=0.1, p_min=0, p_max=1,
                q_min=-1, q_max=1),
        ),
    )
    with pytest.raises(CaseError, match="77"):
        validate_feeder(bad)


def test_der_box_scales_with_capacity():
    der = Der(node_id=2, a_p=1.0, a_q=0.1, p_min=0.0, p_max=0.05,
              q_min=-0.02, q_max=0.02)
    assert der.box() == (0.0, 0.05, -0.02, 0.02)
    doubled = dataclasses.replace(der, capacity_scale=2.0)
    assert doubled.box() == (0.0, 0.10, -0.04, 0.04)


def test_rebase_feeder_scales_impedance_and_power():
    feeder = make_chain_feeder(n_nodes=2, load=0.004)
    rebased = rebase_feeder(feeder, 200.0)
    assert rebased.base_mva == 200.0
    # impedance in p.u. grows with the MVA base, power shrinks
    assert rebased.lines[0].r == pytest.approx(feeder.lines[0].r * 2.0)
    assert rebased.nodes[0].p_load == pytest.approx(feeder.nodes[0].p_load / 2.0)
    back = rebase_feeder(rebased, 100.0)
    assert back.lines[0].r == pytest.approx(feeder.lines[0].r)
    assert back.nodes[0].p_load == pytest.approx(feeder.nodes[0].p_load)
    # DER boxes follow the power scaling
    feeder_d = make_chain_feeder(n_nodes=2, der_nodes={3: {"p_max": 0.06}})
    re_d = rebase_feeder(feeder_d, 50.0)
    assert re_d.ders[0].p_max == pytest.approx(0.12)


def test_attach_feeders_rejects_unknown_host():
    ts = make_ts([(1, 1.0)])
    feeder = make_chain_feeder(host_bus=777)
    with pytest.raises(CaseError, match="777"):
        attach_feeders(ts, [feeder])


def test_attach_feeders_rejects_slack_host():
    ts = make_ts([(1, 1.0)], slack_bus=9)
    feeder = make_chain_feeder(host_bus=9)
    with pytest.raises(CaseError, match="slack"):
        attach_feeders(ts, [feeder])


def test_attach_feeders_rejects_missing_host():
    ts = make_ts([(1, 1.0)])
    feeder = make_chain_feeder(host_bus=None)
    with pytest.raises(CaseError, match="host"):
        attach_feeders(ts, [feeder])


def test_attach_feeders_rebases_to_system_base():
    ts = make_ts([(1, 1.0)])
    feeder = dataclasses.replace(
        make_chain_feeder(host_bus=5), base_mva=10.0
    )
    system = attach_feeders(ts, [feeder])
    assert system.feeders[0].base_mva == ts.base_mva
    assert system.feeders[0].lines[0].r == pytest.approx(0.02 * 10.0)


def test_coupled_system_slices_partition_nodes():
    ts = make_ts([(1, 1.0)], extra_buses=(5, 6))
    f1 = make_chain_feeder("a", n_nodes=3, host_bus=5)
    f2 = make_chain_feeder("b", n_nodes=4, host_bus=6)
    system = attach_feeders(ts, [f1, f2])
    assert system.n_total == 7
    assert system.offsets == (0, 3)
    assert system.global_index(1, 0) == 3


def test_feeder_topology_orders_parents_first():
    feeder = parse_case((CASES_DIR / "case33bw.json").read_text())
    topo = feeder_topology(feeder)
    seen = set()
    for pos in topo.order:
        parent = topo.parent[pos]
        if parent >= 0:
            assert parent in seen
        seen.add(pos)
    assert len(seen) == feeder.n_nodes


def test_duplicate_feeder_ids_rejected():
    ts = make_ts([(1, 1.0)], extra_buses=(5, 6))
    f1 = make_chain_feeder("same", host_bus=5)
    f2 = make_chain_feeder("same", host_bus=6)
    with pytest.raises(CaseError, match="same"):
        attach_feeders(ts, [f1, f2])


def test_serialized_case_is_valid_json_with_kind():
    raw = json.loads(serialize_case(make_chain_feeder()))
    assert raw["kind"] == "feeder"
    raw = json.loads(serialize_case(make_ts([(1, 1.0)])))
    assert raw["kind"] == "transmission"
