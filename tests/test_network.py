"""Case model, parsing, validation, rebasing, and feeder attachment."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

from conftest import (
    ANY_JSON, CASES_DIR, key_paths, make_chain_feeder, make_system, make_ts, set_path,
)
from tdcoopt import network
from tdcoopt.network import (
    Bus,
    CaseError,
    CoupledSystem,
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
)


def all_case_files():
    return sorted(CASES_DIR.glob("*.json"))


@pytest.mark.parametrize("path", all_case_files(), ids=lambda p: p.stem)
def test_shipped_cases_parse_and_round_trip(path):
    text = path.read_text()
    model = parse_case(text)
    again = parse_case(serialize_case(model))
    assert again == model
    # the field tables write the shipped files byte for byte
    assert serialize_case(model) + "\n" == text


def test_field_tables_follow_the_dataclass_fields():
    # a record is built by a positional call, so each table's rows must
    # name its dataclass's fields in order
    for cls, rows in network._FIELDS.items():
        assert [row[1] for row in rows] == [f.name for f in dataclasses.fields(cls)]


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
    with pytest.raises(CaseError, match="duplicate bus"):
        TransmissionSystem(
            name="t",
            base_mva=100.0,
            buses=(Bus(id=1), Bus(id=1)),
            lines=(),
            generators=(Generator(bus_id=1, cost_coefficient=1.0, p_min=0, p_max=1),),
            slack_bus_id=1,
        )


def test_transmission_validation_two_generators_on_one_bus():
    # generators are named by their bus (trace columns, summary, market
    # agents, outage events), so a second one on a bus is refused
    raw = json.loads((CASES_DIR / "gen9.json").read_text())
    first = next(g for g in raw["generators"] if g["bus"] == 1)
    raw["generators"].append(dict(first))
    with pytest.raises(CaseError, match="two generators on bus 1") as exc:
        parse_case(json.dumps(raw))
    assert exc.value.element == 1


def test_transmission_validation_unknown_slack():
    with pytest.raises(CaseError, match="slack"):
        TransmissionSystem(
            name="t",
            base_mva=100.0,
            buses=(Bus(id=1),),
            lines=(),
            generators=(Generator(bus_id=1, cost_coefficient=1.0, p_min=0, p_max=1),),
            slack_bus_id=99,
        )


def test_transmission_validation_generator_box():
    ts = make_ts([(1, 1.0)])
    # an unbounded box is allowed: the starting point handles it
    open_box = Generator(bus_id=1, cost_coefficient=1.0, p_min=-math.inf,
                         p_max=math.inf)
    assert dataclasses.replace(ts, generators=(open_box,)).generators == (open_box,)
    with pytest.raises(CaseError, match="p_min"):
        dataclasses.replace(
            ts,
            generators=(
                Generator(bus_id=1, cost_coefficient=1.0, p_min=2.0, p_max=1.0),
            ),
        )


def test_validation_rejects_nonpositive_costs():
    # the stepsize certificate needs every cost strongly convex, and
    # ``coef`` is zero exactly where no DER sits
    system = make_system(n_feeders=1)
    ts = system.transmission
    free = dataclasses.replace(ts.generators[1], cost_coefficient=0.0)
    with pytest.raises(CaseError, match="bus 2: cost coefficient") as exc:
        dataclasses.replace(ts, generators=(ts.generators[0], free))
    assert exc.value.element == 2

    feeder = system.feeders[0]
    bad = dataclasses.replace(feeder.ders[0], a_q=-1.0)
    with pytest.raises(CaseError, match="positive cost coefficients") as exc:
        dataclasses.replace(feeder, ders=(bad, *feeder.ders[1:]))
    assert exc.value.element == bad.node_id


def test_feeder_validation_cycle():
    with pytest.raises(CaseError):
        DistributionFeeder(
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


def test_feeder_validation_disconnected_node():
    with pytest.raises(CaseError, match="non-radial"):
        DistributionFeeder(
            feeder_id="disc",
            host_bus_id=None,
            base_mva=100.0,
            substation_id=1,
            v0=1.0,
            nodes=(FeederNode(id=2), FeederNode(id=3)),
            lines=(FeederLine(parent=1, child=2, r=0.01, x=0.01),),
        )


def test_feeder_validation_nonpositive_resistance():
    with pytest.raises(CaseError, match="resistance"):
        DistributionFeeder(
            feeder_id="bad-r",
            host_bus_id=None,
            base_mva=100.0,
            substation_id=1,
            v0=1.0,
            nodes=(FeederNode(id=2),),
            lines=(FeederLine(parent=1, child=2, r=0.0, x=0.01),),
        )


def test_feeder_validation_der_at_unknown_node():
    feeder = make_chain_feeder(n_nodes=2)
    with pytest.raises(CaseError, match="77"):
        dataclasses.replace(
            feeder,
            ders=(
                Der(node_id=77, a_p=1.0, a_q=0.1, p_min=0, p_max=1,
                    q_min=-1, q_max=1),
            ),
        )


def test_feeder_validation_two_ders_on_one_node():
    # one DER per node: the compiled problem has one p and one q entry
    # per node
    feeder = make_chain_feeder(der_nodes={3: {}}, host_bus=5)
    with pytest.raises(CaseError, match="two DERs on node 3") as exc:
        dataclasses.replace(feeder, ders=feeder.ders + feeder.ders)
    assert exc.value.element == 3

    raw = json.loads(serialize_case(feeder))
    raw["ders"].append(dict(raw["ders"][0]))
    with pytest.raises(CaseError, match="two DERs on node 3"):
        parse_case(json.dumps(raw))


def _ts_with(**changes):
    return dataclasses.replace(make_ts([(1, 1.0)]), **changes)


def _feeder_with(**changes):
    return dataclasses.replace(make_chain_feeder(der_nodes={3: {}}), **changes)


def _lines_with(pos, **changes):
    lines = list(make_chain_feeder().lines)
    lines[pos] = dataclasses.replace(lines[pos], **changes)
    return tuple(lines)


def _der_with(**changes):
    der = make_chain_feeder(der_nodes={3: {}}).ders[0]
    return (dataclasses.replace(der, **changes),)


# buses 1, 5 and 9 in a path, slack 9; a chain feeder is substation 1
# feeding nodes 2, 3 and 4 in a path
REFUSALS = {
    "bus-line": (lambda: _ts_with(lines=((1, 5), (5, 9), (1, 42))),
                 r"line \(1,42\): unknown bus 42"),
    "generator-bus": (lambda: _ts_with(generators=(
        Generator(bus_id=42, cost_coefficient=1.0, p_min=0, p_max=1),)),
        "generator at unknown bus 42"),
    "ts-base": (lambda: _ts_with(base_mva=0.0), "base_mva must be positive"),
    "ts-disconnected": (lambda: _ts_with(lines=((1, 5),)),
                        r"disconnected \(e.g. bus 9\)"),
    "node-twice": (lambda: _feeder_with(nodes=(FeederNode(2), FeederNode(2),
                                               FeederNode(4))),
                   "duplicate node id 2"),
    "substation-as-node": (lambda: _feeder_with(substation_id=2),
                           "substation id 2 reused as node"),
    "v0": (lambda: _feeder_with(v0=0.0), "substation voltage must be positive"),
    "feeder-base": (lambda: _feeder_with(base_mva=-1.0),
                    "base_mva must be positive"),
    "line-count": (lambda: _feeder_with(lines=make_chain_feeder().lines[:2]),
                   "non-radial, 2 lines for 3 nodes"),
    "line-child": (lambda: _feeder_with(lines=_lines_with(2, child=44)),
                   "line ends at unknown node 44"),
    "line-parent": (lambda: _feeder_with(lines=_lines_with(2, parent=33)),
                    "line from unknown node 33"),
    "two-parents": (lambda: _feeder_with(lines=_lines_with(2, child=3)),
                    "node 3 has two parents"),
    "substation-reactance": (lambda: _feeder_with(lines=_lines_with(0, x=0.0)),
                             r"substation line \(1,2\) has zero reactance"),
    "der-p-box": (lambda: _feeder_with(ders=_der_with(p_min=0.04, p_max=0.01)),
                  "node 3 has an empty box"),
    "der-q-box": (lambda: _feeder_with(ders=_der_with(q_min=0.1)),
                  "node 3 has an empty box"),
    "der-scale": (lambda: _feeder_with(ders=_der_with(capacity_scale=0.0)),
                  "node 3 has non-positive capacity scale"),
    "host-taken": (lambda: CoupledSystem(make_ts(extra_buses=(5,)), (
        make_chain_feeder("a", host_bus=5), make_chain_feeder("b", host_bus=5))),
        "feeder b: host bus 5 already hosts a feeder"),
    # attach_feeders rebases; a system built directly must already agree
    "feeder-mva-base": (lambda: CoupledSystem(make_ts(), (dataclasses.replace(
        make_chain_feeder("a", host_bus=5), base_mva=10.0),)),
        "feeder a: base_mva 10.0 differs from the transmission base 100.0"),
    "bus-p0-inf": (lambda: _ts_with(buses=(Bus(1), Bus(5, p0=-math.inf), Bus(9))),
                   "bus 5: non-finite injection p0"),
    "line-x-inf": (lambda: _feeder_with(lines=_lines_with(1, x=math.inf)),
                   r"non-finite impedance on line \(2,3\)"),
    "v0-inf": (lambda: _feeder_with(v0=math.inf),
               "substation voltage must be positive and finite"),
    "der-cost-inf": (lambda: _feeder_with(ders=_der_with(a_p=math.inf)),
                     "node 3 needs finite positive cost coefficients"),
    # an infinite scale times a zero box edge is a NaN edge
    "der-scale-inf": (lambda: _feeder_with(ders=_der_with(capacity_scale=math.inf)),
                      "node 3 has infinite capacity scale"),
    "generator-cost-inf": (lambda: _ts_with(generators=(
        Generator(bus_id=1, cost_coefficient=math.inf, p_min=0, p_max=1),)),
        "cost coefficient must be > 0 and finite"),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_construction_refuses(refusal):
    # every check runs when a case object is built, ``dataclasses.replace``
    # included, so building the invalid object raises at once
    build, match = REFUSALS[refusal]
    with pytest.raises(CaseError, match=match):
        build()


def test_feeder_on_another_base_is_refused_by_its_id():
    feeder = dataclasses.replace(make_chain_feeder("a", host_bus=5), base_mva=10.0)
    with pytest.raises(CaseError) as exc:
        CoupledSystem(make_ts(), (feeder,))
    assert exc.value.element == "a"
    assert attach_feeders(make_ts(), [feeder]).feeders[0].base_mva == 100.0


def _case_with(name, path, value):
    """The shipped case ``name`` as JSON text, one field set to ``value``."""
    raw = json.loads((CASES_DIR / name).read_text())
    *keys, last = path
    target = raw
    for key in keys:
        target = target[key]
    target[last] = value
    return json.dumps(raw)


@pytest.mark.parametrize(
    "name, path",
    [("gen9.json", ("base_mva",)),
     ("gen9.json", ("generators", 0, "cost")),
     ("gen9.json", ("generators", 0, "p_min")),
     ("gen9.json", ("generators", 0, "p_max")),
     ("case33bw.json", ("base_mva",)),
     ("case33bw.json", ("v0",)),
     ("case33bw.json", ("lines", 0, "r")),
     ("case33bw.json", ("lines", 0, "x")),
     ("case33bw.json", ("ders", 0, "a_p")),
     ("case33bw.json", ("ders", 0, "a_q")),
     ("case33bw.json", ("ders", 0, "p_max")),
     ("case33bw.json", ("ders", 0, "q_min")),
     ("case33bw.json", ("ders", 0, "capacity_scale")),
     # loads, injections and setpoints: a NaN here used to reach solve
     ("gen2.json", ("buses", 2, "p0")),
     ("gen9.json", ("generators", 0, "setpoint")),
     ("case33bw.json", ("nodes", 0, "p")),
     ("case33bw.json", ("nodes", 0, "q")),
     ("case33bw.json", ("lines", 1, "x"))],
    ids=lambda v: v.removesuffix(".json") if isinstance(v, str)
    else "-".join(map(str, v)),
)
def test_nan_fails_every_check(name, path):
    # json reads NaN and NaN compares false both ways, so each check is
    # written to fail on it (``not x > 0``, ``not lo <= hi``)
    with pytest.raises(CaseError):
        parse_case(_case_with(name, path, float("nan")))


WRONG_TYPES = {
    "bus-p0-numeric-text": ("gen9.json", ("buses", 2, "p0"), "-1.2",
                            r"buses\[2\]: p0 must be a finite number, got '-1.2'"),
    "bus-p0-text": ("gen9.json", ("buses", 2, "p0"), "abc",
                    "p0 must be a finite number"),
    "generator-bus-fraction": ("gen9.json", ("generators", 0, "bus"), 1.7,
                               r"generators\[0\]: bus must be an integer, got 1.7"),
    "generator-cost-bool": ("gen9.json", ("generators", 0, "cost"), True,
                            "cost must be a finite number"),
    "generator-p_max-text": ("gen9.json", ("generators", 0, "p_max"), "2",
                             "p_max must be a number or"),
    "generator-online-text": ("gen9.json", ("generators", 0, "online"), "false",
                              "online must be true or false"),
    "line-triple": ("gen9.json", ("lines", 0), [1, 2, 3],
                    r"lines\[0\] must be a pair of bus ids"),
    "line-fraction": ("gen9.json", ("lines", 0), [1, 2.5],
                      r"lines\[0\]\[1\] must be an integer"),
    "buses-object": ("gen9.json", ("buses",), {"id": 1}, "buses must be an array"),
    "node-number": ("case33bw.json", ("nodes", 0), 2,
                    r"nodes\[0\] must be an object"),
    "host-bus-float": ("case33bw.json", ("host_bus",), 3.0,
                       "host_bus must be an integer"),
    "name-number": ("case33bw.json", ("name",), 33, "name must be a string"),
}


@pytest.mark.parametrize("field", WRONG_TYPES)
def test_parse_refuses_a_field_of_the_wrong_type(field):
    # each field is read by the reader of its type: no string, bool or
    # fraction passes where a number or an integer is meant
    name, path, value, message = WRONG_TYPES[field]
    with pytest.raises(CaseError, match="missing or malformed field") as exc:
        parse_case(_case_with(name, path, value))
    assert re.search(message, str(exc.value))


@pytest.mark.parametrize(
    "name, record, where",
    [("gen9.json", (), "transmission case"),
     ("gen9.json", ("buses", 0), r"buses\[0\]"),
     ("gen9.json", ("generators", 0), r"generators\[0\]"),
     ("case33bw.json", (), "feeder case"),
     ("case33bw.json", ("nodes", 1), r"nodes\[1\]"),
     ("case33bw.json", ("lines", 2), r"lines\[2\]"),
     ("case33bw.json", ("ders", 0), r"ders\[0\]")],
    ids=lambda v: v.removesuffix(".json") if isinstance(v, str)
    else "-".join(map(str, v)) or "top",
)
def test_parse_refuses_an_unknown_key(name, record, where):
    # a misspelt optional field would otherwise load its default unseen
    raw = json.loads((CASES_DIR / name).read_text())
    with pytest.raises(CaseError, match=f"{where}: unknown field 'setpont'"):
        parse_case(json.dumps(set_path(raw, (*record, "setpont"), 0.5)))


@pytest.mark.parametrize("name", ["gen2.json", "feeder4.json"])
def test_parse_raises_only_case_errors(name):
    # any JSON value in any field is read, or refused with a CaseError;
    # no other exception leaves parse_case
    raw = json.loads((CASES_DIR / name).read_text())
    for path in key_paths(raw):
        for value in ANY_JSON:
            try:
                parse_case(json.dumps(set_path(raw, path, value)))
            except CaseError:
                pass


def test_parse_refuses_json_nested_too_deeply():
    # json raises RecursionError here, which parse_case reports as a CaseError
    with pytest.raises(CaseError, match="nests too deeply"):
        parse_case("[" * 100_000)


def test_parse_reads_an_integer_as_a_number_and_infinite_box_edges():
    raw = json.loads(_case_with("gen9.json", ("generators", 0, "cost"), 2))
    raw["generators"][0]["p_max"] = math.inf
    del raw["generators"][0]["setpoint"]
    gen = parse_case(json.dumps(raw)).generators[0]
    assert type(gen.cost_coefficient) is float and gen.cost_coefficient == 2.0
    assert gen.p_max == math.inf and gen.setpoint_initial == 0.0
    # a standalone feeder may leave its host bus unset
    assert parse_case(_case_with("case33bw.json", ("host_bus",), None)).host_bus_id is None


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
    for case in ("case33bw.json", "feeder18.json"):
        feeder = parse_case((CASES_DIR / case).read_text())
        topo = feeder_topology(feeder)
        seen = set()
        for pos in topo.order:
            parent = topo.parent[pos]
            if parent >= 0:
                assert parent in seen
            seen.add(pos)
        assert len(seen) == feeder.n_nodes
        # the substation's children, in order (feeder18 has three)
        assert topo.roots == tuple(j for j in topo.order if topo.parent[j] < 0)


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
