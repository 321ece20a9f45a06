"""Scenario files: loading, validation, run artifacts, diffs, the oracle,
and the command-line front end (exit codes 0 converged / 2 not / 1 error).
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from tdcoopt import acpf, core, lindistflow, market, network
from tdcoopt.cli import main
from tdcoopt.core import DerCapacityScale, EngineError, GeneratorOutage
from tdcoopt.network import serialize_case
from tdcoopt.scenario import (
    OracleInfeasible,
    ScenarioError,
    compare_runs,
    exact_saddle,
    load_scenario,
    probe_oracle,
    run_scenario,
    run_scenario_in_memory,
)
from tdcoopt.trace import Records, read_trace, write_trace

from conftest import (
    ANY_JSON, CASES_DIR, SCENARIOS_DIR, key_paths, make_chain_feeder,
    random_small_instance, set_path,
)


def write_scenario(tmp_path, patch: dict | None = None, drop: tuple = ()):
    """A small valid scenario (absolute case paths) with fields patched in."""
    raw = {
        "name": "t",
        "transmission": str(CASES_DIR / "gen2.json"),
        "feeders": [{"case": str(CASES_DIR / "feeder4.json"), "host_bus": 3}],
        "limits": {"v_min": 0.95, "v_max": 1.05},
        "engine": "core",
        "config": {"eps": 0.02, "max_iter": 100, "feedback": "linear"},
        "init": {"mode": "midbox"},
        "slack": {"mode": "explicit", "value": 0.0},
    }
    for key, value in (patch or {}).items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    for key in drop:
        raw.pop(key, None)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def fixed_horizon(scenario, n: int):
    cfg = dataclasses.replace(
        scenario.config, max_iter=n, tol=0.0,
    )
    return dataclasses.replace(scenario, config=cfg)


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_load_shipped_default_scenario():
    sc = load_scenario(SCENARIOS_DIR / "default.json")
    assert sc.name == "default"
    assert sc.engine == "core"
    assert sc.config.feedback == "ac"
    assert sc.config.eps == 5e-4
    assert len(sc.system.feeders) == 2
    assert {f.feeder_id for f in sc.system.feeders} == {"feeder18", "case33bw"}
    assert sc.limits.v_max == 1.05
    assert len(sc.events) == 2
    assert {e.kind for e in sc.events} == {
        "generator-outage", "der-capacity-scale"
    }
    assert sc.init_mode == "setpoint"
    assert sc.account is None  # recorded at the start


def test_event_mapping_to_engine_events(tmp_path):
    # a file's events load as the engine's own events, which name
    # themselves as the file does; a factor on an outage is dropped
    path = write_scenario(tmp_path, {"events": [
        {"kind": "generator-outage", "iteration": 7, "target": 2,
         "factor": 5.0},
        {"kind": "der-capacity-scale", "iteration": 9, "target": "all-DERs",
         "factor": 2.0},
    ]})
    outage, scale = load_scenario(path).events
    assert outage == GeneratorOutage(iteration=7, bus_id=2)
    assert scale == DerCapacityScale(iteration=9, factor=2.0)
    assert (outage.kind, outage.target) == ("generator-outage", 2)
    assert (scale.kind, scale.target) == ("der-capacity-scale", "all-DERs")


def test_overrides_are_applied_before_validation(tmp_path):
    path = write_scenario(tmp_path)
    sc = load_scenario(
        path,
        overrides={"engine": "market", "feedback": "ac", "max_iter": 7,
                   "eps": 0.01, "eta": 0.2, "seed": 5},
    )
    assert sc.engine == "market"
    assert sc.config.feedback == "ac"
    assert sc.config.max_iter == 7
    assert sc.config.eps == 0.01
    assert sc.config.eta == 0.2
    assert sc.seed == 5

    bad = load_scenario  # overrides go through the same validation
    with pytest.raises(ScenarioError, match="bad config"):
        bad(path, overrides={"eps": -1.0})
    with pytest.raises(ScenarioError, match="unknown engine"):
        bad(path, overrides={"engine": "quantum"})


def test_relative_case_paths_resolve_against_scenario_file():
    # every shipped scenario uses ../cases/ paths
    sc = load_scenario(SCENARIOS_DIR / "dispatch9.json")
    assert sc.system.transmission.name == "gen9"
    assert len(sc.system.transmission.generators) == 9


@pytest.mark.parametrize(
    "patch, drop, message",
    [
        ({}, ("transmission",), "missing field 'transmission'"),
        ({"engine": "quantum"}, (), "unknown engine"),
        ({"config": {"eps": -3.0}}, (), "bad config"),
        ({"config": {"warp": 9}}, (), "unknown config fields"),
        ({"init": {"mode": "cold"}}, (), "unknown init mode"),
        ({"init": {"mode": "random"}}, (), "requires a seed"),
        ({"init": {"P_M": [1.0]}}, (), "init.P_M has 1 entries"),
        ({"slack": {"mode": "float"}}, (), "unknown slack mode"),
        ({"probes": {"nope": 2}}, (), "unknown feeder"),
        ({"probes": {"feeder4": 99}}, (), "probe node 99"),
        ({"feeders": [{"case": str(CASES_DIR / "feeder4.json")}]}, (),
         "missing field 'host_bus'"),
        ({"feeders": [{"case": str(CASES_DIR / "feeder4.json"),
                       "host_bus": 4}]}, (), "slack bus"),
        # every SolverConfig field is a known config field
        ({"config": {"divergence_limit": 50.0, "record_state": True}}, (),
         None),
        ({"config": {"max_iter": 2.5}}, (), "bad config: max_iter"),
        ({"config": {"divergence_limit": -1.0}}, (),
         "bad config: divergence_limit"),
        # each field is read by the reader of its type
        ({"seed": 2.7}, (), "seed must be an integer, got 2.7"),
        ({"limits": {"v_min": "0.9"}}, (), "limits: v_min must be a finite number"),
        ({"slack": {"value": "0.5"}}, (), "slack: value must be a finite number"),
        ({"probes": {"feeder4": 3.9}}, (), "probes: feeder4 must be an integer"),
        ({"init": {"P_M": ["1", "1"]}}, (), r"init: P_M\[0\] must be a finite number"),
        ({"config": {"eps": True}}, (), "bad config: eps must be a finite number"),
        ({"config": {"zero_lambda_to_ders": "no"}}, (),
         "bad config: zero_lambda_to_ders must be true or false"),
        # feedback is a config field only, and one tol replaces the three
        ({"feedback": "ac"}, (), "^t: unknown field 'feedback'$"),
        ({"config": {"tol_primal": 1e-6}}, (),
         r"unknown config fields \['tol_primal'\]"),
    ],
)
def test_scenario_validation_errors(tmp_path, patch, drop, message):
    path = write_scenario(tmp_path, patch, drop)
    if message is None:
        config = load_scenario(path).config
        assert (config.divergence_limit, config.record_state) == (50.0, True)
        return
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize(
    "event, message",
    [
        ({"kind": "comet-strike", "iteration": 5, "target": 1},
         "unknown kind"),
        ({"kind": "generator-outage", "iteration": 0, "target": 1},
         "outside"),
        ({"kind": "generator-outage", "iteration": 100, "target": 1},
         "outside"),
        ({"kind": "generator-outage", "iteration": 5, "target": 42},
         "no generator at bus 42"),
        ({"kind": "der-capacity-scale", "iteration": 5, "target": "some"},
         "all-DERs"),
        ({"kind": "der-capacity-scale", "iteration": 5, "target": "all-DERs"},
         "positive factor"),
        ({"kind": "der-capacity-scale", "iteration": 5, "target": "all-DERs",
          "factor": -2.0}, "positive factor"),
        ({"kind": "generator-outage", "target": 1}, "missing field"),
        ({"kind": "der-capacity-scale", "iteration": 5, "target": "all-DERs",
          "factor": float("nan")}, "positive factor"),
        ({"kind": "generator-outage", "iteration": 2.5, "target": 1},
         r"events\[0\]: iteration must be an integer, got 2.5"),
        ({"kind": "generator-outage", "iteration": 5, "target": 1.9},
         r"events\[0\]: target must be an integer, got 1.9"),
    ],
)
def test_event_validation_errors(tmp_path, event, message):
    path = write_scenario(tmp_path, {"events": [event]})
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize("factor", [float("inf"), float("-inf"), 0.0])
def test_event_refuses_a_factor_that_is_not_finite_and_positive(tmp_path, factor):
    event = {"kind": "der-capacity-scale", "iteration": 5, "target": "all-DERs",
             "factor": factor}
    path = write_scenario(tmp_path, {"events": [event]})
    with pytest.raises(ScenarioError, match=r"events\[0\]: needs a finite positive factor"):
        load_scenario(path)


def test_load_rejects_broken_files(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")

    syntax = tmp_path / "syntax.json"
    syntax.write_text('{"name": "x",}')
    with pytest.raises(ScenarioError, match="syntax error at line 1"):
        load_scenario(syntax)

    listfile = tmp_path / "list.json"
    listfile.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        load_scenario(listfile)


def test_load_raises_only_scenario_errors(tmp_path):
    # any JSON value in any field but the case paths is read, or refused
    # with a ScenarioError; no other exception leaves load_scenario
    path = write_scenario(tmp_path, {
        "init": {"P_M": [0.5, 0.5]}, "probes": {"feeder4": 3}, "seed": 1,
        "events": [
            {"iteration": 5, "kind": "generator-outage", "target": 1},
            {"iteration": 5, "kind": "der-capacity-scale", "target": "all-DERs",
             "factor": 2.0},
        ],
    })
    raw = json.loads(path.read_text())
    for field in key_paths(raw):
        if field[0] == "transmission" or field[-1] == "case":
            continue
        for value in ANY_JSON:
            path.write_text(json.dumps(set_path(raw, field, value)))
            try:
                load_scenario(path)
            except ScenarioError:
                pass


def test_load_refuses_json_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ScenarioError, match="nests too deeply"):
        load_scenario(path)


@pytest.mark.parametrize(
    "record, where",
    [((), "t"),
     (("feeders", 0), r"t: feeders\[0\]"),
     (("limits",), "t: limits"),
     (("init",), "t: init"),
     (("slack",), "t: slack"),
     (("events", 0), r"t: events\[0\]")],
    ids=lambda v: "-".join(map(str, v)) or "top" if isinstance(v, tuple) else v,
)
def test_load_refuses_an_unknown_key(tmp_path, record, where):
    path = write_scenario(tmp_path, {
        "events": [{"iteration": 5, "kind": "generator-outage", "target": 1}],
    })
    raw = json.loads(path.read_text())
    path.write_text(json.dumps(set_path(raw, (*record, "setpont"), 0.5)))
    with pytest.raises(ScenarioError, match=f"^{where}: unknown field 'setpont'$"):
        load_scenario(path)


def test_load_builds_each_feeder_once(monkeypatch):
    # the host bus goes in while the feeder is built, not through a
    # second construction that checks the feeder again
    checked = []
    check = network.validate_feeder
    monkeypatch.setattr(
        network, "validate_feeder", lambda f: checked.append(f.feeder_id) or check(f)
    )
    sc = load_scenario(SCENARIOS_DIR / "full39.json")
    assert len(sc.system.feeders) == 7
    assert sorted(checked) == sorted(f.feeder_id for f in sc.system.feeders)
    assert [f.host_bus_id for f in sc.system.feeders] == [
        entry["host_bus"]
        for entry in json.loads((SCENARIOS_DIR / "full39.json").read_text())["feeders"]
    ]


def test_load_rejects_wrong_case_kind(tmp_path):
    path = write_scenario(
        tmp_path, {"transmission": str(CASES_DIR / "feeder4.json")}
    )
    with pytest.raises(ScenarioError, match="expected a TransmissionSystem"):
        load_scenario(path)
    path = write_scenario(
        tmp_path,
        {"feeders": [{"case": str(CASES_DIR / "gen2.json"), "host_bus": 3}]},
    )
    with pytest.raises(ScenarioError, match="expected a DistributionFeeder"):
        load_scenario(path)


# ---------------------------------------------------------------------------
# running and artifacts
# ---------------------------------------------------------------------------

def test_run_scenario_writes_trace_and_summary(tmp_path):
    sc = fixed_horizon(load_scenario(SCENARIOS_DIR / "oracle_demo.json"), 40)
    artifacts = run_scenario(sc, out_dir=tmp_path / "out")
    assert artifacts.trace_path == tmp_path / "out" / "oracle_demo_trace.csv"
    assert artifacts.summary_path.name == "oracle_demo_summary.json"

    trace = read_trace(artifacts.trace_path)
    assert len(trace) == 41
    assert "P_M_1" in trace.columns and "P_M_2" in trace.columns
    assert "v_min_feeder4" in trace.columns

    summary = json.loads(artifacts.summary_path.read_text())
    assert summary == artifacts.summary
    assert summary["status"] == "not-converged"
    assert summary["iterations"] == 40
    assert set(summary["final"]["P_M"]) == {"1", "2"}
    assert 0.9 < summary["final"]["voltage"]["feeder4"]["min"] < 1.1
    assert summary["config"]["eps"] == 0.02
    # trace row 40 and the summary describe the same state
    assert trace.column("lambda")[-1] == summary["final"]["lambda"]
    assert trace.column("v_min_feeder4")[-1] == pytest.approx(
        summary["final"]["voltage"]["feeder4"]["min"]
    )


def test_summary_reports_the_stepsize_certificate(tmp_path):
    # the shipped runs use eps = 5e-4, about 8.79 times the certified bound
    sc = fixed_horizon(load_scenario(SCENARIOS_DIR / "default.json"), 2)
    stepsize = run_scenario(sc, out_dir=tmp_path).summary["stepsize"]
    assert stepsize["l"] == pytest.approx(83.85020071799615, rel=1e-12)
    assert stepsize["eps_bound"] == 2 * stepsize["s"] / stepsize["l"] ** 2
    assert stepsize["eps_over_bound"] == pytest.approx(8.79, abs=0.005)


@pytest.mark.parametrize("engine", ["core", "market"])
def test_failed_run_leaves_partial_trace_and_error_summary(tmp_path, engine):
    # at a blow-up stepsize the price passes the divergence bound a few
    # iterations in; the rows before the failure and a summary naming it
    # are still written
    sc = load_scenario(
        SCENARIOS_DIR / "dispatch9.json", {"engine": engine, "eps": 1e5}
    )
    with pytest.raises(core.DivergenceError) as exc:
        run_scenario(sc, out_dir=tmp_path)
    failed_at = exc.value.iteration
    assert failed_at > 1

    trace = read_trace(tmp_path / "dispatch9_trace.csv")
    assert trace.column("iteration").tolist() == list(range(failed_at))
    summary = json.loads((tmp_path / "dispatch9_summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["iteration"] == failed_at
    assert summary["message"] == str(exc.value)
    assert summary["engine"] == engine
    assert summary["config"]["eps"] == 1e5


def test_broken_market_round_leaves_partial_trace_and_error_summary(
    tmp_path, monkeypatch, capsys
):
    # a report lost in round 3 aborts the run like any engine failure:
    # rows 0-2, a summary naming round 3, exit code 1 from the CLI
    bus_type = market.MessageBus

    def lossy_bus():
        return bus_type(
            drop=lambda m: m.kind == "setpoint-report" and m.iteration_tag == 3
            and m.sender.startswith("generator")
        )

    monkeypatch.setattr(market, "MessageBus", lossy_bus)
    path = SCENARIOS_DIR / "dispatch9.json"
    sc = load_scenario(path, {"engine": "market"})
    with pytest.raises(market.RoundAbort) as exc:
        run_scenario(sc, out_dir=tmp_path)
    assert exc.value.iteration == 3
    trace = read_trace(tmp_path / "dispatch9_trace.csv")
    assert trace.column("iteration").tolist() == [0, 1, 2]
    summary = json.loads((tmp_path / "dispatch9_summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["iteration"] == 3
    assert "missing reports" in summary["message"]

    args = ["run", str(path), "--engine", "market", "--out", str(tmp_path)]
    assert main(args) == 1
    assert "error: round 3 missing reports" in capsys.readouterr().err


def test_cli_run_failure_keeps_exit_code_and_writes_artifacts(tmp_path, capsys):
    path = SCENARIOS_DIR / "dispatch9.json"
    assert main(["run", str(path), "--eps", "1e5", "--out", str(tmp_path)]) == 1
    assert "error: state norm" in capsys.readouterr().err
    summary = json.loads((tmp_path / "dispatch9_summary.json").read_text())
    assert summary["status"] == "error"
    assert len(read_trace(tmp_path / "dispatch9_trace.csv")) == summary["iteration"]


def test_run_scenario_is_deterministic(tmp_path):
    sc = fixed_horizon(load_scenario(SCENARIOS_DIR / "oracle_demo.json"), 30)
    a = run_scenario(sc, out_dir=tmp_path / "a")
    b = run_scenario(sc, out_dir=tmp_path / "b")
    assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
    assert a.summary_path.read_bytes() == b.summary_path.read_bytes()


def test_run_builds_each_feeder_topology_once(tmp_path, monkeypatch):
    # a run compiles each feeder once; the sweeps and the probe choice
    # read the compiled model instead of asking for the topology again
    calls = collections.Counter()
    original = network.feeder_topology

    def counted(feeder):
        calls[feeder.feeder_id] += 1
        return original(feeder)

    for module in (network, lindistflow, acpf, core):
        if hasattr(module, "feeder_topology"):
            monkeypatch.setattr(module, "feeder_topology", counted)
    for engine in ("core", "market"):
        calls.clear()
        sc = load_scenario(SCENARIOS_DIR / "default.json", {"engine": engine})
        assert sc.config.feedback == "ac"
        run_scenario(fixed_horizon(sc, 3), out_dir=tmp_path / engine)
        assert calls == {f.feeder_id: 1 for f in sc.system.feeders}


def test_only_a_random_start_creates_a_generator(tmp_path, monkeypatch):
    # a seeded run from the recorded setpoints never draws a random number,
    # so it must not pay for importing numpy.random
    def refuse(seed=None):
        raise AssertionError("random generator created")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    sc = load_scenario(
        write_scenario(tmp_path, {"init": {"mode": "setpoint"}, "seed": 7})
    )
    assert sc.seed == 7
    assert run_scenario_in_memory(fixed_horizon(sc, 3)).iterations == 3
    random_start = dataclasses.replace(sc, init_mode="random")
    with pytest.raises(AssertionError, match="generator created"):
        run_scenario_in_memory(random_start)


def test_run_in_memory_matches_run_scenario(tmp_path):
    sc = fixed_horizon(load_scenario(SCENARIOS_DIR / "oracle_demo.json"), 25)
    mem = run_scenario_in_memory(sc)
    artifacts = run_scenario(sc, out_dir=tmp_path)
    assert mem.records == artifacts.result.records


def test_summary_phases_split_at_events(tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "config": {"eps": 0.02, "max_iter": 40, "tol": 0.0},
            # an outage has no factor: a stray one is not echoed
            "events": [
                {"kind": "generator-outage", "iteration": 20, "target": 2,
                 "factor": "junk"}
            ],
        },
    )
    artifacts = run_scenario(load_scenario(path), out_dir=tmp_path)
    phases = artifacts.summary["phases"]
    assert [(p["from_iteration"], p["to_iteration"]) for p in phases] == [
        (0, 19), (20, 40),
    ]
    assert artifacts.summary["events"] == [
        {"iteration": 20, "kind": "generator-outage", "target": 2,
         "factor": None}
    ]
    assert artifacts.summary["final"]["P_M"]["2"] == 0.0

def test_market_engine_scenario_runs(tmp_path):
    path = write_scenario(
        tmp_path,
        {"engine": "market",
         "config": {"eps": 0.02, "max_iter": 30, "tol": 0.0}},
    )
    result = run_scenario_in_memory(load_scenario(path))
    assert result.iterations == 30


def test_scenario_probes_override_trace_column(tmp_path):
    # alpha only differs across nodes once voltage multipliers are active,
    # so squeeze the lower band to light them up; then probing node 2
    # instead of the deepest node (4) must change the trace column
    path = write_scenario(
        tmp_path,
        {"limits": {"v_min": 0.999, "v_max": 1.05},
         "config": {"eps": 0.02, "max_iter": 20, "tol": 0.0}},
    )
    base = load_scenario(path)
    probed = dataclasses.replace(base, probes={"feeder4": 2})
    a = run_scenario(base, out_dir=tmp_path / "deep")
    b = run_scenario(probed, out_dir=tmp_path / "shallow")
    col_a = read_trace(a.trace_path).column("alpha_feeder4")
    col_b = read_trace(b.trace_path).column("alpha_feeder4")
    assert not np.allclose(col_a[1:], col_b[1:])
    # everything else is untouched by the probe choice
    np.testing.assert_allclose(
        read_trace(a.trace_path).column("lambda"),
        read_trace(b.trace_path).column("lambda"),
    )


# ---------------------------------------------------------------------------
# comparing runs
# ---------------------------------------------------------------------------

def test_compare_identical_runs_is_zero(tmp_path):
    sc = fixed_horizon(load_scenario(SCENARIOS_DIR / "oracle_demo.json"), 20)
    a = run_scenario(sc, out_dir=tmp_path / "a")
    b = run_scenario(sc, out_dir=tmp_path / "b")
    report = compare_runs(a.trace_path, b.trace_path)
    assert report.metric == "total-cost"
    assert len(report.iterations) == 21
    np.testing.assert_allclose(report.deltas, 0.0)
    assert report.final_delta == 0.0


def test_compare_rejects_horizon_mismatch(tmp_path):
    sc = load_scenario(SCENARIOS_DIR / "oracle_demo.json")
    a = run_scenario(fixed_horizon(sc, 20), out_dir=tmp_path / "a")
    b = run_scenario(fixed_horizon(sc, 21), out_dir=tmp_path / "b")
    with pytest.raises(ValueError, match="horizons differ"):
        compare_runs(a.trace_path, b.trace_path)


def test_compare_rejects_unknown_metric(tmp_path):
    sc = fixed_horizon(load_scenario(SCENARIOS_DIR / "oracle_demo.json"), 5)
    a = run_scenario(sc, out_dir=tmp_path)
    with pytest.raises(ValueError, match="unknown metric"):
        compare_runs(a.trace_path, a.trace_path, metric="entropy")


# ---------------------------------------------------------------------------
# the exact oracle
# ---------------------------------------------------------------------------

def test_probe_oracle_agrees_with_engine():
    sc = load_scenario(SCENARIOS_DIR / "oracle_demo.json")
    report = probe_oracle(sc)
    assert report.objective_gap_rel < 1e-6
    assert report.coordinate_gap_inf < 1e-3
    assert report.engine_feasibility <= 1e-9
    # the oracle point balances: free gens + DER output match the demand
    P = report.point_oracle["P_M"]
    p = report.point_oracle["p"]
    assert sum(P) + sum(p) == pytest.approx(1.2 + 0.0030, abs=1e-6)


@pytest.mark.parametrize(
    "event", [GeneratorOutage(100, bus_id=1), DerCapacityScale(100, 0.5)]
)
def test_probe_oracle_solves_the_problem_the_events_leave(event):
    sc = dataclasses.replace(
        load_scenario(SCENARIOS_DIR / "oracle_demo.json"), events=(event,)
    )
    report = probe_oracle(sc)
    assert report.objective_gap_rel < 1e-6
    assert report.coordinate_gap_inf < 1e-6
    if isinstance(event, GeneratorOutage):
        assert report.point_oracle["P_M"][0] == 0.0  # the tripped unit
    else:
        assert max(report.point_oracle["p"]) <= 0.5 * 0.02  # the halved box


def test_probe_oracle_reproduces_the_default_baseline():
    # post-event default with linear feedback: the shipped run stops
    # 3.24e-4 from the exact optimum, whose cost is 3.911951
    report = probe_oracle(load_scenario(SCENARIOS_DIR / "default.json"))
    assert f"{report.coordinate_gap_inf:.2e}" == "3.24e-04"
    assert report.objective_oracle == pytest.approx(3.911951, abs=1e-6)


def test_probe_oracle_solves_against_the_runs_slack_account(tmp_path):
    # the midbox start records a slack output of -0.797, so the fleet
    # must supply 2.0 where an explicit zero target would ask 1.203
    tight = {"max_iter": 50000, "tol": 1e-8}
    path = write_scenario(tmp_path, {"slack": {"mode": "record"}, "config": tight})
    report = probe_oracle(load_scenario(path))
    assert report.objective_gap_rel < 1e-6
    point = report.point_oracle
    assert sum(point["P_M"]) + sum(point["p"]) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_probe_oracle_pinned_generators_leave_no_optimum(tmp_path):
    # both units pinned at 0.5 cannot meet the 1.2 load with one small DER
    ts = network.parse_case((CASES_DIR / "gen2.json").read_text())
    pinned = dataclasses.replace(
        ts,
        generators=tuple(
            dataclasses.replace(g, p_min=0.5, p_max=0.5) for g in ts.generators
        ),
    )
    case_path = tmp_path / "pinned.json"
    case_path.write_text(serialize_case(pinned))
    path = write_scenario(tmp_path, {"transmission": str(case_path)})
    with pytest.raises(OracleInfeasible):
        probe_oracle(load_scenario(path))


def test_probe_oracle_after_the_last_generator_trips(tmp_path):
    # with no DER and both units tripped nothing is free; the slack
    # recorded at the start is no longer met
    trips = [{"kind": "generator-outage", "iteration": 5, "target": bus}
             for bus in (1, 2)]
    patch = {"feeders": [], "slack": {"mode": "record"}, "events": trips}
    with pytest.raises(OracleInfeasible, match="balance residual"):
        probe_oracle(load_scenario(write_scenario(tmp_path, patch)))


@pytest.mark.filterwarnings("error")
def test_probe_oracle_infeasible(tmp_path):
    path = write_scenario(tmp_path, {"limits": {"v_min": 1.2, "v_max": 1.3}})
    with pytest.raises(OracleInfeasible):
        probe_oracle(load_scenario(path))


def test_probe_oracle_reports_an_unconverged_run(tmp_path):
    # 100 rounds at eps 0.02 leave the engine far from the optimum: its
    # gaps measure an unfinished iteration, and the report says so
    report = probe_oracle(load_scenario(write_scenario(tmp_path)))
    assert not report.converged
    assert report.iterations == 100
    assert report.objective_gap_rel > 0.1


def test_probe_oracle_gap_is_relative_to_the_optimum():
    # oracle_demo's optimum costs 0.840093, under 1: the gap is still
    # divided by it
    report = probe_oracle(load_scenario(SCENARIOS_DIR / "oracle_demo.json"))
    assert report.converged and report.iterations < 50000
    assert report.objective_oracle == pytest.approx(0.840093, abs=1e-6)
    gap = abs(report.objective_engine - report.objective_oracle)
    assert report.objective_gap_rel == gap / report.objective_oracle


def test_probe_oracle_gap_at_a_zero_cost_optimum(tmp_path):
    # with no load anywhere the optimum generates nothing and costs
    # nothing: the gap is infinite unless the engine's point is free too
    ts = network.parse_case((CASES_DIR / "gen2.json").read_text())
    idle = dataclasses.replace(
        ts, buses=tuple(dataclasses.replace(b, p0=0.0) for b in ts.buses)
    )
    case_path = tmp_path / "idle.json"
    case_path.write_text(serialize_case(idle))
    patch = {"transmission": str(case_path), "feeders": []}
    stopped = probe_oracle(
        load_scenario(write_scenario(tmp_path, {**patch, "config": {"max_iter": 5}}))
    )
    assert stopped.objective_oracle == 0.0 < stopped.objective_engine
    assert stopped.objective_gap_rel == math.inf
    at_rest = probe_oracle(
        load_scenario(write_scenario(tmp_path, {**patch, "init": {"P_M": [0.0, 0.0]}}))
    )
    assert at_rest.objective_oracle == at_rest.objective_engine == 0.0
    assert at_rest.objective_gap_rel == 0.0


def _dispatch(name):
    """A compiled problem and its balance target: criterion 4's instance
    ``name``, ``oracle_demo``, or ``default`` after its events, against the
    slack its linear run records at the start."""
    if name != "default":
        sc = (
            load_scenario(SCENARIOS_DIR / "oracle_demo.json")
            if name == "oracle_demo" else random_small_instance(name)
        )
        return core.build_problem(sc.system, sc.limits), core.SlackAccount(0.0)
    sc = load_scenario(SCENARIOS_DIR / "default.json")
    problem = core.build_problem(sc.system, sc.limits)
    x, _ = core.initial_state(problem, "setpoint")
    P_L = core.measure(problem, x).P_L
    fixed = problem.network.fixed_injection
    account = core.SlackAccount(float(np.sum(P_L)) - float(np.sum(x.P_M)) - fixed)
    for event in sc.events:
        problem, x = core.apply_event(problem, x, event)
    return problem, account


@pytest.mark.parametrize("name", [*range(20), "oracle_demo", "default"])
def test_exact_saddle_meets_the_kkt_conditions(name):
    problem, account = _dispatch(name)
    x, y = exact_saddle(problem, account)
    network = problem.network
    meas = core.measure(problem, x, "linear")
    g = np.concatenate(
        [meas.v - network.limits.v_max, network.limits.v_min - meas.v]
    )
    grad = 2.0 * problem.coef * x.z + core.der_signals(network, y)
    projected = x.z - np.clip(x.z - grad, problem.lo, problem.hi)
    implied = float(np.sum(meas.P_L)) - float(np.sum(x.P_M)) - network.fixed_injection
    balance = account.P0_slack - implied
    assert np.max(np.abs(projected)) <= 1e-10
    assert np.max(g) <= 1e-10
    assert abs(balance) <= 1e-10
    assert np.min(y.mu) >= -1e-10
    assert np.max(np.abs(y.mu * g)) <= 1e-10


def _tripped():
    """gen2 with feeder4's DERs removed, after both generators trip: no
    coordinate is free, and the slack recorded there balances it."""
    sc = load_scenario(SCENARIOS_DIR / "oracle_demo.json")
    feeders = [dataclasses.replace(f, ders=()) for f in sc.system.feeders]
    system = network.attach_feeders(sc.system.transmission, feeders)
    problem = core.build_problem(system, sc.limits)
    x, _ = core.initial_state(problem)
    for g in problem.gen_bus:
        problem, x = core.apply_event(problem, x, GeneratorOutage(1, int(g)))
    assert not np.any(problem.hi > problem.lo)
    P_L = core.measure(problem, x).P_L
    fixed = problem.network.fixed_injection
    return problem, x, float(np.sum(P_L)) - float(np.sum(x.P_M)) - fixed


def test_exact_saddle_certifies_a_point_where_nothing_is_free():
    problem, x, implied = _tripped()
    xs, ys = exact_saddle(problem, core.SlackAccount(implied))
    np.testing.assert_array_equal(xs.z, x.z)
    assert ys.lam == 0.0 and not np.any(ys.mu)


@pytest.mark.parametrize("broken", ["balance residual", "band violation"])
def test_exact_saddle_names_what_a_pinned_point_breaks(broken):
    problem, x, implied = _tripped()
    if broken == "balance residual":
        implied += 0.5
    else:
        v_top = float(np.max(core.measure(problem, x).v))
        limits = network.VoltageLimits(problem.network.limits.v_min, v_top - 1e-3)
        problem = dataclasses.replace(
            problem, network=dataclasses.replace(problem.network, limits=limits)
        )
    with pytest.raises(OracleInfeasible, match=f"no certified optimum: {broken}"):
        exact_saddle(problem, core.SlackAccount(implied))


@pytest.mark.parametrize(
    "broken",
    ["projected gradient", "band violation", "balance residual",
     "negative multiplier", "complementarity"],
)
def test_kkt_residual_breaking_one_condition_moves_only_its_entry(broken):
    # at oracle_demo's saddle no band binds, the one DER's p sits at its
    # cap and its q and both generators are interior
    problem, account = _dispatch("oracle_demo")
    x, y = exact_saddle(problem, account)
    assert max(core.kkt_residual(problem, x, y, account).values()) <= 1e-10
    N = problem.n_nodes
    v = core.measure(problem, x).v
    top = int(np.argmax(v))
    z, lam, mu = x.z.copy(), y.lam, y.mu.copy()
    gens = slice(2 * N, None)

    def capped(problem, v_max):
        limits = network.VoltageLimits(problem.network.limits.v_min, v_max)
        return dataclasses.replace(
            problem, network=dataclasses.replace(problem.network, limits=limits)
        )

    if broken == "projected gradient":  # the price moves, the dispatch stays
        lam += 1e-3
    elif broken == "balance residual":  # the generators follow the price
        lam += 1e-3
        z[gens] = -lam / (2.0 * problem.coef[gens])
    elif broken == "band violation":  # a cap under the top voltage
        problem = capped(problem, v[top] - 1e-3)
    elif broken == "complementarity":
        # both rows of one node priced alike: the prices read only their
        # difference, so they do not move
        mu[[top, N + top]] = 1e-3
    else:
        # a negative multiplier on a row that sits on its edge, with the
        # DER's q, the only free coordinate its price would move, pinned
        lo, hi = problem.lo.copy(), problem.hi.copy()
        q = N + np.flatnonzero(hi[N : 2 * N] > lo[N : 2 * N])
        lo[q] = hi[q] = z[q]
        problem = dataclasses.replace(capped(problem, v[top]), lo=lo, hi=hi)
        mu[top] = -1e-3
    after = core.kkt_residual(
        problem, core.PrimalState(z, N), core.DualState(lam, mu), account
    )
    assert {name for name, value in after.items() if value > 1e-10} == {broken}


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_run_converged_exit_0(tmp_path, capsys):
    code = main(
        ["run", str(SCENARIOS_DIR / "dispatch9.json"), "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status   : converged" in out
    assert (tmp_path / "dispatch9_trace.csv").exists()
    assert (tmp_path / "dispatch9_summary.json").exists()


def test_cli_run_iteration_limit_exit_2(tmp_path, capsys):
    code = main(
        ["run", str(SCENARIOS_DIR / "dispatch9.json"), "--out", str(tmp_path),
         "--max-iter", "10"]
    )
    assert code == 2
    assert "not-converged" in capsys.readouterr().out


def test_cli_run_keeps_the_scenario_files_seed(tmp_path, capsys):
    # without --seed the file's seed holds, also for a random start that
    # needs one; with --seed the flag wins
    raw = json.loads((SCENARIOS_DIR / "dispatch9.json").read_text())
    raw["transmission"] = str(CASES_DIR / "gen9.json")
    raw["init"] = {"mode": "random"}
    raw["seed"] = 7
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(raw))
    for flags, seed in (([], 7), (["--seed", "3"], 3)):
        out = tmp_path / str(seed)
        argv = ["run", str(path), "--out", str(out), "--max-iter", "5"]
        assert main(argv + flags) == 2, capsys.readouterr().err
        summary = json.loads((out / "dispatch9_summary.json").read_text())
        assert summary["seed"] == seed


def test_cli_run_error_exit_1(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch",
    [{"limits": [0.9, 1.1]}, {"init": "setpoint"}, {"config": [1]},
     {"probes": [1]}],
    ids=["limits", "init", "config", "probes"],
)
def test_cli_run_reports_a_section_of_the_wrong_shape(tmp_path, capsys, patch):
    # a section that must be an object is refused with one error line,
    # never a traceback
    path = write_scenario(tmp_path, patch)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{next(iter(patch))} must be an object" in err


def test_sweep_failure_is_an_engine_error(tmp_path, capsys):
    # no power flow exists under a 5000-fold load: each engine fails at
    # its starting measurement with an EngineError, which the CLI reports
    case = tmp_path / "heavy.json"
    case.write_text(serialize_case(make_chain_feeder("heavy", load=10.0)))
    path = write_scenario(
        tmp_path,
        {"feeders": [{"case": str(case), "host_bus": 3}],
         "config": {"feedback": "ac"}},
    )
    for engine in ("core", "market"):
        sc = load_scenario(path, {"engine": engine})
        with pytest.raises(EngineError, match="failed at iteration 0") as exc:
            run_scenario_in_memory(sc)
        assert exc.value.iteration == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error: power flow failed" in capsys.readouterr().err
    # nothing completed: the trace holds only its header
    assert len(read_trace(tmp_path / "out" / "t_trace.csv")) == 0
    summary = json.loads((tmp_path / "out" / "t_summary.json").read_text())
    assert (summary["status"], summary["iteration"]) == ("error", 0)


def test_cli_compare_refuses_traces_without_records(tmp_path, capsys):
    # a run that fails at its initial measurement leaves such a trace
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        write_trace(path, Records(2, 1), ("1", "2"), ("f0",))
    assert main(["compare", *map(str, paths)]) == 1
    assert "error: no records to compare" in capsys.readouterr().err


def test_cli_compare(tmp_path, capsys):
    sc = str(SCENARIOS_DIR / "dispatch9.json")
    assert main(["run", sc, "--out", str(tmp_path / "a"),
                 "--max-iter", "30"]) == 2
    assert main(["run", sc, "--out", str(tmp_path / "b"),
                 "--max-iter", "30"]) == 2
    capsys.readouterr()
    code = main(
        ["compare", str(tmp_path / "a" / "dispatch9_trace.csv"),
         str(tmp_path / "b" / "dispatch9_trace.csv")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "final a - b   : 0.000000" in out

    code = main(
        ["compare", str(tmp_path / "a" / "dispatch9_trace.csv"),
         str(tmp_path / "b" / "dispatch9_trace.csv"), "--metric", "vibes"]
    )
    assert code == 1
    assert "unknown metric" in capsys.readouterr().err


def test_cli_oracle(capsys):
    code = main(["oracle", str(SCENARIOS_DIR / "oracle_demo.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "relative gap" in out


def test_cli_oracle_unconverged_run_exit_2(tmp_path, capsys):
    code = main(["oracle", str(write_scenario(tmp_path))])
    assert code == 2
    assert "engine status    : not-converged after 100 iterations" in (
        capsys.readouterr().out
    )


def test_cli_lindump(tmp_path, capsys):
    code = main(
        ["lindump", str(CASES_DIR / "feeder4.json"), "--out", str(tmp_path)]
    )
    assert code == 0
    written = {f.name for f in tmp_path.iterdir()}
    assert written == {f"feeder4_{piece}.csv" for piece in "ABcd"}
    A = np.loadtxt(tmp_path / "feeder4_A.csv", delimiter=",")
    assert A.shape == (3, 3)
    np.testing.assert_allclose(A, A.T)
    capsys.readouterr()

    code = main(["lindump", str(CASES_DIR / "gen2.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "not a feeder case" in capsys.readouterr().err
