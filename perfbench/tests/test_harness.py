"""Self-tests of the benchmark harness, on a short horizon.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tdcoopt  # noqa: E402
from tdcoopt import acpf, core, market, scenario as scenario_mod  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ENGINES = [("core", "ac"), ("market", "linear")]


def short_scenario(tmp_path: Path, workload: str, engine=None, feedback=None):
    """The workload's scenario file cut to 60 rounds, events at round 20."""
    source = workloads.scenario_path(workload)
    raw = json.loads(source.read_text())
    raw["transmission"] = str(source.parent / raw["transmission"])
    for entry in raw["feeders"]:
        entry["case"] = str(source.parent / entry["case"])
    raw["config"]["max_iter"] = 60
    for event in raw["events"]:
        event["iteration"] = 20
    path = tmp_path / f"short-{workload}.json"
    path.write_text(json.dumps(raw))
    overrides = {**workloads.overrides(workload, 7)}
    if engine:
        overrides.update(engine=engine, feedback=feedback)
    return scenario_mod.load_scenario(path, overrides)


def final_state(artifacts):
    result = artifacts.result
    return (
        result.records,
        result.x.p.tobytes() + result.x.q.tobytes() + result.x.P_M.tobytes(),
        result.y.lam,
        b"".join(mu.tobytes() for mu in result.y.mu),
        artifacts.trace_path.read_bytes(),
        artifacts.summary_path.read_bytes(),
    )


@pytest.mark.parametrize("engine,feedback", ENGINES)
def test_wrapping_leaves_final_state_bit_identical(tmp_path, engine, feedback):
    scenario = short_scenario(tmp_path, "default-ac", engine, feedback)
    plain = scenario_mod.run_scenario(scenario, tmp_path / "plain")
    plain_state = final_state(plain)
    out = tmp_path / "traced"
    out.mkdir()
    tracer = spans.Tracer()
    with tracer.installed(spans.ENGINE_LAYERS + spans.ROUND_LAYERS, tdcoopt):
        traced = scenario_mod.run_scenario(scenario, out)
        traced_state = final_state(traced)
    assert traced_state == plain_state
    assert tracer.get("core.dual_update").calls == 60
    # every patch is undone
    assert core.sweep_feeder is acpf.sweep_feeder
    assert market.measure_feeders is core.measure_feeders
    assert scenario_mod.solve is core.solve
    assert not hasattr(market.UserAgent.step, "__wrapped__")
    assert not hasattr(market.MessageBus.publish, "__wrapped__")


@pytest.mark.parametrize("engine,feedback", ENGINES)
def test_self_times_add_up_to_engine_span(tmp_path, engine, feedback):
    scenario = short_scenario(tmp_path, "default-ac", engine, feedback)
    tracer, sweeps, trace_stats, sample, _ = worker.traced_run(scenario, tmp_path)
    engine_span = tracer.get(worker.ENGINE_SPAN[engine])
    inside = [
        stats.self_time for name, stats in tracer.spans.items()
        if name != "trace.write" and stats.calls
    ]
    assert engine_span.calls == 1
    assert sum(inside) == pytest.approx(engine_span.total, rel=1e-9)
    assert sample["engine_s"] == engine_span.total
    assert trace_stats["records"] == sample["iterations"] + 1
    if feedback == "ac":
        assert tracer.get("acpf.sweep").calls == 2 * (sample["iterations"] + 1)
        assert sweeps.failed == 0 and sweeps.iterations_max >= 1
    else:
        assert tracer.get("acpf.sweep").calls == 0
        assert tracer.get("network.feeder_topology").calls == 0


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in workloads.benchmark_spec()[kind]}


def test_declared_names_match_benchmark_json():
    spec = workloads.benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert declared("end_to_end") == workloads.END_TO_END
    assert declared("per_layer") == workloads.PER_LAYER
    assert set(json.loads(workloads.FINGERPRINTS.read_text())) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(tmp_path, monkeypatch, capsys, trace):
    short = short_scenario(tmp_path, "default-linear-market")
    monkeypatch.setattr(worker, "load", lambda workload, seed: short)

    def job(self, name, seconds=None):
        if name == "setup":
            return worker.job_setup("default-linear-market", 7)
        if name == "solve":
            return worker.job_solve("default-linear-market", 7, 0.0, str(tmp_path))
        return worker.job_traced("default-linear-market", 7, str(tmp_path))

    monkeypatch.setattr(run.Runner, "job", job)
    argv = ["--workload", "default-linear-market", "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--results", str(tmp_path / "results")]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = json.loads(lines[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared(kind)
    for name in declared(kind):
        assert any(line.split()[:1] == [name] for line in lines[:-1])
    # the short horizon ends not-converged, which must count as failed
    assert printed["failed"] == printed["attempted"] and not printed["correct"]
    record = json.loads(next((tmp_path / "results").glob("*.json")).read_text())
    for key in ("commit", "python", "numpy", "nproc", "blas_threads", "seed"):
        assert key in record


def test_comparator_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [10.2, 10.1, 10.3, 10.2, 10.25], 0.1) == "within bound"
    assert compare.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.05], 0.1) == "worse"
    assert compare.verdict(base, [5.0, 20.0, 10.0, 3.0, 30.0], 0.1) == "unresolved"
    assert compare.verdict(base, [5.0, 9.0, 7.0, 2.0, 8.0], 0.1) == "within bound"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], None) == "within bound"
    assert compare.verdict([0.0, 0.0], [0.5, 0.5], None) == "worse"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-ac",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
