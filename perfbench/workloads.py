"""Workload table, declared metrics and the correctness fingerprint."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "tdcoopt" / "scenarios"
FINGERPRINTS = HERE / "fingerprints.json"


@dataclass(frozen=True)
class Workload:
    scenario: str
    overrides: dict = field(default_factory=dict)


# Why each was chosen is recorded in BENCHMARK.json and README.md.  All
# three start from the case files' setpoints, so the seed (passed on as
# the scenario's ``seed`` override) does not change the inputs.
WORKLOADS = {
    "default-ac": Workload("default.json"),
    "default-linear-market": Workload(
        "default.json", {"engine": "market", "feedback": "linear"}
    ),
    "full39-ac": Workload("full39.json"),
}

# end-to-end metrics printed with --trace 0, with their units
END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "iter_us": "us",
    "iterations": "count",
    "peak_rss_mb": "MB",
}
# reported and compared, but zero at the seed commit, so no relative bound
# can be set on them (see README.md)
QUALITY = {"v_violation_max": "p.u.", "failed_ratio": "ratio"}

# per-layer metrics printed with --trace 1, with their units
PER_LAYER = {
    "network.feeder_topology.calls": "count",
    "network.feeder_topology.us": "us/round",
    "lindistflow.build_s": "s",
    "lindistflow.dense_bytes": "bytes",
    "acpf.sweep.calls": "count",
    "acpf.sweep.us": "us/round",
    "acpf.sweep.iters_mean": "count",
    "acpf.sweep.iters_max": "count",
    "acpf.sweep.residual_max": "p.u.",
    "acpf.sweep.failed": "count",
    "core.build_problem_s": "s",
    "core.check_stepsize_s": "s",
    "core.round.us": "us/round",
    "core.loop.us": "us/round",
    "core.measure.us": "us/round",
    "core.der_signals.us": "us/round",
    "core.dual_update.us": "us/round",
    "core.iteration_record.us": "us/round",
    "market.agent_step.us": "us/round",
    "market.bus.messages": "count/round",
    "market.bus.publish.us": "us/round",
    "market.operator.us": "us/round",
    "market.loop.us": "us/round",
    "trace.write_s": "s",
    "trace.bytes": "bytes",
    "trace.records": "count",
    "tracing_overhead": "ratio",
}


def scenario_path(workload: str) -> Path:
    return SCENARIOS / WORKLOADS[workload].scenario


def overrides(workload: str, seed: int) -> dict:
    return {**WORKLOADS[workload].overrides, "seed": seed}


def fingerprint(summary: dict) -> dict:
    """Final state a pure speed-up must leave bit-identical."""
    final = summary["final"]
    return {
        "status": summary["status"],
        "iterations": summary["iterations"],
        "lambda": final["lambda"],
        "P_M": final["P_M"],
        "voltage": final["voltage"],
    }


def expected_fingerprint(workload: str) -> dict | None:
    return json.loads(FINGERPRINTS.read_text()).get(workload)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
