"""Benchmark jobs, each run in a fresh process started by ``run.py``.

    python3 perfbench/worker.py setup|solve|traced WORKLOAD SEED SECONDS OUT_DIR

``setup`` times one cold set-up; ``solve`` runs the scenario untraced,
one run after another, until SECONDS of runs are measured (at least one);
``traced`` repeats the cold set-up and one run with every layer span on.
Each prints one JSON object on stdout.  ``tdcoopt`` must be importable
(``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
import traceback

import numpy as np
import tdcoopt
from tdcoopt import core, scenario as scenario_mod

import workloads
from spans import ENGINE_LAYERS, ROUND_LAYERS, SETUP_LAYERS, SweepStats, Tracer

ENGINE_SPAN = {"core": "core.loop", "market": "market.loop"}


def load(workload: str, seed: int):
    return scenario_mod.load_scenario(
        workloads.scenario_path(workload), workloads.overrides(workload, seed)
    )


def job_setup(workload: str, seed: int) -> dict:
    """Cold set-up: load the scenario, compile the problem, certify eps."""
    start = time.perf_counter()
    scenario = load(workload, seed)
    problem = core.build_problem(scenario.system, scenario.limits)
    core.check_stepsize(problem, scenario.config.eta)
    return {"setup_s": time.perf_counter() - start}


def run_once(scenario, out_dir, tracer: Tracer) -> tuple[dict, object]:
    """One ``run_scenario``; ``tracer`` must have the engine layers installed."""
    engine = tracer.get(ENGINE_SPAN[scenario.engine])
    engine_before = engine.total
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        start = time.perf_counter()
        artifacts = scenario_mod.run_scenario(scenario, tmp)
        solve_s = time.perf_counter() - start
    engine = tracer.get(ENGINE_SPAN[scenario.engine])
    sample = {
        "solve_s": solve_s,
        "engine_s": engine.total - engine_before,
        "iterations": artifacts.result.iterations,
        "fingerprint": workloads.fingerprint(artifacts.summary),
    }
    return sample, artifacts


def v_violation_max(scenario, x) -> float:
    """Worst band violation at setpoints ``x``, by the exact sweep."""
    problem = core.build_problem(scenario.system, scenario.limits)
    meas = core.measure(problem, x, feedback="ac")
    lim = scenario.limits
    worst = max(
        max(float(np.max(v - lim.v_max)), float(np.max(lim.v_min - v)))
        for v in meas.v
    )
    return max(worst, 0.0)


def job_solve(workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    scenario = load(workload, seed)
    tracer = Tracer()
    samples, errors = [], []
    final_x = None
    measured = 0.0
    with tracer.installed(ENGINE_LAYERS, tdcoopt):
        while True:
            start = time.perf_counter()
            try:
                sample, artifacts = run_once(scenario, out_dir, tracer)
                samples.append(sample)
                final_x = artifacts.result.x
                del artifacts  # one run's records at a time, for peak RSS
            except Exception:  # a failed run is a result, not a crash
                errors.append(traceback.format_exc())
            measured += time.perf_counter() - start
            if measured >= seconds:
                break
    out = {
        "samples": samples,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    if final_x is not None:
        out["v_violation_max"] = v_violation_max(scenario, final_x)
    return out


def per_layer(setup: Tracer, run: Tracer, sweeps: SweepStats, problem, rounds: int,
              trace_stats: dict) -> dict:
    """The per-layer metrics of ``workloads.PER_LAYER`` but ``tracing_overhead``."""
    def us(name):
        return 1e6 * run.get(name).self_time / rounds

    sweep_calls = run.get("acpf.sweep").calls
    publish = run.get("market.bus.publish")
    return {
        "network.feeder_topology.calls": run.get("network.feeder_topology").calls,
        "network.feeder_topology.us": us("network.feeder_topology"),
        "lindistflow.build_s": setup.get("lindistflow.build").total,
        # computed from array sizes, not measured: the dense A and B
        # matrices each round reads
        "lindistflow.dense_bytes": sum(m.A.nbytes + m.B.nbytes for m in problem.models),
        "acpf.sweep.calls": sweep_calls,
        "acpf.sweep.us": us("acpf.sweep"),
        "acpf.sweep.iters_mean": sweeps.iterations / sweep_calls if sweep_calls else 0.0,
        "acpf.sweep.iters_max": sweeps.iterations_max,
        "acpf.sweep.residual_max": sweeps.residual_max,
        "acpf.sweep.failed": sweeps.failed,
        "core.build_problem_s": setup.get("core.build_problem").total,
        "core.check_stepsize_s": setup.get("core.check_stepsize").total,
        "core.round.us": us("core.round"),
        "core.loop.us": us("core.loop"),
        "core.measure.us": us("core.measure"),
        "core.der_signals.us": us("core.der_signals"),
        "core.dual_update.us": us("core.dual_update"),
        "core.iteration_record.us": us("core.iteration_record"),
        "market.agent_step.us": us("market.agent_step"),
        "market.bus.messages": publish.calls / rounds,
        "market.bus.publish.us": us("market.bus.publish"),
        "market.operator.us": us("market.operator"),
        "market.loop.us": us("market.loop"),
        "trace.write_s": run.get("trace.write").total,
        "trace.bytes": trace_stats.get("bytes", 0),
        "trace.records": trace_stats.get("records", 0),
    }


def traced_run(scenario, out_dir) -> tuple[Tracer, SweepStats, dict, dict, object]:
    """One ``run_scenario`` with every round layer traced."""
    tracer = Tracer()
    sweeps = SweepStats()
    trace_stats: dict = {}

    def trace_written(args, result, error):
        path, records = args[0], args[1]
        trace_stats["bytes"] = path.stat().st_size
        trace_stats["records"] = len(records)

    tracer.observe("acpf.sweep", sweeps.observe)
    tracer.observe("trace.write", trace_written)
    with tracer.installed(ENGINE_LAYERS + ROUND_LAYERS, tdcoopt):
        sample, artifacts = run_once(scenario, out_dir, tracer)
    return tracer, sweeps, trace_stats, sample, artifacts


def job_traced(workload: str, seed: int, out_dir: str) -> dict:
    setup = Tracer()
    with setup.installed(SETUP_LAYERS, tdcoopt):
        scenario = load(workload, seed)
        problem = setup.call(
            "core.build_problem", core.build_problem, scenario.system, scenario.limits
        )
        setup.call("core.check_stepsize", core.check_stepsize, problem, scenario.config.eta)
    tracer, sweeps, trace_stats, sample, artifacts = traced_run(scenario, out_dir)
    layers = per_layer(
        setup, tracer, sweeps, problem, artifacts.result.iterations, trace_stats
    )
    return {"sample": sample, "layers": layers, "numpy": np.__version__}


def main(argv: list[str]) -> int:
    job, workload, seed, seconds, out_dir = argv
    seed = int(seed)
    if job == "setup":
        out = job_setup(workload, seed)
    elif job == "solve":
        out = job_solve(workload, seed, float(seconds), out_dir)
    elif job == "traced":
        out = job_traced(workload, seed, out_dir)
    else:
        raise SystemExit(f"unknown job {job!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
