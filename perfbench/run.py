"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload default-ac --seed 1 --seconds 10 --trace 0

Untraced (``--trace 0``): several cold set-ups, each in a fresh process,
then one fresh process that runs the scenario through the public API
(``load_scenario`` then ``run_scenario``, as ``tdcoopt run`` does), one run
after another, until ``--seconds`` of runs are measured (at least one).
Traced (``--trace 1``): one untraced run and one run with every layer
span on, each in a fresh process; the traced run must reproduce the
untraced final state bit for bit.

Every run's final state is checked against ``fingerprints.json``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give the same numbers for
people.  A result file recording the environment goes to ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0  # the whole invocation, set-ups included
SETUP_PROBES_MIN = 3
SETUP_PROBES_MAX = 15
SETUP_PROBE_BUDGET_S = 3.0
BLAS_THREADS = 1


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(workloads.SRC)
    # A single BLAS thread: each round's products are small matvecs, where
    # a second thread costs more CPU than it saves and makes timings
    # depend on whatever else runs on the other core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts worker processes one at a time, within the overall deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path):
        self.args = [workload, str(seed), str(seconds), str(tmp)]
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def job(self, name: str, seconds: float | None = None) -> dict:
        args = list(self.args)
        if seconds is not None:
            args[2] = str(seconds)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {name} job")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), name, *args],
                cwd=workloads.ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} job exceeded the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name} job failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def check_runs(samples: list[dict], errors: list, expected: dict | None) -> int:
    """Failed runs: raised, ended not-converged, or a fingerprint mismatch."""
    bad = sum(
        1 for s in samples
        if s["fingerprint"]["status"] != "converged" or s["fingerprint"] != expected
    )
    return bad + len(errors)


def untraced(runner: Runner, workload: str) -> dict:
    probes: list[float] = []
    spent = 0.0
    while len(probes) < SETUP_PROBES_MIN or (
        spent < SETUP_PROBE_BUDGET_S and len(probes) < SETUP_PROBES_MAX
    ):
        start = time.monotonic()
        probes.append(runner.job("setup")["setup_s"])
        spent += time.monotonic() - start
    solve = runner.job("solve")
    samples = solve["samples"]
    if not samples:
        raise BenchError("every run failed:\n" + "\n".join(solve["errors"]))
    attempted = len(samples) + len(solve["errors"])
    failed = check_runs(samples, solve["errors"], workloads.expected_fingerprint(workload))
    metrics = {
        "solve_s": statistics.median(s["solve_s"] for s in samples),
        "setup_s": statistics.median(probes),
        "iter_us": statistics.median(1e6 * s["engine_s"] / s["iterations"] for s in samples),
        "iterations": statistics.median_low(s["iterations"] for s in samples),
        "peak_rss_mb": solve["peak_rss_mb"],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "quality": {
            "v_violation_max": solve.get("v_violation_max"),
            "failed_ratio": failed / attempted,
        },
        "samples": samples,
        "setup_samples": probes,
        "errors": solve["errors"],
        "numpy": solve["numpy"],
    }


def traced(runner: Runner, workload: str) -> dict:
    base = runner.job("solve", seconds=0)  # exactly one run
    if not base["samples"]:
        raise BenchError("the untraced run failed:\n" + "\n".join(base["errors"]))
    out = runner.job("traced")
    plain, sample = base["samples"][0], out["sample"]
    # both must equal the recorded fingerprint, hence each other bit for bit
    failed = check_runs([plain, sample], [], workloads.expected_fingerprint(workload))
    metrics = dict(out["layers"])
    metrics["tracing_overhead"] = (
        (sample["engine_s"] / sample["iterations"])
        / (plain["engine_s"] / plain["iterations"])
        - 1.0
    )
    return {
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
        "samples": [plain, sample],
        "numpy": out["numpy"],
    }


def report(record: dict) -> list[str]:
    trace = record["trace"]
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    runs = len(record["samples"])
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {trace}  "
        f"runs {runs}  commit {record['commit']}  python {record['python']}  "
        f"numpy {record['numpy']}  nproc {record['nproc']}  "
        f"blas_threads {record['blas_threads']}"
    ]
    for name, unit in units.items():
        value = record["metrics"][name]
        note = ""
        if name == "setup_s":
            note = f"  median of {len(record['setup_samples'])} cold set-ups"
        elif name in ("solve_s", "iter_us", "iterations"):
            note = f"  median of {runs} runs"
        lines.append(f"  {name:32s} {value:>16.6g} {unit}{note}")
    for name, value in record.get("quality", {}).items():
        lines.append(f"  {name:32s} {value:>16.6g} {workloads.QUALITY[name]}")
    verdict = "ok" if record["failed"] == 0 else "MISMATCH OR FAILURE"
    lines.append(
        f"  fingerprints {verdict}: {record['failed']} of {record['attempted']} runs failed"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results", type=Path, default=HERE / "out",
        help="directory for the result file (default perfbench/out)",
    )
    args = parser.parse_args(argv)

    if not (workloads.SRC / "tdcoopt" / "__init__.py").is_file():
        print(f"error: no tdcoopt source under {workloads.SRC}", file=sys.stderr)
        return 2
    tmp = args.results / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds, tmp)
    try:
        result = (traced if args.trace else untraced)(runner, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": result.pop("numpy"),
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu_model(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n")

    for line in report(record):
        print(line)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
