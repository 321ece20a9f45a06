"""Command-line front end.

Subcommands
-----------
run
    Execute a scenario file; writes ``<name>_trace.csv`` and
    ``<name>_summary.json`` into ``--out``.  Exit code 0 when the run
    converged, 2 when it hit the iteration limit, 1 on any error.
compare
    Diff two trace files on a shared horizon (currently the total-cost
    metric) and print per-run finals and the delta.
oracle
    Solve a scenario's post-event affine-model dispatch exactly; print its
    gap to the engine's point and that linear-feedback run's status.  Exit
    code 0 when the run converged, 2 when it hit the limit, 1 on any error.
lindump
    Debug aid: write the affine feeder-model pieces (A, B, c, d)
    of one feeder case as CSV files.

Logging verbosity comes from the ``TDCOOPT_LOG`` environment variable
(one of DEBUG/INFO/WARNING/ERROR; default WARNING) — there is no flag
for it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .core import FEEDBACK_MODES, EngineError
from .lindistflow import build_lindistflow
from .network import CaseError, DistributionFeeder, parse_case
from .scenario import (
    ENGINES,
    OracleInfeasible,
    compare_runs,
    load_scenario,
    probe_oracle,
    run_scenario,
)

__all__ = ["main"]

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcoopt",
        description=(
            "Joint transmission dispatch and distribution voltage "
            "regulation via distributed price signals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--engine", choices=ENGINES, default=None)
    run_p.add_argument("--feedback", choices=FEEDBACK_MODES, default=None)
    run_p.add_argument("--max-iter", type=int, default=None)
    run_p.add_argument("--eps", type=float, default=None)
    run_p.add_argument("--eta", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=None)

    cmp_p = sub.add_parser("compare", help="diff two trace files")
    cmp_p.add_argument("trace_a")
    cmp_p.add_argument("trace_b")
    cmp_p.add_argument("--metric", default="total-cost")

    orc_p = sub.add_parser(
        "oracle", help="exact affine-model optimum vs the engine's point"
    )
    orc_p.add_argument("scenario")

    dump_p = sub.add_parser(
        "lindump", help="write one feeder's affine model pieces as CSVs"
    )
    dump_p.add_argument("case", help="path to a feeder case JSON file")
    dump_p.add_argument("--out", default=".", help="output directory")
    return parser


def _cmd_run(args) -> int:
    overrides = {
        "engine": args.engine,
        "feedback": args.feedback,
        "max_iter": args.max_iter,
        "eps": args.eps,
        "eta": args.eta,
        "seed": args.seed,
    }
    scenario = load_scenario(args.scenario, overrides=overrides)
    artifacts = run_scenario(scenario, out_dir=args.out)
    summary = artifacts.summary
    print(f"scenario : {summary['scenario']}")
    print(f"engine   : {summary['engine']} ({summary['feedback']} feedback)")
    print(f"status   : {summary['status']} after {summary['iterations']} iterations")
    print(f"lambda   : {summary['final']['lambda']:.6f}")
    print(f"cost     : {summary['final']['total_cost']:.6f}")
    print(f"trace    : {artifacts.trace_path}")
    print(f"summary  : {artifacts.summary_path}")
    return 0 if summary["status"] == "converged" else 2


def _cmd_compare(args) -> int:
    report = compare_runs(args.trace_a, args.trace_b, metric=args.metric)
    print(f"metric        : {report.metric}")
    print(f"records       : {len(report.iterations)}")
    print(f"final a       : {report.final_a:.6f}")
    print(f"final b       : {report.final_b:.6f}")
    print(f"final a - b   : {report.final_delta:.6f}")
    print(f"mean a - b    : {float(np.mean(report.deltas)):.6f}")
    print(f"max |a - b|   : {float(np.max(np.abs(report.deltas))):.6f}")
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    report = probe_oracle(scenario)
    status = "converged" if report.converged else "not-converged"
    print(f"engine status    : {status} after {report.iterations} iterations")
    print(f"oracle objective : {report.objective_oracle:.8f}")
    print(f"engine objective : {report.objective_engine:.8f}")
    print(f"relative gap     : {report.objective_gap_rel:.3e}")
    print(f"coordinate gap   : {report.coordinate_gap_inf:.3e}")
    print(f"engine violation : {report.engine_feasibility:.3e}")
    return 0 if report.converged else 2


def _cmd_lindump(args) -> int:
    path = Path(args.case)
    feeder = parse_case(path.read_text())
    if not isinstance(feeder, DistributionFeeder):
        raise CaseError(f"{path}: not a feeder case")
    model = build_lindistflow(feeder)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = feeder.feeder_id
    for name, arr in (("A", model.A), ("B", model.B), ("c", model.c)):
        target = out / f"{stem}_{name}.csv"
        np.savetxt(target, np.atleast_2d(arr), delimiter=",")
        print(f"wrote {target}")
    target = out / f"{stem}_d.csv"
    np.savetxt(target, np.array([[model.d]]), delimiter=",")
    print(f"wrote {target}")
    return 0


def main(argv=None) -> int:
    level = os.environ.get("TDCOOPT_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "oracle": _cmd_oracle,
        "lindump": _cmd_lindump,
    }[args.command]
    try:
        return handler(args)
    except (EngineError, OracleInfeasible, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
