#!/usr/bin/env python3
"""Print one sha256 per trace and per summary of the shipped runs.

The runs are ``default``, ``default_baseline``, ``dispatch9`` and
``oracle_demo``, each through the ``core``, ``market`` and ``market-br``
engines with linear and AC feedback, plus ``full39`` on the core engine
with AC feedback: 25 runs, written into a temporary directory that is
deleted afterwards.  A change that must not move any trajectory prints
the same lines before and after it, which one command checks:

    python3 tools/digest_runs.py --against ../parent-checkout

``--against`` runs both checkouts, each in its own process and at the
same time, prints only the files whose digests differ (the checked
checkout's digest, then this one's) and exits 1 if any differ, 0 if
none, and 2 if either checkout's runs fail.
``--src`` names the checkout whose ``src/tdcoopt`` (package and shipped
scenarios) is run; the default is the checkout holding this script.
The full set takes a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("default", "default_baseline", "dispatch9", "oracle_demo")
ENGINES = ("core", "market", "market-br")
FEEDBACKS = ("linear", "ac")
RUNS = tuple(itertools.product(SCENARIOS, ENGINES, FEEDBACKS)) + (
    ("full39", "core", "ac"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent),
        help="checkout to run (default: this one)",
    )
    parser.add_argument(
        "--against",
        metavar="CHECKOUT",
        help="also run CHECKOUT; print only the digests that differ",
    )
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.src, args.against)
    package = Path(args.src).resolve() / "src"
    sys.path.insert(0, str(package))
    from tdcoopt.core import EngineError
    from tdcoopt.scenario import load_scenario, run_scenario

    scenarios = package / "tdcoopt" / "scenarios"
    with tempfile.TemporaryDirectory() as tmp:
        for name, engine, feedback in RUNS:
            scenario = load_scenario(
                scenarios / f"{name}.json",
                overrides={"engine": engine, "feedback": feedback},
            )
            out = Path(tmp) / f"{name}-{engine}-{feedback}"
            try:
                run_scenario(scenario, out)
            except EngineError:
                pass  # a failed run still writes its trace and summary
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {out.name}/{path.name}", flush=True)
    return 0


def compare(src: str, against: str) -> int:
    """Run both checkouts; print the files whose digests differ."""
    runs = [
        subprocess.Popen(
            [sys.executable, __file__, "--src", checkout],
            stdout=subprocess.PIPE,
            text=True,
        )
        for checkout in (against, src)
    ]
    outputs = [run.communicate()[0] for run in runs]
    for run, checkout in zip(runs, (against, src)):
        if run.returncode != 0:
            print(f"runs of {checkout} failed (exit {run.returncode})", file=sys.stderr)
            return 2
    before, after = (
        {
            name: digest
            for digest, name in (line.split("  ", 1) for line in out.splitlines())
        }
        for out in outputs
    )
    differ = 0
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) != after.get(name):
            differ += 1
            print(f"{before.get(name, '-')} {after.get(name, '-')}  {name}")
    print(f"{differ} of {len(before.keys() | after.keys())} files differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
