#!/usr/bin/env python3
"""Print one sha256 per trace and per summary of the shipped runs.

The runs are ``default``, ``default_baseline``, ``dispatch9`` and
``oracle_demo``, each through the ``core``, ``market`` and ``market-br``
engines with linear and AC feedback, plus ``full39`` on the core engine
with AC feedback: 25 runs, written into a temporary directory that is
deleted afterwards.  A change that must not move any trajectory prints
the same lines before and after it:

    python3 tools/digest_runs.py > after.txt
    python3 tools/digest_runs.py --src ../parent-checkout > before.txt
    diff before.txt after.txt

``--src`` names the checkout whose ``src/tdcoopt`` (package and shipped
scenarios) is run; the default is the checkout holding this script.
The full set takes a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
