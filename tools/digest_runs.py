#!/usr/bin/env python3
"""Print one sha256 per trace and per summary of the shipped runs.

The runs are ``default``, ``default_baseline``, ``dispatch9`` and
``oracle_demo``, each through the ``core``, ``market`` and ``market-br``
engines with linear and AC feedback, plus ``full39`` on the core engine
with AC feedback: 25 runs, written into a temporary directory that is
deleted afterwards.  ``dispatch9`` then runs once more through each
market engine and feedback on a recording bus, and the tool also prints
the digest of each journal as ``json.dumps`` writes it from
``to_jsonable``.  A change that must not move any trajectory or message
prints the same lines before and after it, which one command checks:

    python3 tools/digest_runs.py --against HEAD

``--against`` names a checkout directory or a git revision of the
repository holding this script; a revision is unpacked from
``git archive`` into a temporary directory.  Both checkouts run, each in
its own process and at the same time; the tool prints only the files
whose digests differ (the checked checkout's digest, then this one's)
and exits 1 if any differ, 0 if none, and 2 if the revision cannot be
archived or either checkout's runs fail.
``--src`` names the checkout whose ``src/tdcoopt`` (package and shipped
scenarios) is run; the default is the checkout holding this script.
The full set takes a few minutes.

``--blas-core NAME`` runs the ``--src`` checkout with
``OPENBLAS_CORETYPE=NAME`` set in its child process only, so OpenBLAS
uses that CPU kernel and no machine setting is touched, and prints the
digests that differ from the same checkout run natively (or from the
``--against`` checkout, when given):

    python3 tools/digest_runs.py --blas-core Haswell
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = ("default", "default_baseline", "dispatch9", "oracle_demo")
ENGINES = ("core", "market", "market-br")
FEEDBACKS = ("linear", "ac")
RUNS = tuple(itertools.product(SCENARIOS, ENGINES, FEEDBACKS)) + (
    ("full39", "core", "ac"),
)
JOURNALS = tuple(itertools.product(("dispatch9",), ("market", "market-br"), FEEDBACKS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        default=str(ROOT),
        help="checkout to run (default: this one)",
    )
    parser.add_argument(
        "--against",
        metavar="CHECKOUT",
        help="also run CHECKOUT (a directory or a git revision); "
        "print only the digests that differ",
    )
    parser.add_argument(
        "--blas-core",
        metavar="NAME",
        help="run the checkout with OPENBLAS_CORETYPE=NAME in its child process; "
        "print the digests that differ from a native run",
    )
    args = parser.parse_args(argv)
    if args.against is not None or args.blas_core is not None:
        return compare(args.src, args.against or args.src, args.blas_core)
    package = Path(args.src).resolve() / "src"
    sys.path.insert(0, str(package))
    from tdcoopt import scenario as scenario_module
    from tdcoopt.core import EngineError
    from tdcoopt.market import MessageBus, run_market
    from tdcoopt.scenario import load_scenario, run_scenario, run_scenario_in_memory

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
    for name, engine, feedback in JOURNALS:
        scenario = load_scenario(
            scenarios / f"{name}.json",
            overrides={"engine": engine, "feedback": feedback},
        )
        bus = MessageBus(record=True)
        # the scenario module calls the market engine by its own name for it
        recording = functools.partial(run_market, bus=bus)
        with mock.patch.object(scenario_module, "run_market", recording):
            try:
                run_scenario_in_memory(scenario)
            except EngineError:
                pass  # the journal holds the messages up to the failure
        journal = json.dumps([m.to_jsonable() for m in bus.journal])
        digest = hashlib.sha256(journal.encode()).hexdigest()
        print(f"{digest}  {name}-{engine}-{feedback}/journal.json", flush=True)
    return 0


def unpack_revision(rev: str, into: Path) -> Path:
    """Unpack ``git archive rev`` of this script's repository into ``into``.

    Raises :class:`subprocess.CalledProcessError` when git cannot archive
    ``rev``.
    """
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, keeps every member
        # inside ``into``
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    return into


def compare(src: str, against: str, blas_core: str | None = None) -> int:
    """Run both checkouts; print the files whose digests differ.

    With ``blas_core``, ``src`` runs with ``OPENBLAS_CORETYPE`` set to it
    and ``against`` without the variable; this process's own environment
    is left as it is.
    """
    envs = [None, None]  # inherit
    if blas_core is not None:
        native = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        envs = [native, {**native, "OPENBLAS_CORETYPE": blas_core}]
    with tempfile.TemporaryDirectory() as tmp:
        against_dir = against
        if not Path(against).is_dir():
            try:
                against_dir = str(unpack_revision(against, Path(tmp)))
            except subprocess.CalledProcessError as exc:
                print(f"cannot archive {against}: {exc.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
        runs = [
            subprocess.Popen(
                [sys.executable, __file__, "--src", path],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            for path, env in zip((against_dir, src), envs)
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
