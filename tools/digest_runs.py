#!/usr/bin/env python3
"""Print one sha256 per trace and per summary of the shipped runs.

The runs are ``default``, ``default_baseline``, ``dispatch9`` and
``oracle_demo``, each through the ``core`` and ``market`` engines with
linear and AC feedback, plus ``full39`` on the core engine with AC
feedback: 17 runs, written into a temporary directory that is deleted
afterwards.  ``dispatch9`` then runs once more through the market engine
with each feedback on a recording bus, and the tool also prints the
digest of each journal as ``json.dumps`` writes it from
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

``--pin FILE`` writes the digests of the traces that no OpenBLAS
kernel has been seen to move (``dispatch9`` and ``oracle_demo``) and of
the journals into FILE, with the numpy version, OpenBLAS kernel and CPU
features of the host; the test suite recomputes them.

``--no-compiler`` runs the ``--src`` checkout in the same way with no
``cc`` on its ``PATH`` and a new, empty, private cache directory, which
is removed afterwards, so it runs the package's Python and numpy paths;
this process keeps its own ``PATH``, so ``--against`` may still name a
revision:

    python3 tools/digest_runs.py --no-compiler --against HEAD
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
ENGINES = ("core", "market")
FEEDBACKS = ("linear", "ac")
RUNS = tuple(itertools.product(SCENARIOS, ENGINES, FEEDBACKS)) + (
    ("full39", "core", "ac"),
)
JOURNALS = tuple(itertools.product(("dispatch9",), ("market",), FEEDBACKS))
# the runs whose traces (and the journals) came out the same under every
# OpenBLAS kernel tried; ``--pin`` records their digests for the test suite
PINNED_SCENARIOS = ("dispatch9", "oracle_demo")
PIN_NOTE = (
    "sha256 of the dispatch9 and oracle_demo traces and the dispatch9 journals "
    "(tools/digest_runs.py --pin), identical natively and under "
    "OPENBLAS_CORETYPE=Haswell and Prescott on the host below; "
    "a change that moves them on purpose rewrites this file and says so"
)


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
    parser.add_argument(
        "--pin",
        metavar="FILE",
        help="write the digests of the pinned traces and journals, and the host "
        "they were made on, into FILE",
    )
    parser.add_argument(
        "--no-compiler",
        action="store_true",
        help="run the checkout with no cc on PATH and an empty cache directory in "
        "its child process; print the digests that differ from a native run",
    )
    args = parser.parse_args(argv)
    if args.against is not None or args.blas_core is not None or args.no_compiler:
        return compare(
            args.src, args.against or args.src, args.blas_core, args.no_compiler
        )
    package = Path(args.src).resolve() / "src"
    sys.path.insert(0, str(package))
    scenarios = package / "tdcoopt" / "scenarios"
    if args.pin is not None:
        pin(scenarios, Path(args.pin))
        return 0
    for name, digest in digests(scenarios):
        print(f"{digest}  {name}", flush=True)
    return 0


def digests(scenarios: Path, runs=RUNS, journals=JOURNALS):
    """Yield ``(name, sha256)`` of each run's trace and summary, written
    into a temporary directory, then of each journal, as ``main`` prints
    them; ``tdcoopt`` must be importable."""
    from tdcoopt import scenario as scenario_module
    from tdcoopt.core import EngineError
    from tdcoopt.market import MessageBus, run_market
    from tdcoopt.scenario import load_scenario, run_scenario, run_scenario_in_memory

    with tempfile.TemporaryDirectory() as tmp:
        for name, engine, feedback in runs:
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
                yield f"{out.name}/{path.name}", digest
    for name, engine, feedback in journals:
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
        yield f"{name}-{engine}-{feedback}/journal.json", digest


def pinned(scenarios: Path) -> dict:
    """The digests of the ``PINNED_SCENARIOS`` traces and of the journals,
    by name."""
    runs = tuple((n, e, f) for n, e, f in RUNS if n in PINNED_SCENARIOS)
    return {
        name: digest
        for name, digest in digests(scenarios, runs, JOURNALS)
        if not name.endswith("_summary.json")
    }


def host() -> dict:
    """What the digests were found to depend on: numpy's version, the
    CPU kernel OpenBLAS picked and the SIMD features numpy found."""
    import ctypes
    import numpy as np

    core = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text()
        paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                core = corename().decode()
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "numpy": np.__version__,
        "openblas_core": core,
        "cpu_features": " ".join(sorted(k for k, on in features.items() if on)),
    }


def pin(scenarios: Path, path: Path) -> None:
    """Write ``pinned(scenarios)`` and ``host()`` into ``path`` as JSON."""
    record = {
        "about": PIN_NOTE,
        "host": host(),
        "digests": pinned(scenarios),
    }
    path.write_text(json.dumps(record, indent=2) + "\n")


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


def compare(
    src: str, against: str, blas_core: str | None = None, no_compiler: bool = False
) -> int:
    """Run both checkouts; print the files whose digests differ.

    With ``blas_core``, ``src`` runs with ``OPENBLAS_CORETYPE`` set to it
    and ``against`` without the variable.  With ``no_compiler``, ``src``
    runs with ``PATH`` naming only an empty directory and
    ``XDG_CACHE_HOME`` a new private one, both removed afterwards.  This
    process's own environment is left as it is.
    """
    envs = [None, None]  # inherit
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as bare:
        if blas_core is not None or no_compiler:
            native = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            envs = [native, dict(native)]
        if blas_core is not None:
            envs[1]["OPENBLAS_CORETYPE"] = blas_core
        if no_compiler:
            empty, cache = Path(bare, "bin"), Path(bare, "cache")
            empty.mkdir()
            cache.mkdir(mode=0o700)
            envs[1].update(PATH=str(empty), XDG_CACHE_HOME=str(cache))
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
