"""The documented commands work: the README's CLI block, the demos and
the scenario format's example.

Every ``tdcoopt`` line of the README's command-line block runs through
``cli.main`` in a scratch directory, the full ``default.json`` run
(~1.5 s) included.  Every demo runs in a scratch directory too; demo 05
makes two full runs (~4 s).  The example file of
``docs/scenario_format.md`` loads, its case paths read as the shipped
scenarios' are.
"""

from __future__ import annotations

import json
import re
import runpy
import shlex
from pathlib import Path

import pytest

from tdcoopt.cli import main
from tdcoopt.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "tdcoopt" / "scenarios"


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"from the command line:\n\n```sh\n(.*?)```", text, re.S)
    assert block, "README lost its command-line block"
    return [
        shlex.split(line)[1:]
        for line in block.group(1).splitlines()
        if line.startswith("tdcoopt ")
    ]


def test_readme_cli_commands(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "compare", "oracle", "lindump"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        # inputs shipped with the repo resolve against its root; outputs
        # land in the scratch directory
        argv = [str(ROOT / a) if a.startswith("src/") else a for a in argv]
        assert main(argv) == 0, argv
    assert "final a - b   : 0.000000" in capsys.readouterr().out
    written = {f.name for f in (tmp_path / "model_csvs").iterdir()}
    assert written == {f"feeder4_{piece}.csv" for piece in "ABcd"}
    assert {f.name for f in (tmp_path / "runs").iterdir()} >= {
        "default_trace.csv", "default_summary.json",
    }


@pytest.mark.parametrize(
    "demo",
    [
        "01_cases_and_linear_model.py",
        "02_radial_sweep.py",
        "03_economic_dispatch.py",
        "04_market_equivalence.py",
        "05_full_protocol.py",
    ],
)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 05 writes its runs into ./runs/
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out


def test_scenario_format_example_loads(tmp_path):
    text = (ROOT / "docs" / "scenario_format.md").read_text()
    block = re.search(r"```json\n(.*?)```", text, re.S)
    assert block, "the scenario format lost its example"
    raw = json.loads(block.group(1))
    # the example's case paths are relative to the shipped scenarios
    raw["transmission"] = str(SCENARIOS / raw["transmission"])
    for entry in raw["feeders"]:
        entry["case"] = str(SCENARIOS / entry["case"])
    path = tmp_path / "example.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(path)
    assert (sc.name, sc.engine, sc.config.feedback) == ("default", "core", "ac")
    assert sc.config.tol == 0.001
    assert len(sc.events) == 2 and sc.probes == {"case33bw": 18}
