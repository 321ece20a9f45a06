"""``tools/digest_runs.py --against`` takes a git revision as well as a
directory: the revision is unpacked from ``git archive``."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)


@pytest.fixture
def tool():
    try:
        head = git("rev-parse", "--verify", "HEAD")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if head.returncode != 0:
        pytest.skip("not inside a git checkout with a commit")
    spec = importlib.util.spec_from_file_location(
        "digest_runs", ROOT / "tools" / "digest_runs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_revision_unpacks_to_its_tracked_files(tool, tmp_path):
    out = tool.unpack_revision("HEAD", tmp_path)
    tracked = git("ls-tree", "-r", "--name-only", "HEAD").stdout.decode()
    unpacked = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
    assert sorted(unpacked) == sorted(tracked.splitlines())
    script = "tools/digest_runs.py"
    assert (out / script).read_bytes() == git("show", f"HEAD:{script}").stdout


def test_unknown_revision_is_refused(tool, tmp_path, capsys):
    with pytest.raises(subprocess.CalledProcessError):
        tool.unpack_revision("no-such-revision", tmp_path)
    # before any run starts
    assert tool.compare(str(ROOT), "no-such-revision") == 2
    assert "cannot archive no-such-revision" in capsys.readouterr().err
