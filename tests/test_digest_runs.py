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


def test_blas_core_is_set_in_one_child_only(tool, monkeypatch, capsys):
    # --blas-core runs the checkout twice, natively and with the kernel
    # named; the variable reaches that child's environment and nothing else
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")  # must not reach a child
    before = dict(tool.os.environ)
    children = []

    class Child:
        returncode = 0

        def __init__(self, args, stdout=None, text=None, env=None):
            children.append((args, env))
            digest = "b" if env and env.get("OPENBLAS_CORETYPE") else "a"
            self.out = f"{digest * 64}  full39-core-ac/full39_trace.csv\n"
            self.out += f"{'c' * 64}  full39-core-ac/full39_summary.json\n"

        def communicate(self):
            return self.out, None

    monkeypatch.setattr(tool.subprocess, "Popen", Child)
    assert tool.main(["--blas-core", "Haswell"]) == 1
    assert dict(tool.os.environ) == before
    (native_args, native_env), (core_args, core_env) = children
    assert native_args[-2:] == core_args[-2:] == ["--src", str(ROOT)]
    expected = {k: v for k, v in before.items() if k != "OPENBLAS_CORETYPE"}
    assert native_env == expected
    assert core_env == {**expected, "OPENBLAS_CORETYPE": "Haswell"}
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{'a' * 64} {'b' * 64}  full39-core-ac/full39_trace.csv"]
    assert "1 of 2 files differ" in err
