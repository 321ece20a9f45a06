"""``tools/digest_runs.py --against`` takes a git revision as well as a
directory: the revision is unpacked from ``git archive``.  ``--blas-core``
and ``--no-compiler`` change the environment of one child alone."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import SCENARIOS_DIR

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("pinned_digests.json")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "digest_runs", ROOT / "tools" / "digest_runs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool():
    try:
        head = git("rev-parse", "--verify", "HEAD")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if head.returncode != 0:
        pytest.skip("not inside a git checkout with a commit")
    return load_tool()


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


def test_no_compiler_is_set_in_one_child_only(tool, monkeypatch, capsys):
    # --no-compiler runs the checkout natively and with no cc on PATH and
    # an empty private cache, both made for that child and removed after
    before = dict(tool.os.environ)
    children = []

    class Child:
        returncode = 0

        def __init__(self, args, stdout=None, text=None, env=None):
            if env and env["PATH"] != before.get("PATH"):
                cache = tool.Path(env["XDG_CACHE_HOME"])
                assert shutil.which("cc", path=env["PATH"]) is None
                assert tool.Path(env["PATH"]).is_dir()
                assert cache.is_dir() and not any(cache.iterdir())
                assert cache.stat().st_mode & 0o777 == 0o700
            children.append((args, env))
            self.out = f"{'a' * 64}  full39-core-ac/full39_trace.csv\n"

        def communicate(self):
            return self.out, None

    monkeypatch.setattr(tool.subprocess, "Popen", Child)
    assert tool.main(["--no-compiler"]) == 0
    assert dict(tool.os.environ) == before
    (native_args, native_env), (bare_args, bare_env) = children
    assert native_args[-2:] == bare_args[-2:] == ["--src", str(ROOT)]
    assert native_env == before
    assert bare_env == {**before, "PATH": bare_env["PATH"],
                        "XDG_CACHE_HOME": bare_env["XDG_CACHE_HOME"]}
    assert bare_env["PATH"] != before.get("PATH")
    assert not tool.Path(bare_env["PATH"]).exists()
    assert not tool.Path(bare_env["XDG_CACHE_HOME"]).exists()
    assert "0 of 1 files differ" in capsys.readouterr().err


def test_pinned_traces_and_journals_keep_their_bytes():
    # the traces and journals that came out the same under every OpenBLAS
    # kernel tried (tools/digest_runs.py --pin): a change that moves them
    # moves a trajectory or a message, on any host
    tool = load_tool()
    record = json.loads(PINNED.read_text())
    got = tool.pinned(SCENARIOS_DIR)
    differ = sorted(
        name for name in record["digests"].keys() | got.keys()
        if record["digests"].get(name) != got.get(name)
    )
    assert not differ, (
        f"{len(differ)} of {len(record['digests'])} pinned files differ: {differ}\n"
        f"pinned on: {record['host']}\nthis host: {tool.host()}"
    )
