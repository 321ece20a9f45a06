"""The package's compiled library: the feeder sweep and the trace formatter.

``_sweep.c`` (used by :mod:`tdcoopt.acpf`) and ``_format.c`` (used by
:mod:`tdcoopt.trace`) are compiled together by the system ``cc``, in one
invocation, the first time either kernel is needed: at the first AC sweep
or the first trace write, never at import.  The library is cached under
``$XDG_CACHE_HOME/tdcoopt``, named by the CRC-32 and length of a key made
of both sources and the build flags, and checked byte for byte against a
stored copy of that key before it is loaded.  Where no library can be
built, :func:`library` returns ``None`` and both modules run their Python
reference, which gives the same results.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import shutil
import stat
import tempfile
import zlib
from pathlib import Path

logger = logging.getLogger(__name__)

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_sweep.c", "_format.c"))
_BUILD = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)
_PREFIX = "kernels-"
# libraries a cache miss leaves in the cache: the new one and the newest
# others, so checkouts of a few sources in turn never rebuild each other's
_KEEP = 4
# names of cached libraries, this one's and those of older versions of
# the package, which held the sweep alone
_CACHED = (f"{_PREFIX}*.so", "sweep-*.so")


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded library, built on the first call; ``None`` where none can be.

    ``None`` (after one logged line) where no compiler, no private cache
    directory or no successful build is available.
    """
    cc = shutil.which("cc")
    try:
        if cc is None:
            raise FileNotFoundError("no C compiler (cc) on PATH")
        return ctypes.CDLL(str(_build_kernel(cc, _cache_dir())))
    except OSError as exc:
        logger.warning(
            "compiled kernels unavailable, using the Python sweep and trace "
            "formatter: %s", exc,
        )
        return None


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/tdcoopt`` (default ``~/.cache/tdcoopt``).

    Created with mode 0700; refused unless it is a real directory owned
    by this user that nobody else can write to.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    directory = Path(base, "tdcoopt")
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = directory.lstat()
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(f"{directory} is not a private directory")
    return directory


def _key() -> bytes:
    """Each source's name, length and bytes, then the build flags."""
    key = b""
    for source in _SOURCES:
        text = source.read_bytes()
        key += f"{source.name} {len(text)}\n".encode() + text
    return key + " ".join(_BUILD + _LIBS).encode()


def _build_kernel(cc: str, directory: Path) -> Path:
    """Path of the library in ``directory``, compiled by ``cc`` if missing.

    The library is named after the CRC-32 and length of :func:`_key`, and
    a copy of the key sits beside it (``.key``); a library is used only
    when that copy equals the key byte for byte, and rebuilt otherwise.
    Each file is written under a temporary name and renamed into place,
    the library first.  A build then removes all but the ``_KEEP`` newest
    libraries (by mtime, the new one always kept) with their keys,
    skipping files it cannot remove.
    """
    key = _key()
    stem = f"{_PREFIX}{zlib.crc32(key):08x}-{len(key)}"
    built = directory / f"{stem}.so"
    stored = directory / f"{stem}.key"
    try:
        if built.exists() and stored.read_bytes() == key:
            return built
    except FileNotFoundError:
        pass
    # imported on a cache miss only: subprocess adds ~0.4 MB resident
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{_PREFIX}", suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *_BUILD, "-o", tmp, *map(str, _SOURCES), *_LIBS],
            capture_output=True, timeout=300,
        )
        if done.returncode != 0:
            stderr = done.stderr.decode(errors="replace").strip()
            first = (stderr.splitlines() or ["no output"])[0]
            raise OSError(f"cc exited with status {done.returncode}: {first}")
        os.replace(tmp, built)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{_PREFIX}", suffix=".key")
        with os.fdopen(fd, "wb") as f:
            f.write(key)
        os.replace(tmp, stored)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"cc did not finish within {exc.timeout} s") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(directory, built)
    return built


def _prune(directory: Path, built: Path) -> None:
    """Remove every library of ``directory`` but ``built`` and the
    ``_KEEP - 1`` newest others, each with its key; skip what fails."""
    aged = []
    for pattern in _CACHED:
        for old in directory.glob(pattern):
            if old != built:
                with contextlib.suppress(OSError):  # removed meanwhile
                    aged.append((old.stat().st_mtime_ns, old))
    aged.sort(reverse=True)
    for _, old in aged[_KEEP - 1 :]:
        for path in (old, old.with_suffix(".key")):
            with contextlib.suppress(OSError):
                path.unlink()
