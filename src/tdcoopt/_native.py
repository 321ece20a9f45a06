"""The package's compiled kernels: one CPython extension module.

``_kernels.c`` (the module and its argument checks), ``_sweep.c`` (the
feeder sweep, used by :mod:`tdcoopt.acpf`), ``_format.c`` (the trace
formatter, used by :mod:`tdcoopt.trace`) and ``_round.c`` (the round's
array steps, used by :mod:`tdcoopt.core`, and by :mod:`tdcoopt.market`'s
agents one agent at a time) are compiled together by the
system ``cc``, in one invocation, against the CPython and numpy headers,
the first time a kernel is needed: at the first round, AC sweep or trace
write, never at import or set-up.  The module is loaded with
:class:`importlib.machinery.ExtensionFileLoader`, and its functions take
numpy arrays and check every argument (dtype, layout, length, index
range) before they read it.  A feeder's tree and its place in its
network are checked once: ``bind_feeder`` copies them into a ``Feeder``,
which :mod:`tdcoopt.acpf` keeps beside the model and whose ``sweep``
checks only the call's own vectors, each spanning the network.

The library is cached under ``$XDG_CACHE_HOME/tdcoopt``, named by the
CRC-32 and length of a key made of the sources, the build flags, the
interpreter's extension ABI tag and numpy's version, and checked byte for
byte against a stored copy of that key before it is loaded.  Where no
library can be built or loaded (no ``cc``, no CPython or numpy headers,
no private cache directory), :func:`library` returns ``None`` after one
logged warning, and each caller runs its Python or numpy reference,
which gives the same results.

:func:`library` is the one place that decides between kernel and
reference: :mod:`tdcoopt.core`, :mod:`tdcoopt.acpf`, :mod:`tdcoopt.trace`
and :mod:`tdcoopt.market` call it through this module each time they decide
and keep no answer of their own, so patching ``_native.library`` to
return ``None`` runs every reference in-process.  The one exception is a
feeder model already bound to the kernel, which keeps its binding.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import shutil
import stat
import tempfile
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

import numpy as np

logger = logging.getLogger(__name__)

_HERE = Path(__file__).parent
_SOURCES = tuple(
    _HERE / name for name in ("_kernels.c", "_sweep.c", "_format.c", "_round.c")
)
_HEADERS = (_HERE / "_kernels.h",)
_BUILD = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)
# the module's name: the library defines PyInit__kernels
_MODULE = "tdcoopt._kernels"
_PREFIX = "kernels-"
# libraries a cache miss leaves in the cache: the new one and the newest
# others, so checkouts of a few sources in turn never rebuild each other's
_KEEP = 4


@functools.cache
def library() -> ModuleType | None:
    """The loaded extension module, built on the first call; ``None``
    where none can be.

    ``None`` (after one logged line) where no compiler, no private cache
    directory, no successful build or no loadable library is available.
    """
    cc = shutil.which("cc")
    try:
        if cc is None:
            raise FileNotFoundError("no C compiler (cc) on PATH")
        path = str(_build_kernel(cc, _cache_dir()))
        loader = ExtensionFileLoader(_MODULE, path)
        return module_from_spec(spec_from_file_location(_MODULE, path, loader=loader))
    except (OSError, ImportError) as exc:
        logger.warning(
            "compiled kernels unavailable, using the Python sweep and trace "
            "formatter and the numpy round: %s", exc,
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
    """Each source's and header's name, length and bytes, then the build
    flags, the extension ABI tag (as ``.cpython-311-x86_64-linux-gnu.so``)
    and numpy's version: the library links against both."""
    key = b""
    for source in _SOURCES + _HEADERS:
        text = source.read_bytes()
        key += f"{source.name} {len(text)}\n".encode() + text
    key += " ".join(_BUILD + _LIBS).encode()
    return key + f"\n{EXTENSION_SUFFIXES[0]} numpy {np.__version__}".encode()


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
    import sysconfig

    includes = (sysconfig.get_paths()["include"], np.get_include())

    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{_PREFIX}", suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *_BUILD, *(f"-I{d}" for d in includes), "-o", tmp,
             *map(str, _SOURCES), *_LIBS],
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
    for old in directory.glob(f"{_PREFIX}*.so"):
        if old != built:
            with contextlib.suppress(OSError):  # removed meanwhile
                aged.append((old.stat().st_mtime_ns, old))
    aged.sort(reverse=True)
    for _, old in aged[_KEEP - 1 :]:
        for path in (old, old.with_suffix(".key")):
            with contextlib.suppress(OSError):
                path.unlink()
