"""Persistent on-disk kernel cache for the replay JIT's emitter.

Compiled kernel code objects land under ``.repro_cache/kernels/``,
keyed on (neutral source hash, emitter cache version, repro version,
Python minor version) — any of those changing simply misses, it never
invalidates in place.  Payload layout::

    [4-byte little-endian CRC32 of the rest][pickle of
        {"format", "digest", "code": marshal bytes, "meta"}]

Loads are corruption-tolerant in the same spirit as the PR 5 journal:
a truncated file, a flipped bit, an unreadable pickle, or a foreign
marshal payload each produce one :class:`RuntimeWarning` and a ``None``
return — the caller recompiles and overwrites.  Stores are atomic
(temp file + ``os.replace``) and degrade silently on OSError: a
read-only cache directory must never break a run.

The cache obeys the calibration cache's disk switch
(:func:`repro.cache.configure_from_env` / ``REPRO_NO_DISK_CACHE``):
with the disk layer off, :func:`load` and :func:`store` are no-ops.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import pickle
import sys
import tempfile
import warnings
import zlib
from pathlib import Path

from repro._version import __version__

_FORMAT = "repro-kernel-1"


def _enabled() -> bool:
    from repro.cache import CALIBRATION

    return CALIBRATION.disk_enabled


def kernel_dir() -> Path:
    from repro.cache import cache_root

    return cache_root() / "kernels"


def digest(cache_version: int, source: str) -> str:
    """Stable identity of one (kernel, emitter, toolchain) combination.

    Python's minor version participates because ``marshal`` bytecode is
    not portable across interpreter versions.
    """
    key = (
        f"{_FORMAT}|{__version__}|py{sys.version_info[0]}."
        f"{sys.version_info[1]}|{cache_version}|{source}"
    )
    return hashlib.sha256(key.encode()).hexdigest()[:32]


def _path(dig: str) -> Path:
    return kernel_dir() / f"k-{dig}.bin"


def _warn(path: Path, reason: str) -> None:
    warnings.warn(
        f"kernel cache entry {path.name} is {reason}; recompiling",
        RuntimeWarning,
        stacklevel=3,
    )


def load(dig: str) -> "dict | None":
    """Validated payload for ``dig`` — ``{"code": <code>, "meta": dict}``
    — or ``None`` (absent, disabled, or damaged-with-warning)."""
    if not _enabled():
        return None
    path = _path(dig)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if len(raw) < 5:
        _warn(path, "truncated")
        return None
    if zlib.crc32(raw[4:]) != int.from_bytes(raw[:4], "little"):
        _warn(path, "corrupt (CRC mismatch)")
        return None
    try:
        payload = pickle.loads(raw[4:])
    except Exception:
        _warn(path, "unreadable")
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _FORMAT
        or payload.get("digest") != dig
    ):
        _warn(path, "from a different cache format")
        return None
    try:
        code = marshal.loads(payload["code"])
    except Exception:
        _warn(path, "corrupt (bad bytecode)")
        return None
    return {"code": code, "meta": payload.get("meta") or {}}


def store(dig: str, code, meta: dict) -> None:
    """Atomically persist one compiled kernel; silent on OSError."""
    if not _enabled():
        return
    try:
        body = pickle.dumps(
            {
                "format": _FORMAT,
                "digest": dig,
                "code": marshal.dumps(code),
                "meta": meta,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = zlib.crc32(body).to_bytes(4, "little") + body
        directory = kernel_dir()
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, _path(dig))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass
