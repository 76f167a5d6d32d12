"""Crash-safe metadata writes: write a temp file, then ``os.replace``.

Index metadata — ``maps.json``, the ``labels.dict`` interner, the
incremental manifest — is rewritten in full on every save.  A plain
``open(path, "w")`` truncates the old contents *before* the new bytes
land, so a crash mid-write leaves a torn file that a server opening
the index moments later reads as corruption.  Every metadata writer
therefore goes through this module: the bytes are staged in a sibling
temp file in the *same directory* (``os.replace`` must not cross
filesystems), fsynced, and renamed over the target in one atomic
step.  Readers see either the old complete file or the new complete
file, never a prefix of the new one.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager


def atomic_write_bytes(path, data: bytes) -> int:
    """Atomically replace ``path`` with ``data``; returns bytes written.

    The temp file is created next to the target so the final
    ``os.replace`` is a same-filesystem rename.  On any failure the
    temp file is removed and the original ``path`` is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, staging = tempfile.mkstemp(dir=directory,
                                   prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return len(data)


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> int:
    """Atomically replace ``path`` with ``text``."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path, payload) -> int:
    """Atomically replace ``path`` with ``payload`` rendered as JSON."""
    return atomic_write_text(path, json.dumps(payload))


def read_json_object(path, missing_ok: bool = False) -> "dict | None":
    """The JSON object stored at ``path`` by :func:`atomic_write_json`.

    A file that cannot be read or parsed, or holds anything but an
    object, raises :class:`~repro.resilience.errors.IndexCorruptError`;
    so does a missing one, unless ``missing_ok`` (then ``None``).
    """
    from ..resilience.errors import IndexCorruptError

    try:
        with open(path, encoding="utf-8") as handle:
            value = json.load(handle)
    except (OSError, ValueError) as exc:
        if missing_ok and isinstance(exc, (FileNotFoundError,
                                           NotADirectoryError)):
            return None
        raise IndexCorruptError(f"{path} is unreadable: {exc}") from exc
    if type(value) is not dict:
        raise IndexCorruptError(
            f"{path} is unreadable: it holds {type(value).__name__}, not "
            f"a JSON object")
    return value


@contextmanager
def rewritten_directory(directory, output=None):
    """Stage a rewrite of ``directory``; swap it into place on success.

    Yields an empty directory to write the new contents into: ``output``
    when given (``directory`` is then left as it is), else a
    ``<directory>.staged`` sibling.  When the block exits cleanly, an
    in-place rewrite renames ``directory`` aside, renames the staged
    directory into its place, and only then removes the old one, so a
    crash leaves a complete directory under one of the names, never a
    torn one.  Leftovers of an earlier crash are removed on the way in.
    """
    directory = os.fspath(directory)
    target = directory + ".staged" if output is None else os.fspath(output)
    if os.path.exists(target):
        shutil.rmtree(target)
    os.makedirs(target)
    yield target
    if output is None:
        aside = directory + ".old"
        if os.path.exists(aside):
            shutil.rmtree(aside)
        os.rename(directory, aside)
        os.rename(target, directory)
        shutil.rmtree(aside)


def sweep_tmp_debris(directory) -> "list[str]":
    """Delete leftover ``*.tmp`` staging files under ``directory``.

    A crash between :func:`atomic_write_bytes`'s ``mkstemp`` and its
    ``os.replace`` strands the staging file; the target is untouched
    (that is the whole contract), so the debris is pure garbage.  Index
    ``open`` paths call this so a recovered server does not accumulate
    one orphan per crash forever.  Returns the paths removed; files
    that vanish concurrently or cannot be removed are skipped silently
    (the sweep is best-effort hygiene, not correctness).
    """
    directory = os.fspath(directory)
    removed = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return removed
    for name in entries:
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        try:
            if os.path.isfile(path):
                os.unlink(path)
                removed.append(path)
        except OSError:
            pass
    return removed
