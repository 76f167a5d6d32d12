"""Per-shard sidecar files: build, load-or-``None``, invalidate.

A *sidecar* is a file derived from a shard's stored paths and kept
next to its ``paths.log`` — ``sketch.bin`` (:mod:`repro.sketch.store`)
and ``quotient.bin`` (:mod:`repro.quotient.store`).  Each kind has its
own bytes, and all kinds share one lifecycle, which lives here:

- one file per healthy persistence surface of the index (the directory
  of a plain :class:`~repro.index.pathindex.PathIndex`, each
  ``shard-NN/`` of a :class:`~repro.index.sharded.ShardedIndex`);
- the file records the shard **epoch** it was built at, and a loader
  treats a missing, corrupt or other-epoch file as *no sidecar*:
  compaction renumbers offsets and incremental rounds add paths, so a
  stale file must fall back to the exhaustive path rather than serve
  wrong rows;
- rewrites that renumber offsets delete the files eagerly
  (:func:`invalidate`); the epoch check is the backstop for writers
  that forget.

A format class plugs in with ``from_index(shard, *args, epoch)``,
``save(path)``, ``load(path)`` raising a :class:`SidecarFormatError`,
and an ``epoch`` attribute.
"""

from __future__ import annotations

import os

from .sharded import ShardedIndex, shard_dir


class SidecarFormatError(Exception):
    """A sidecar file whose bytes are not a valid artifact of its kind."""


def shard_surfaces(index):
    """Yield ``(directory, shard index or None, live epoch)`` for every
    healthy persistence surface of ``index``.

    Quarantined shards are skipped: their page store is gone, their
    offsets route nowhere, and rebuilding after recovery produces a
    fresh-epoch sidecar anyway.
    """
    if isinstance(index, ShardedIndex):
        epochs = index.epoch_vector
        for shard_no, shard in enumerate(index.shards):
            if getattr(shard, "quarantined", False):
                continue
            yield (shard_dir(index.directory, shard_no), shard_no,
                   epochs[shard_no])
    else:
        directory = getattr(index, "directory", None)
        if directory:
            yield directory, None, getattr(index, "epoch", 0)


def _places(directory: str, file_name: str):
    """Every place ``file_name`` can sit under ``directory``: the top
    level and each ``shard-NN/``."""
    yield os.path.join(directory, file_name)
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        entries = []
    for entry in entries:
        if entry.startswith("shard-"):
            yield os.path.join(directory, entry, file_name)


def present(directory: str, file_name: str) -> bool:
    """Whether any surface under ``directory`` carries ``file_name``."""
    return any(os.path.exists(path) for path in _places(directory, file_name))


def invalidate(directory: str, file_names) -> "dict[str, int]":
    """Delete the named sidecars under ``directory`` (top level and any
    ``shard-NN/``); returns how many files of each name were removed.
    Called after rewrites that renumber offsets — compaction,
    resharding — where waiting for the epoch check would leave dead
    bytes on disk."""
    removed = dict.fromkeys(file_names, 0)
    for file_name in removed:
        for path in _places(directory, file_name):
            try:
                os.remove(path)
            except OSError:
                continue
            removed[file_name] += 1
    return removed


class Sidecar:
    """One kind of sidecar: its file name and its format class."""

    def __init__(self, file_name: str, fmt):
        self.file_name = file_name
        self.fmt = fmt

    def path(self, directory: str) -> str:
        return os.path.join(directory, self.file_name)

    def build(self, index, *args) -> "list[str]":
        """Build and persist one file per (healthy) shard of ``index``;
        returns the written paths.  Works for a plain
        :class:`~repro.index.pathindex.PathIndex` and a
        :class:`~repro.index.sharded.ShardedIndex`; each file is keyed
        by its shard's current epoch so later compaction or incremental
        rounds orphan it."""
        written = []
        for directory, shard_no, epoch in shard_surfaces(index):
            source = index if shard_no is None else index.shards[shard_no]
            target = self.path(directory)
            self.fmt.from_index(source, *args, epoch).save(target)
            written.append(target)
        return written

    def load_shard(self, directory: str, expected_epoch: int):
        """Load one shard's file, or ``None`` when it is absent,
        corrupt, or built against a different epoch (stale ⇒ the
        exhaustive fallback)."""
        try:
            loaded = self.fmt.load(self.path(directory))
        except (SidecarFormatError, OSError):
            return None
        if loaded.epoch != expected_epoch:
            return None
        return loaded

    def load(self, index) -> "list | None":
        """Load every shard's file, aligned with the index's shards.

        Returns ``None`` when no shard has a usable file at all;
        otherwise a list with ``None`` holes for shards that must fall
        back (quarantined, stale, missing)."""
        slots = [None] * (index.shard_count
                          if isinstance(index, ShardedIndex) else 1)
        for directory, shard_no, epoch in shard_surfaces(index):
            slots[shard_no or 0] = self.load_shard(directory, epoch)
        if all(slot is None for slot in slots):
            return None
        return slots

    def invalidate(self, directory: str) -> int:
        """:func:`invalidate` for this kind alone."""
        return invalidate(directory, (self.file_name,))[self.file_name]
