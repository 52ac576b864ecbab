"""repro.storage — persistent, pluggable triple-store backends.

The package splits the dictionary-encoded triple store (PR 4) into a
front end (:class:`repro.rdf.graph.Graph`, unchanged API) and a
*storage backend* owning the term dictionary, the SPO/POS/OSP indices
and the per-predicate statistics:

* :class:`MemoryBackend` — the in-memory structures, verbatim; the
  per-execution cache and every transient graph run on it;
* :class:`PagedBackend` — the one durable engine: immutable mmap'd
  sorted runs with a block cache, LSM-style size-tiered compaction and
  a CRC-framed write-ahead log as the mutable L0, answering index
  probes from the files instead of RAM (:mod:`repro.storage.paged`,
  :mod:`repro.storage.pages`, :mod:`repro.storage.wal`);
* :func:`bulk_load_ntriples` — a streaming loader that builds a store
  directory without per-triple WAL traffic (:mod:`repro.storage.bulk`).

``REPRO_STORAGE_BACKEND`` selects what a plain ``Graph()`` runs on:

* ``memory`` (default) — :class:`MemoryBackend`;
* ``paged-scratch`` — a :class:`PagedBackend` in a per-process scratch
  directory with ``sync="none"``, removed at interpreter exit.  CI
  uses it to run the whole rdf/sparql/annotation/stream test tier
  against the durable engine without touching a single test.

Every store directory is a paged store (manifest ``format`` 2).  A
directory written by the retired disk engine (``format`` 1) is refused
with :class:`SnapshotMismatch` by :func:`open_backend`,
:func:`detect_engine` and every CLI subcommand; such a store must be
re-created.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
import threading
from typing import Optional

from repro.storage.backend import (
    EncodedTriple,
    MemoryBackend,
    PredicateStats,
    StorageBackend,
    copy_state,
)
from repro.storage.bulk import bulk_load_ntriples, bulk_load_triples
from repro.storage.cursors import CURSOR_SUFFIX, CursorFile, cursor_files
from repro.storage.errors import SnapshotMismatch, StorageError, WALCorruption
from repro.storage.paged import MANIFEST_NAME, PagedBackend, read_manifest
from repro.storage.probe import DictIndexProbe, IndexProbe
from repro.storage.wal import SYNC_MODES, WALWriter

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "PagedBackend",
    "IndexProbe",
    "DictIndexProbe",
    "PredicateStats",
    "EncodedTriple",
    "copy_state",
    "StorageError",
    "WALCorruption",
    "SnapshotMismatch",
    "WALWriter",
    "SYNC_MODES",
    "bulk_load_ntriples",
    "bulk_load_triples",
    "CursorFile",
    "cursor_files",
    "CURSOR_SUFFIX",
    "backend_from_env",
    "detect_engine",
    "open_backend",
    "open_store",
    "scratch_directory",
    "BACKEND_ENV_VAR",
]

#: Environment variable selecting the default ``Graph()`` backend.
BACKEND_ENV_VAR = "REPRO_STORAGE_BACKEND"

_scratch_lock = threading.Lock()
_scratch_root: Optional[str] = None
_scratch_counter = itertools.count(1)


def _cleanup_scratch() -> None:
    global _scratch_root
    if _scratch_root is not None:
        shutil.rmtree(_scratch_root, ignore_errors=True)
        _scratch_root = None


def scratch_directory() -> str:
    """A fresh store directory under the per-process scratch root.

    The root is created lazily and removed at interpreter exit; each
    call returns a distinct subdirectory.
    """
    global _scratch_root
    with _scratch_lock:
        if _scratch_root is None:
            _scratch_root = tempfile.mkdtemp(prefix="repro-store-")
            atexit.register(_cleanup_scratch)
        return os.path.join(
            _scratch_root, f"scratch-{next(_scratch_counter):06d}"
        )


def backend_from_env() -> StorageBackend:
    """The backend a bare ``Graph()`` should run on (env-selected)."""
    mode = os.environ.get(BACKEND_ENV_VAR, "memory").strip() or "memory"
    if mode == "memory":
        return MemoryBackend()
    if mode == "paged-scratch":
        return PagedBackend(scratch_directory(), sync="none")
    raise StorageError(
        f"{BACKEND_ENV_VAR}={mode!r} is not a known backend "
        "(expected 'memory' or 'paged-scratch')"
    )


def detect_engine(directory: str) -> Optional[str]:
    """The engine of an existing store directory, or ``None`` if empty.

    Reads only the manifest.  A readable paged manifest answers
    ``"paged"``; a store written by the retired disk engine, or an
    unreadable or unknown manifest, raises :class:`SnapshotMismatch` —
    opening it could only fail later with a worse message.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    read_manifest(path, directory)
    return "paged"


def open_backend(
    directory: str,
    *,
    sync: str = "batch",
    fsync_batch: int = 64,
    create: bool = True,
) -> StorageBackend:
    """Open (or create) the durable backend of one store directory."""
    return PagedBackend(
        directory, sync=sync, fsync_batch=fsync_batch, create=create
    )


def open_store(
    directory: str,
    *,
    sync: str = "batch",
    fsync_batch: int = 64,
    create: bool = True,
):
    """Open (or create) a durable store as a ready-to-use ``Graph``."""
    from repro.rdf.graph import Graph

    return Graph(
        backend=open_backend(
            directory, sync=sync, fsync_batch=fsync_batch, create=create
        )
    )
