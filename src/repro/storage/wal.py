"""The write-ahead log: buffered appends, group-commit fsync batching.

Mutations append framed records (:mod:`repro.storage.records`) to an
in-memory buffer; ``commit()`` — called once per graph-level mutation
— writes the buffer to the log file in a single syscall and flushes it
to the OS, then applies the *sync policy*:

* ``always`` — ``fsync`` on every commit (each mutation is durable
  against machine crash before the call returns);
* ``batch`` — group commit: ``fsync`` once every ``fsync_batch``
  commits (bounded loss window, a fraction of the fsync cost);
* ``none`` — never ``fsync`` explicitly (durable against process
  crash via the OS page cache, not against power loss).

``benchmarks/bench_paged_storage.py`` (E22) measures exactly these
three points.  Recovery tolerates a torn final record regardless of
policy — see :meth:`repro.storage.paged.PagedBackend._replay_wal`.
"""

from __future__ import annotations

import os
from typing import BinaryIO, List, Optional

from repro.observability import get_registry
from repro.storage.records import batch_payload, encode_record

SYNC_MODES = ("always", "batch", "none")


class WALWriter:
    """Append side of one store's write-ahead log."""

    def __init__(
        self,
        path: str,
        sync: str = "batch",
        fsync_batch: int = 64,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        if fsync_batch < 1:
            raise ValueError(f"fsync_batch must be >= 1, got {fsync_batch}")
        self.path = path
        self.sync_mode = sync
        self.fsync_batch = fsync_batch
        self._file: Optional[BinaryIO] = open(path, "ab")
        self._buffer = bytearray()
        self._buffered_records = 0
        #: Payloads collected between ``begin_group``/``end_group``.
        self._group: Optional[List[bytes]] = None
        self._commits_since_fsync = 0
        #: Cumulative counters (also published as metrics).
        self.records_written = 0
        self.bytes_written = 0
        self.commits = 0
        self.fsyncs = 0

    # -- appends -----------------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Buffer one framed record for the next commit."""
        if self._group is not None:
            self._group.append(payload)
            return
        self._buffer += encode_record(payload)
        self._buffered_records += 1

    def begin_group(self) -> None:
        """Collect the following appends into one atomic record."""
        self._group = []

    def end_group(self) -> None:
        """Buffer the collected appends as one ``BATCH`` record.

        A group of one payload is buffered as that plain record (one
        frame is atomic either way); an empty group writes nothing.
        """
        group, self._group = self._group, None
        if group:
            self.append(group[0] if len(group) == 1 else batch_payload(group))

    @property
    def has_pending(self) -> bool:
        return bool(self._buffer)

    def commit(self) -> None:
        """Write buffered records in one syscall; fsync per policy."""
        if self._file is None:
            raise ValueError(f"WAL {self.path} is closed")
        if self._buffer:
            self._file.write(self._buffer)
            self._file.flush()
            self.records_written += self._buffered_records
            self.bytes_written += len(self._buffer)
            records, nbytes = self._buffered_records, len(self._buffer)
            self._buffer.clear()
            self._buffered_records = 0
            registry = get_registry()
            registry.counter(
                "repro_storage_wal_records_total",
                "Records committed to any write-ahead log.",
            ).inc(records)
            registry.counter(
                "repro_storage_wal_bytes_total",
                "Bytes committed to any write-ahead log.",
            ).inc(nbytes)
        self.commits += 1
        self._commits_since_fsync += 1
        if self.sync_mode == "always" or (
            self.sync_mode == "batch"
            and self._commits_since_fsync >= self.fsync_batch
        ):
            self._fsync()

    def _fsync(self) -> None:
        assert self._file is not None
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._commits_since_fsync = 0
        get_registry().counter(
            "repro_storage_wal_fsyncs_total",
            "fsync() calls issued by any write-ahead log.",
        ).inc()

    def flush(self) -> None:
        """Write and fsync everything buffered, regardless of policy."""
        if self._file is None:
            return
        if self._buffer:
            self._file.write(self._buffer)
            self.records_written += self._buffered_records
            self.bytes_written += len(self._buffer)
            self._buffer.clear()
            self._buffered_records = 0
        self._file.flush()
        if self.sync_mode != "none":
            self._fsync()

    # -- lifecycle ---------------------------------------------------------

    def size(self) -> int:
        """Bytes currently in the log file (excludes the buffer)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def reset(self) -> None:
        """Discard the log's contents (post-compaction truncate)."""
        if self._file is None:
            raise ValueError(f"WAL {self.path} is closed")
        self._buffer.clear()
        self._buffered_records = 0
        self._file.truncate(0)
        self._file.seek(0)
        self._file.flush()
        if self.sync_mode != "none":
            self._fsync()

    def close(self) -> None:
        """Flush, fsync (unless ``none``) and close the file handle."""
        if self._file is None:
            return
        self.flush()
        self._file.close()
        self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None
