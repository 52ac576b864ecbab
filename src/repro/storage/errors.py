"""Machine-readable storage failures.

Mirrors the contract of :class:`repro.runtime.service.QueueFullError`:
every error carries a stable ``code`` plus structured fields and a
``details()`` dict, so callers — the serving tier's ``/healthz`` and
error responses, the CLI's exit paths — can surface storage trouble
without parsing prose.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class StorageError(RuntimeError):
    """Base of every storage-backend failure.

    ``code`` is the stable machine-readable discriminator
    (``wal_corruption``, ``snapshot_mismatch``, ``storage_error``);
    ``directory`` names the store the failure belongs to.
    """

    code = "storage_error"

    def __init__(
        self, message: str, *, directory: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.directory = directory

    def details(self) -> Dict[str, Any]:
        """The failure as one JSON-ready dict."""
        return {
            "code": self.code,
            "message": str(self),
            "directory": self.directory,
        }


class WALCorruption(StorageError):
    """The write-ahead log contains a structurally invalid record.

    A *torn tail* (an append cut short by a crash) is not corruption —
    recovery silently truncates it.  This error means a fully-present
    record failed its CRC or referenced impossible state, i.e. the log
    was damaged after it was written.
    """

    code = "wal_corruption"

    def __init__(
        self,
        message: str,
        *,
        directory: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> None:
        super().__init__(message, directory=directory)
        self.offset = offset

    def details(self) -> Dict[str, Any]:
        document = super().details()
        document["offset"] = self.offset
        return document


class SnapshotMismatch(StorageError):
    """A segment or manifest disagrees with what it claims to hold.

    Raised when the manifest is unreadable or of a format this version
    does not read (including the retired disk engine's), or when a run
    or term bank file is malformed or its checksums disagree with its
    bytes.
    """

    code = "snapshot_mismatch"

    def __init__(
        self,
        message: str,
        *,
        directory: Optional[str] = None,
        segment: Optional[str] = None,
    ) -> None:
        super().__init__(message, directory=directory)
        self.segment = segment

    def details(self) -> Dict[str, Any]:
        document = super().details()
        document["segment"] = self.segment
        return document
