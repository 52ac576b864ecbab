"""Stream cursors: durable watermarks next to the store artefacts.

A cursor file records how far a stream has been consumed (its highest
processed sequence number plus bookkeeping counters) so a restarted
stream resumes instead of reprocessing.  Cursors use the same
durability idiom as the store manifest: the document is written to a
temporary sibling, fsynced, and atomically renamed into place, with a
CRC32 over the canonical payload so a torn write is detected and
treated as "no cursor" rather than a crash.

Cursor files (``stream-<name>.cursor``) deliberately live *alongside*
store artefacts: :class:`repro.storage.paged.PagedBackend` is
manifest-driven and ignores unknown files, and ``repro store info``
lists them so operators see which streams checkpoint into a store
directory.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

CURSOR_SUFFIX = ".cursor"
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _checksum(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def cursor_files(directory: Union[str, Path]) -> List[Path]:
    """The stream cursor files in a directory, sorted by name."""

    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"stream-*{CURSOR_SUFFIX}"))


class CursorFile:
    """One named, atomically updated stream cursor."""

    def __init__(self, directory: Union[str, Path], name: str = "stream") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"cursor name {name!r} must match {_NAME_RE.pattern}"
            )
        self.directory = Path(directory)
        self.name = name
        self.path = self.directory / f"stream-{name}{CURSOR_SUFFIX}"

    def load(self) -> Optional[Dict[str, Any]]:
        """The persisted cursor document, or ``None``.

        Missing, truncated, or checksum-failing files all read as
        ``None``: a damaged cursor means "start over", never a crash.
        """

        try:
            raw = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            envelope = json.loads(raw)
            payload = envelope["cursor"]
            recorded = int(envelope["crc"])
        except (ValueError, TypeError, KeyError):
            return None
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if _checksum(canonical) != recorded:
            return None
        return payload if isinstance(payload, dict) else None

    def save(self, document: Dict[str, Any]) -> None:
        """Atomically persist a cursor document (tmp + fsync + rename)."""

        self.directory.mkdir(parents=True, exist_ok=True)
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        envelope = json.dumps(
            {"cursor": document, "crc": _checksum(canonical)}, sort_keys=True
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(envelope + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Forget the persisted cursor, if any."""

        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
