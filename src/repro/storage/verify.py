"""Offline store verification: re-checksum every durable artifact.

``repro store verify`` walks a store directory *without opening a
backend* — no WAL replay, no index rebuild, no manifest mutation — and
recomputes every stored checksum:

* each run's three section CRCs and each term bank's offsets/order
  CRC are recomputed over the raw mmap'd bytes, and footer record
  counts are checked against the section sizes;
* the WAL is scanned record by record.  A *torn tail* (a crash cut
  the final append short) is recovery-normal and reported as a note,
  not a failure; an in-place CRC mismatch is a failure.

A manifest the paged engine cannot read — including a store written by
the retired disk engine (format 1) — raises :class:`SnapshotMismatch`
before any file is checked.

Verification stops at the first mismatch — the report names the file
and the reason, and the CLI exits non-zero with the report on stdout
as JSON, so scripted integrity sweeps need no output parsing.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, List, Optional

from repro.storage import records
from repro.storage.errors import SnapshotMismatch, StorageError
from repro.storage.paged import MANIFEST_NAME, WAL_NAME, read_manifest

__all__ = ["verify_store"]


def _failure(report: Dict[str, Any], file: str, error: str) -> Dict[str, Any]:
    report["ok"] = False
    report["failure"] = {"file": file, "error": error}
    return report


def _verify_paged_file(
    directory: pathlib.Path, name: str, kind: str
) -> Optional[str]:
    """Re-open one run or term bank and recompute its CRCs."""
    from repro.storage.pages import BlockCache, RunReader, TermBankReader

    path = directory / name
    reader = None
    try:
        if kind == "run":
            # A throwaway single-block cache: verification reads the
            # raw mmap, not data blocks, so nothing is retained.
            reader = RunReader(path, BlockCache(1))
        else:
            reader = TermBankReader(path)
        reader.verify()
    except (OSError, SnapshotMismatch, ValueError) as exc:
        return str(exc)
    finally:
        if reader is not None:
            reader.close()
    return None


def _verify_wal(path: pathlib.Path, report: Dict[str, Any]) -> Optional[str]:
    if not path.exists():
        report["wal"] = {"records": 0, "status": "absent"}
        return None
    data = path.read_bytes()
    scanner = records.RecordScanner(data)
    count = sum(1 for _ in scanner)
    report["wal"] = {
        "records": count,
        "bytes": len(data),
        "status": scanner.status,
    }
    if scanner.status == "corrupt":
        return scanner.error or "corrupt record"
    if scanner.status == "torn":
        # Recovery-normal: the next open truncates the torn bytes.
        report["wal"]["torn_bytes"] = len(data) - scanner.end
    return None


def verify_store(directory: str) -> Dict[str, Any]:
    """Re-checksum one store offline; returns a JSON-ready report.

    ``report["ok"]`` is the verdict; on failure ``report["failure"]``
    names the first file that failed and why.  The store is never
    modified (torn WAL tails are reported, not truncated).
    """
    root = pathlib.Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(
            f"no store at {root} (missing {MANIFEST_NAME})",
            directory=str(root),
        )
    manifest = read_manifest(manifest_path, root)
    report: Dict[str, Any] = {
        "directory": str(root),
        "engine": "paged",
        "ok": True,
        "checked": [],
    }
    checked: List[Dict[str, Any]] = report["checked"]
    for entry in manifest.get("runs", []):
        name = entry.get("file", "?")
        error = _verify_paged_file(root, name, "run")
        if error is not None:
            return _failure(report, name, error)
        checked.append({"file": name, "kind": "run"})
    for entry in manifest.get("term_banks", []):
        name = entry.get("file", "?")
        error = _verify_paged_file(root, name, "bank")
        if error is not None:
            return _failure(report, name, error)
        checked.append({"file": name, "kind": "term_bank"})
    wal_path = root / WAL_NAME
    error = _verify_wal(wal_path, report)
    if error is not None:
        return _failure(report, wal_path.name, error)
    if os.path.exists(wal_path):
        checked.append({"file": wal_path.name, "kind": "wal"})
    return report
