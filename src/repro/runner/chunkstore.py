"""Impression-chunk serialization formats for the checkpoint runner.

A run directory's ``chunks/`` files can be stored in one of two
formats, recorded in the manifest's ``chunk_format`` field so resume,
``verify`` and ``doctor --repair`` always read what was written:

``columnar`` (default, ``.npc``)
    A :mod:`repro.records.columnar` bundle -- per-column ``.npy``
    payloads with individual SHA-256 checksums, seekable by column.
    Byte-stable by construction.
``jsonl`` (export, ``.jsonl``)
    One JSON object per row in storage-field order.  Slow and large,
    but greppable and diffable; Python's ``repr``-based float
    serialization round-trips every ``float64`` exactly, so even this
    format is bit-exact and replayable.

Both serializers are *deterministic*: the same drained arrays
always produce the same bytes.  That is the property the doctor's
repair path stands on -- it re-simulates a damaged day range, feeds the
drained chunk back through :func:`chunk_to_bytes`, and refuses to write
unless the bytes hash to what the manifest vouched.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import RecordError, SimulationError
from ..records.columnar import columns_to_bytes, read_columns
from ..records.impressions import ImpressionTable

__all__ = [
    "CHUNK_FORMATS",
    "DEFAULT_CHUNK_FORMAT",
    "chunk_file_name",
    "chunk_suffix",
    "chunk_to_bytes",
    "load_chunk",
]

#: Formats a manifest's ``chunk_format`` may name.
CHUNK_FORMATS = ("columnar", "jsonl")
#: Format new runs are written in.
DEFAULT_CHUNK_FORMAT = "columnar"

_SUFFIXES = {"columnar": ".npc", "jsonl": ".jsonl"}

_FIELD_DTYPES = ImpressionTable.field_dtypes()
_FIELD_NAMES = ImpressionTable.field_names()


def _check_format(chunk_format: str) -> None:
    if chunk_format not in CHUNK_FORMATS:
        raise SimulationError(
            f"unknown chunk format {chunk_format!r}; "
            f"expected one of {CHUNK_FORMATS}"
        )


def chunk_suffix(chunk_format: str) -> str:
    """File suffix for chunks of the given format."""
    _check_format(chunk_format)
    return _SUFFIXES[chunk_format]


def chunk_file_name(day_start: int, day_end: int, chunk_format: str) -> str:
    """Canonical chunk file name for a day range in a format."""
    return (
        f"chunk-{day_start:05d}-{day_end:05d}{chunk_suffix(chunk_format)}"
    )


def chunk_to_bytes(
    chunk: dict, chunk_format: str, day_start: int, day_end: int
) -> bytes:
    """Serialize a drained builder chunk deterministically."""
    _check_format(chunk_format)
    if chunk_format == "columnar":
        ordered = {name: chunk[name] for name in _FIELD_NAMES}
        return columns_to_bytes(
            ordered, meta={"day_end": day_end, "day_start": day_start}
        )
    rows = len(chunk["day"])
    lines = []
    for i in range(rows):
        record = {}
        for name in _FIELD_NAMES:
            value = chunk[name][i]
            record[name] = value.item() if hasattr(value, "item") else value
        lines.append(json.dumps(record, separators=(",", ":")))
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def load_chunk(path: str | Path, chunk_format: str) -> dict | None:
    """Load a chunk's per-field arrays, or ``None`` if malformed.

    A return of ``None`` means the file is structurally not a chunk of
    this format (wrong container, wrong field set) -- callers treat it
    exactly like a checksum failure.  IO errors propagate.
    """
    _check_format(chunk_format)
    path = Path(path)
    if chunk_format == "columnar":
        try:
            columns = read_columns(path)
        except RecordError:
            return None
        if set(columns) != set(_FIELD_NAMES):
            return None
        return columns
    columns: dict[str, list] = {name: [] for name in _FIELD_NAMES}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict) or set(record) != set(_FIELD_NAMES):
            return None
        for name in _FIELD_NAMES:
            columns[name].append(record[name])
    return {
        name: np.asarray(columns[name], dtype=_FIELD_DTYPES[name])
        for name in _FIELD_NAMES
    }
