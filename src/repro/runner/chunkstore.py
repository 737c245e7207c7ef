"""Impression-chunk serialization for the checkpoint runner.

Every file under a run directory's ``chunks/`` is a
:mod:`repro.records.columnar` bundle (``.npc``): per-column ``.npy``
payloads with individual SHA-256 checksums, seekable by column.  The
manifest records ``"chunk_format": "columnar"`` for every run.  For a
greppable row-per-line view of a run's impressions, ``python -m
repro.records OUT`` writes ``impressions.csv``.

The serializer is *deterministic*: the same drained arrays always
produce the same bytes.  That is the property the doctor's repair path
stands on -- it re-simulates a damaged day range, feeds the drained
chunk back through :func:`chunk_to_bytes`, and refuses to write unless
the bytes hash to what the manifest vouched.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import RecordError
from ..records.columnar import columns_to_bytes, read_columns
from ..records.impressions import ImpressionTable

__all__ = [
    "CHUNK_FORMAT",
    "chunk_file_name",
    "chunk_to_bytes",
    "load_chunk",
]

#: The one value a manifest's ``chunk_format`` field may hold.
CHUNK_FORMAT = "columnar"

_FIELD_NAMES = ImpressionTable.field_names()


def chunk_file_name(day_start: int, day_end: int) -> str:
    """Canonical chunk file name for a day range."""
    return f"chunk-{day_start:05d}-{day_end:05d}.npc"


def chunk_to_bytes(chunk: dict, day_start: int, day_end: int) -> bytes:
    """Serialize a drained builder chunk deterministically."""
    ordered = {name: chunk[name] for name in _FIELD_NAMES}
    return columns_to_bytes(
        ordered, meta={"day_end": day_end, "day_start": day_start}
    )


def load_chunk(path: str | Path) -> dict | None:
    """Load a chunk's per-field arrays, or ``None`` if malformed.

    A return of ``None`` means the file is structurally not a chunk
    (wrong container, wrong field set) -- callers treat it exactly like
    a checksum failure.  IO errors propagate.
    """
    try:
        columns = read_columns(Path(path))
    except RecordError:
        return None
    if set(columns) != set(_FIELD_NAMES):
        return None
    return columns
