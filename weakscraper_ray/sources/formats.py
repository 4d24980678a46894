"""The transcript file formats: one reader and one writer per format.

``FORMATS[fmt]`` holds a file ``suffix``, ``read(buf, cols)`` (one
whole file's bytes → an Arrow table of those ``cols`` the file has) and
``write(table, path)`` (one Arrow table → one file). The transcripts
source (``pipelines/extraction.read_transcripts``), the checkpointed
sink (``checkpoint._write_one_partition``), :func:`convert_dir` and the
CLI's ``--format`` / ``--out-format`` choices all read this table, so
a format is written out exactly once.

Readers return the file's own types; :func:`to_row_schema` casts the
transcript columns to ``transcripts.ROW_SCHEMA`` afterwards (CSV and
JSONL carry ``ts`` as an ISO string, ORC stores it at ns grain).
"""

from __future__ import annotations

import glob
import json
import os
from typing import Callable, NamedTuple

import pyarrow as pa
import pyarrow.csv as pacsv
import pyarrow.json as pajson
import pyarrow.orc as paorc
import pyarrow.parquet as pq

from ..transcripts import ROW_SCHEMA


class Format(NamedTuple):
    suffix: str
    read: Callable[[pa.Buffer, list], pa.Table]
    write: Callable[[pa.Table, str], None]


def _select(t: pa.Table, cols: list) -> pa.Table:
    return t.select([c for c in cols if c in t.column_names])


def _read_parquet(buf, cols):
    f = pq.ParquetFile(pa.BufferReader(buf))
    return f.read(columns=[c for c in cols if c in f.schema_arrow.names])


def _read_orc(buf, cols):
    f = paorc.ORCFile(pa.BufferReader(buf))
    return f.read(columns=[c for c in cols if c in f.schema.names])


def _read_jsonl(buf, cols):
    # one block per file: an HTML-heavy line never straddles blocks
    opts = pajson.ReadOptions(block_size=max(len(buf), 1))
    return _select(pajson.read_json(pa.BufferReader(buf), read_options=opts), cols)


def _write_jsonl(t: pa.Table, path: str) -> None:
    t.to_pandas().to_json(
        path, orient="records", lines=True, date_format="iso", date_unit="us",
        force_ascii=False,
    )


#: CSV carries no types: pin every transcript column so a shard whose
#: column is all empty (e.g. no tool turns) does not infer ``null``.
#: ``ts`` stays a string here and is cast with the other formats'.
_CSV_TYPES = {f.name: pa.string() if f.name == "ts" else f.type for f in ROW_SCHEMA}


def _read_csv(buf, cols):
    return _select(
        pacsv.read_csv(
            pa.BufferReader(buf),
            # HTML text fields hold quoted newlines
            parse_options=pacsv.ParseOptions(newlines_in_values=True),
            convert_options=pacsv.ConvertOptions(column_types=_CSV_TYPES),
        ),
        cols,
    )


def _write_csv(t: pa.Table, path: str) -> None:
    # CSV is flat: nested columns (e.g. the spans list<struct>) are
    # written as JSON strings
    flat = {
        name: pa.array([json.dumps(v) for v in col.to_pylist()], pa.string())
        if pa.types.is_nested(col.type) else col
        for name, col in zip(t.column_names, t.columns)
    }
    pacsv.write_csv(pa.table(flat), path)


FORMATS: dict[str, Format] = {
    "parquet": Format("parquet", _read_parquet, pq.write_table),
    "jsonl": Format("jsonl", _read_jsonl, _write_jsonl),
    "csv": Format("csv", _read_csv, _write_csv),
    "orc": Format("orc", _read_orc, paorc.write_table),
}


def format_of(fmt: str) -> Format:
    """``FORMATS[fmt]``, or a ``ValueError`` naming the known formats."""
    if fmt not in FORMATS:
        raise ValueError(
            f"unknown transcript format {fmt!r}; known: {', '.join(sorted(FORMATS))}"
        )
    return FORMATS[fmt]


def to_row_schema(t: pa.Table) -> pa.Table:
    """Cast the transcript columns of ``t`` to their ``ROW_SCHEMA``
    types; other columns (e.g. ``path``) keep theirs."""
    return t.cast(pa.schema([
        ROW_SCHEMA.field(f.name) if f.name in ROW_SCHEMA.names else f
        for f in t.schema
    ]))


def convert_dir(src_dir: str, out_dir: str, fmt: str) -> int:
    """Rewrite a generated table's ``part-*.parquet`` shards as
    ``part-*.<suffix>`` shards of ``fmt`` in ``out_dir`` (driver-side,
    small data). Returns the number of rows written."""
    out = format_of(fmt)
    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for shard in sorted(glob.glob(os.path.join(src_dir, "part-*.parquet"))):
        t = pq.read_table(shard)
        stem = os.path.basename(shard)[: -len(".parquet")]
        out.write(t, os.path.join(out_dir, f"{stem}.{out.suffix}"))
        n += t.num_rows
    return n
