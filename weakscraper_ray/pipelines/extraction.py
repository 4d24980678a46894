"""The flagship extraction pipeline (SURVEY.md §3.4).

    read_parquet(transcripts)                 [IO tasks, column-pruned]
      → map_batches(Extractor(...), tasks)    [C1..C4, zero-copy Arrow]
      → restore_order: materialize() barrier,
        then sort by (conv_id, turn_idx)      [R3/R4 range-partitioned sort]
      → write_parquet / downstream            [S3]

Nothing here calls ``ray.init`` — the driver/bench/tests own sessions.
"""

from __future__ import annotations

from typing import Callable

import ray
import ray.data

from ..stages.extract import Extractor
from ..stages.ordering import restore_order
from ..transcripts import TEMPLATES, ensure_generated

#: mandated input schema (BASELINE.json input_hint) + routing column
TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def default_templates() -> dict[int, str]:
    return dict(enumerate(TEMPLATES))


def read_transcripts(path: str, with_route: bool = True,
                     include_paths: bool = False):
    """Column-pruned parquet read of a transcripts table.

    A generated table directory also holds the ``expected.parquet``
    oracle twin — only ``part-*.parquet`` shards are data.

    ``include_paths=True`` adds each row's source-file ``path`` column
    (Ray read_parquet's include_paths) so the checkpointed sink can
    record per-partition input lineage in its manifest.
    """
    import glob
    import os

    if os.path.isdir(path):
        shards = sorted(glob.glob(os.path.join(path, "part-*.parquet")))
        paths: list[str] | str = shards if shards else path
    else:
        paths = path
    cols = list(TRANSCRIPT_COLUMNS)
    if with_route:
        cols.append("template_id")
    import pyarrow.dataset as pads

    schema_names = pads.dataset(paths).schema.names
    cols = [c for c in cols if c in schema_names]
    return ray.data.read_parquet(paths, columns=cols, include_paths=include_paths)


def read_transcripts_json(path: str, with_route: bool = True):
    """JSONL transcripts source — same logical table as the parquet
    reader (another input format for the same pipeline). Contract:
    one JSON object per line with the input_hint columns; ``ts`` as an
    ISO ``YYYY-MM-DD HH:MM:SS`` string (JSON has no timestamp type).
    The normalizer casts to the canonical arrow schema so every
    downstream stage is format-agnostic.
    """
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    if os.path.isdir(path):
        shards = sorted(glob.glob(os.path.join(path, "*.jsonl")))
        paths: list[str] | str = shards if shards else path
    else:
        paths = path
    ds = ray.data.read_json(paths)
    cols = list(TRANSCRIPT_COLUMNS) + (["template_id"] if with_route else [])

    def _norm(batch: pa.Table) -> pa.Table:
        out: dict = {}
        for c in cols:
            if c not in batch.column_names:
                continue
            col = batch.column(c)
            if c == "ts" and pa.types.is_string(col.type):
                col = pc.strptime(col, format="%Y-%m-%d %H:%M:%S", unit="us")
            elif c in ("turn_idx", "template_id"):
                col = pc.cast(col, pa.int32())
            out[c] = col
        return pa.table(out)

    return ds.map_batches(_norm, batch_format="pyarrow")


def parquet_dir_to_jsonl(src_dir: str, out_dir: str) -> int:
    """Utility: convert a generated transcripts dir to JSONL shards
    (test/demo helper for the JSON source; driver-side, small data)."""
    import glob
    import json as _json
    import os

    import pyarrow.parquet as _pq

    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for shard in sorted(glob.glob(os.path.join(src_dir, "part-*.parquet"))):
        rows = _pq.read_table(shard).to_pylist()
        name = os.path.basename(shard).replace(".parquet", ".jsonl")
        with open(os.path.join(out_dir, name), "w") as fh:
            for r in rows:
                r["ts"] = r["ts"].strftime("%Y-%m-%d %H:%M:%S")
                fh.write(_json.dumps(r) + "\n")
                n += 1
    return n


def read_transcripts_csv(path: str, with_route: bool = True):
    """CSV transcripts source — third input format for the same
    logical table (parquet / JSONL / CSV all normalize to one arrow
    schema, so the extraction pipeline is format-agnostic). Arrow's
    CSV reader handles quoted multi-line HTML text; ``ts`` arrives as
    an ISO string and is cast like the JSONL path."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    from pyarrow import csv as pacsv

    if os.path.isdir(path):
        shards = sorted(glob.glob(os.path.join(path, "*.csv")))
        paths: list[str] | str = shards if shards else path
    else:
        paths = path
    cols = list(TRANSCRIPT_COLUMNS) + (["template_id"] if with_route else [])
    # pin column types: CSV carries none, and letting the reader infer
    # per-shard risks schema drift between shards (e.g. an all-empty
    # text column inferred as null)
    ds = ray.data.read_csv(
        paths,
        # HTML text fields contain quoted newlines; the streaming CSV
        # reader rejects them unless newlines_in_values is on
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            column_types={
                "conv_id": pa.string(),
                "turn_idx": pa.int32(),
                "template_id": pa.int32(),
                "ts": pa.string(),
                "role": pa.string(),
                "text": pa.string(),
            }
        ),
    )

    def _norm(batch: pa.Table) -> pa.Table:
        out: dict = {}
        for c in cols:
            if c not in batch.column_names:
                continue
            col = batch.column(c)
            if c == "ts" and pa.types.is_string(col.type):
                # Arrow strftime("%S") emits fractional seconds on us
                # timestamps; a cast parses ISO strings either way
                col = col.cast(pa.timestamp("us"))
            elif c == "text":
                # CSV cannot distinguish NULL from empty string; the
                # generator writes no NULL texts, so "" round-trips
                col = pc.if_else(pc.is_valid(col), col, pa.scalar("", pa.string()))
            out[c] = col
        return pa.table(out)

    return ds.map_batches(_norm, batch_format="pyarrow")


def parquet_dir_to_csv(src_dir: str, out_dir: str) -> int:
    """Utility: convert a generated transcripts dir to CSV shards
    (test/demo helper for the CSV source; driver-side, small data)."""
    import glob
    import os

    import pyarrow.compute as _pc
    import pyarrow.parquet as _pq
    from pyarrow import csv as _pacsv

    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for shard in sorted(glob.glob(os.path.join(src_dir, "part-*.parquet"))):
        t = _pq.read_table(shard)
        ts = _pc.strftime(t.column("ts"), format="%Y-%m-%d %H:%M:%S")
        t = t.set_column(t.schema.get_field_index("ts"), "ts", ts)
        name = os.path.basename(shard).replace(".parquet", ".csv")
        _pacsv.write_csv(t, os.path.join(out_dir, name))
        n += t.num_rows
    return n


def read_transcripts_feather(path: str, with_route: bool = True):
    """Arrow-IPC (Feather v2) transcripts source — fourth input format
    for the same logical table.  Ray Data has no IPC reader, so this
    is the CUSTOM-SOURCE pattern: ``read_binary_files`` streams one
    file per block and a zero-copy ``pa.ipc.open_file`` decode runs
    inside ``map_batches`` — the shard stays columnar end-to-end
    (unlike JSONL/CSV there is no parse, so ``ts`` needs no cast).
    One file = one block = one decode task; resumability and
    parallelism come from the shard layout exactly as for parquet."""
    import glob
    import os

    import pyarrow as pa

    if os.path.isdir(path):
        shards = sorted(glob.glob(os.path.join(path, "*.arrow")))
        paths: list[str] | str = shards if shards else path
    else:
        paths = path
    cols = list(TRANSCRIPT_COLUMNS) + (["template_id"] if with_route else [])
    ds = ray.data.read_binary_files(paths)

    def _decode(batch: pa.Table) -> pa.Table:
        tables = []
        for buf in batch.column("bytes").to_pylist():
            t = pa.ipc.open_file(pa.BufferReader(buf)).read_all()
            tables.append(t.select([c for c in cols if c in t.column_names]))
        return pa.concat_tables(tables)

    return ds.map_batches(_decode, batch_format="pyarrow", batch_size=1)


def read_transcripts_orc(path: str, with_route: bool = True):
    """ORC transcripts source — fifth input format for the same
    logical table (warehouse exports commonly land as ORC).  Ray Data
    2.49 has no ORC reader, so this reuses the Feather custom-source
    pattern: ``read_binary_files`` streams one shard per block and
    ``pyarrow.orc`` decodes it inside ``map_batches`` with column
    PRUNING pushed into the ORC reader (only the needed columns are
    materialized from the stripes).  ORC stores timestamps at ns
    grain, so ``ts`` is cast back to the canonical ``timestamp[us]``
    — after that the table is bit-identical to the parquet source
    (source-equivalence test)."""
    import glob
    import os

    import pyarrow as pa
    from pyarrow import orc as _orc

    if os.path.isdir(path):
        shards = sorted(glob.glob(os.path.join(path, "*.orc")))
        paths: list[str] | str = shards if shards else path
    else:
        paths = path
    cols = list(TRANSCRIPT_COLUMNS) + (["template_id"] if with_route else [])
    ds = ray.data.read_binary_files(paths)

    def _decode(batch: pa.Table) -> pa.Table:
        tables = []
        for buf in batch.column("bytes").to_pylist():
            f = _orc.ORCFile(pa.BufferReader(buf))
            t = f.read(columns=[c for c in cols if c in f.schema.names])
            if "ts" in t.column_names:
                i = t.schema.get_field_index("ts")
                t = t.set_column(
                    i, "ts", t.column("ts").cast(pa.timestamp("us"))
                )
            tables.append(t)
        return pa.concat_tables(tables)

    return ds.map_batches(_decode, batch_format="pyarrow", batch_size=1)


def parquet_dir_to_orc(src_dir: str, out_dir: str) -> int:
    """Utility: convert a generated transcripts dir to ORC shards
    (test/demo helper for the ORC source; driver-side)."""
    import glob
    import os

    import pyarrow.parquet as _pq
    from pyarrow import orc as _orc

    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for shard in sorted(glob.glob(os.path.join(src_dir, "part-*.parquet"))):
        t = _pq.read_table(shard)
        name = os.path.basename(shard).replace(".parquet", ".orc")
        _orc.write_table(t, os.path.join(out_dir, name))
        n += t.num_rows
    return n


def parquet_dir_to_feather(src_dir: str, out_dir: str) -> int:
    """Utility: convert a generated transcripts dir to Arrow-IPC
    shards (test/demo helper for the feather source; driver-side)."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as _pq

    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for shard in sorted(glob.glob(os.path.join(src_dir, "part-*.parquet"))):
        t = _pq.read_table(shard)
        name = os.path.basename(shard).replace(".parquet", ".arrow")
        with pa.ipc.new_file(os.path.join(out_dir, name), t.schema) as w:
            w.write_table(t)
        n += t.num_rows
    return n


def extraction_pipeline(
    ds,
    templates: dict[int, str] | None = None,
    functions: dict[str, Callable] | None = None,
    batch_size: int = 1024,
    restore_ordering: bool = True,
    keep_text: bool = False,
    heuristic_fallback: bool = False,
    route_column: str | None = "template_id",
    nested: bool = False,
):
    """Transcripts Dataset → extracted Dataset.

    With ``restore_ordering=True`` (the default) the extraction runs
    when this is called: ``restore_order`` materializes the extract
    output so it finishes with every CPU, and the returned Dataset is
    the lazy total sort over it. With ``restore_ordering=False`` the
    result is fully lazy.

    The ``Extractor`` is passed as an instance, so Ray Data runs it as
    stateless tasks: each task unpickles a fresh copy and compiles only
    the templates its rows route to. Ray Data's task path retries a
    lost worker (``max_retries=-1``), so worker death is survived
    without actor restarts.

    ``route_column=None`` disables template routing entirely (every row
    tries all templates, first-match-wins) — required when externally
    supplied templates don't share the input's template-id space.
    ``nested=True`` switches the ``fields`` JSON to the reconstructed
    reference result shape (captures nested by wp-name hierarchy).
    """
    if templates is None:
        templates = default_templates()
    extractor = Extractor(
        templates=templates, functions=functions, keep_text=keep_text,
        heuristic_fallback=heuristic_fallback, route_column=route_column,
        nested=nested,
    )
    out = ds.map_batches(extractor, batch_format="pyarrow", batch_size=batch_size)
    if restore_ordering:
        out = restore_order(out)
    return out


def run_flagship(
    input_dir: str | None = None,
    size: str = "tiny",
    **kwargs,
):
    """Generate-or-reuse a transcripts table, run the full pipeline."""
    if input_dir is None:
        input_dir = ensure_generated(size)
    ds = read_transcripts(input_dir)
    return extraction_pipeline(ds, **kwargs)
