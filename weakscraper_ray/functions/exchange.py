"""The bounded shard exchange behind the keyed dedup, curation and
transcript-hygiene queries.

Per-key ``groupby(key).map_groups`` pays one UDF dispatch per distinct
key, so its cost grows with key cardinality. ``by_shard`` keys the
exchange on a hash shard of the key instead: at most ``SHARDS`` groups,
and each fold iterates its shard's keys in-process with vectorized
code. Every row of a key lands in one shard, so a fold that groups by
the key inside its shard sees each key whole.

The fold's output is converted to Arrow and cast to the declared schema
inside the group task, so no pandas block leaves the exchange. A pandas
block unioned with Arrow blocks fails the next exchange or map with
``AssertionError (BlockType.ARROW, BlockType.PANDAS)``; an int column
that pandas degraded to float (an int64 column with nulls) raises here
instead of rounding ids above 2^53.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.ordering import _conv_hash

#: exchange partition count: a property of the engine, not of a query
SHARDS = 256

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xC2B2AE3D27D4EB4F)
_COL = "__shard"


def _u64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return _conv_hash(col.fill_null(""))
    return col.fill_null(0).to_numpy(zero_copy_only=False).astype(np.uint64)


def shard_of(table: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Shard in ``[0, SHARDS)`` of each row's key, as int64: a
    multiply-shift hash of an integer key, of the blake2b hash of a
    string key, or of the two combined for a two-column key."""
    hs = [_u64(table.column(c)) for c in key_cols]
    if len(hs) == 1:
        h = hs[0] * _GOLD
    elif len(hs) == 2:
        h = hs[0] * _MIX + hs[1] * _GOLD
    else:
        raise ValueError(f"shard_of: 1 or 2 key columns, got {key_cols}")
    return ((h >> np.uint64(40)) % np.uint64(SHARDS)).astype(np.int64)


def _to_schema(out, schema: pa.Schema) -> pa.Table:
    t = out if isinstance(out, pa.Table) else pa.Table.from_pandas(
        out, preserve_index=False
    )
    t = t.select(schema.names)
    for f in schema:
        if pa.types.is_integer(f.type) and pa.types.is_floating(
            t.schema.field(f.name).type
        ):
            raise TypeError(
                f"by_shard: fold returned {t.schema.field(f.name).type} "
                f"for int column {f.name!r}"
            )
    return t.cast(schema)


def by_shard(ds, key, fold, schema: pa.Schema, batch_format: str = "pandas"):
    """``fold`` over each shard of ``key`` (a column name or a list of
    one or two), output in ``schema``. ``fold`` gets the shard's rows in
    ``batch_format`` (with an extra shard column) and returns a pandas
    DataFrame or an Arrow table holding at least ``schema``'s columns.
    Ray never calls it with an empty group.

    ``ds`` is a Dataset or a list of Datasets to exchange together.
    Each one gets its shard column before the union, so the shard step
    fuses into each input's last map; added after a union it would run
    as an operator of its own."""
    cols = [key] if isinstance(key, str) else list(key)

    def _add(t: pa.Table) -> pa.Table:
        return t.append_column(_COL, pa.array(shard_of(t, cols)))

    def _fold(g):
        return _to_schema(fold(g), schema)

    first, *rest = [
        d.map_batches(_add, batch_format="pyarrow")
        for d in (ds if isinstance(ds, list) else [ds])
    ]
    keyed = first.union(*rest) if rest else first
    return keyed.groupby(_COL).map_groups(_fold, batch_format=batch_format)
