"""Round-3 continuation #15b: feature engineering for text models.

- ``feature_hash``  the hashing trick (Weinberger et al., ICML 2009 —
                    the fastText / Vowpal-Wabbit input layer): every
                    token is routed to one of B buckets by a hash,
                    with a second hash bit supplying a ±1 sign so
                    collisions cancel in expectation.  Emits a compact
                    per-document read-out of the B-dim sparse vector
                    (nnz / L1 / L2² / a position-weighted checksum)
                    rather than B columns — the invariants a training
                    job would assert before feeding batches to a
                    model.

Exactness: bucket and sign derive from the SAME md5-lower-64 value on
both engines (``int.from_bytes(digest[8:], 'little')`` ==
DuckDB ``md5_number_lower`` — the table_checksum mirror), so every
output is a pure integer: no floats anywhere.

Scale shape: map-only, ZERO exchange — a document is one row, its
feature vector is batch-local; per-batch work is one Arrow lower+split,
one ``np.unique`` so each distinct token is md5-hashed once per batch
(no Arrow md5 kernel exists — same justification as ``sample_hash``),
and one ``bincount`` over (row × B + bucket) composite keys.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd  # noqa: F401
import pyarrow as pa

from .relational import _read

#: bucket count (2^8 keeps the per-batch dense matrix tiny; the
#: read-out is invariant to B as long as both engines share it)
_FH_B = 256


def _fh_batch(batch: pa.Table) -> pa.Table:
    from .curation import _explode_tokens

    rows, toks = _explode_tokens(batch)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "nnz": pa.array([], pa.int64()),
            "l1": pa.array([], pa.int64()),
            "l2sq": pa.array([], pa.int64()),
            "sketch_dot": pa.array([], pa.int64()),
        }
    )
    if len(toks) == 0:
        return empty
    uniq, inv = np.unique(toks, return_inverse=True)
    hs = np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode()).digest()[8:], "little")
            for t in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    b = (hs % np.uint64(_FH_B)).astype(np.int64)
    s = np.where(
        (hs >> np.uint64(8)) & np.uint64(1) == 0, 1, -1
    ).astype(np.int64)
    key = rows.astype(np.int64) * _FH_B + b[inv]
    v = (
        np.bincount(key, weights=s[inv].astype(np.float64),
                    minlength=len(ids) * _FH_B)
        .astype(np.int64)
        .reshape(len(ids), _FH_B)
    )  # counts << 2^53: float accumulation exact
    keep = np.bincount(rows, minlength=len(ids)) > 0
    v = v[keep]
    w = np.arange(1, _FH_B + 1, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
            "nnz": pa.array((v != 0).sum(axis=1).astype(np.int64)),
            "l1": pa.array(np.abs(v).sum(axis=1)),
            "l2sq": pa.array((v * v).sum(axis=1)),
            "sketch_dot": pa.array(v @ w),
        }
    )


def q_feature_hash(sf_dir: str):
    """Per-document hashing-trick feature sketch: bucket =
    md5_lower64(token) % 256, sign = ±1 from bit 8 of the same hash;
    emits (doc_id, nnz, l1, l2sq, sketch_dot) of the signed-count
    vector — all integers, map-only, no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_fh_batch, batch_format="pyarrow")


SQL_FEATURE_HASH = rf"""
WITH tk AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(lower(coalesce(text, ''))),
                                      '\s+')) AS t
  FROM documents),
h AS (
  SELECT doc_id,
         cast(md5_number_lower(t) % {_FH_B} AS BIGINT) AS b,
         CASE WHEN (md5_number_lower(t) // {_FH_B}) % 2 = 0
              THEN 1 ELSE -1 END AS s
  FROM tk WHERE t <> ''),
f AS (
  SELECT doc_id, b, cast(sum(s) AS BIGINT) AS v
  FROM h GROUP BY doc_id, b)
SELECT doc_id,
       cast(count(*) FILTER (WHERE v <> 0) AS BIGINT) AS nnz,
       cast(sum(abs(v)) AS BIGINT) AS l1,
       cast(sum(v * v) AS BIGINT) AS l2sq,
       cast(sum(v * (b + 1)) AS BIGINT) AS sketch_dot
FROM f GROUP BY doc_id
"""


QUERIES = {"feature_hash": q_feature_hash}
ORACLE_SQL = {"feature_hash": SQL_FEATURE_HASH}
