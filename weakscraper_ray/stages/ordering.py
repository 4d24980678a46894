"""Stable (conv_id, turn_idx) ordering restore with hot-conversation
salting (SURVEY.md R3/R4, BASELINE.json "groupby-conv_id plus
per-group sort ... repartitions by conv_id hash with salting for hot
conversations").

Implementation note (measured at bench scale): grouping by raw
``conv_id`` yields ~1 tiny group per conversation (tens of rows), and
per-group UDF overhead dominates — the stage stopped scaling 8→32
CPUs. So the shuffle key is the conv-HASH SHARD (a few groups per
CPU), and the per-group sort is one vectorized Arrow ``sort_by`` over
the whole shard: every conversation's turns are contiguous and sorted
within its shard group, which is exactly the stable-ordering contract.

Skew handling: the key gets a ``salt = turn_idx // turns_per_group``
component. For normal conversations salt==0 and the conversation stays
whole; a hot conversation (≫ turns_per_group turns) splits into
bounded contiguous turn-ranges so no single shuffle partition receives
an unbounded group. Within each (shard, salt) group rows are fully
sorted, and salt buckets are contiguous turn ranges, so concatenating
a conversation's buckets in salt order restores total order without a
global sort. Requires no pre-pass to identify hot conversations.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: turns per salt bucket — bounds any shuffle group's share of one
#: conversation regardless of skew
DEFAULT_TURNS_PER_GROUP = 4096

#: FNV-ish multiplier for the string hash below
_FNV = np.uint64(1099511628211)


def _conv_hash(conv_ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash per conv_id, vectorized-ish: hash each
    DISTINCT id once (dictionary-encode first), then scatter."""
    arr = conv_ids.combine_chunks() if isinstance(conv_ids, pa.ChunkedArray) else conv_ids
    dict_arr = pc.dictionary_encode(arr)
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    uniques = dict_arr.dictionary.to_pylist()
    import hashlib

    uhash = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(u.encode(), digest_size=8).digest(), "little"
            )
            for u in uniques
        ),
        dtype=np.uint64,
        count=len(uniques),
    )
    codes = dict_arr.indices.to_numpy(zero_copy_only=False)
    return uhash[codes]


def add_shard_salt(n_shards: int, turns_per_group: int = DEFAULT_TURNS_PER_GROUP):
    def _add(batch: pa.Table) -> pa.Table:
        h = _conv_hash(batch.column("conv_id"))
        shard = (h % np.uint64(n_shards)).astype(np.int32)
        salt = (
            batch.column("turn_idx").to_numpy(zero_copy_only=False)
            // turns_per_group
        ).astype(np.int32)
        return batch.append_column("shard", pa.array(shard)).append_column(
            "salt", pa.array(salt)
        )

    return _add


def _sort_group(group: pa.Table) -> pa.Table:
    return group.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def restore_order(
    ds,
    n_shards: int | None = None,
    turns_per_group: int = DEFAULT_TURNS_PER_GROUP,
):
    """groupby(conv-hash shard ⊕ turn-salt) → one vectorized per-group
    sort by (conv_id, turn_idx).

    Output groups hold whole conversations (or bounded contiguous
    turn-ranges of hot ones), internally fully sorted. Block order
    across groups is NOT globally sorted — use
    ``ds.sort(["conv_id", "turn_idx"])`` on small final artifacts when
    one totally-ordered view is required; the per-turn equality
    contract needs only stable (conv_id, turn_idx) keyed rows.
    """
    if n_shards is None:
        try:
            import ray

            n_shards = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:  # pragma: no cover
            n_shards = 64
    salted = ds.map_batches(
        add_shard_salt(n_shards, turns_per_group), batch_format="pyarrow"
    )
    grouped = salted.groupby(["shard", "salt"]).map_groups(
        _sort_group, batch_format="pyarrow"
    )
    return grouped.drop_columns(["shard", "salt"])
