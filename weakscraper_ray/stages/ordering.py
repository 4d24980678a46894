"""Stable (conv_id, turn_idx) ordering restore (SURVEY.md R3/R4).

BASELINE.json asks for stable (conv_id, turn_idx) ordering, with hot
conversations split ("salting for hot conversations") so that no
partition of the exchange is unbounded. ``restore_order`` meets both
with one total sort on the composite key, after a ``materialize()``
barrier:

- The barrier lets extraction finish with every CPU of the session.
  The sort is an all-to-all barrier anyway, so streaming extract
  output into it gains nothing; while both run at once, Ray Data's
  operator resource reservation sets CPUs aside for the stages still
  waiting behind the sort and leaves the extract stage about one task
  slot.
- Behind the barrier the input's block count and bytes are known from
  block metadata, and ``functions/exchange.py::coalesce`` merges it to
  ``max(CPUs, bytes / target_max_block_size)`` blocks. Ray Data's sort
  runs one map and one reducer per input block, so its cost grows with
  the square of the block count, not with rows: on 4 CPUs, 1.1M rows
  in 320 blocks sorted in 59 s, and in 2.8 s once coalesced.
- The sort range-partitions on sampled ``(conv_id, turn_idx)``
  boundaries into as many reducers as coalesced blocks, so each reducer
  gets at most about one target block whatever the key skew: a hot
  conversation is split at turn boundaries into contiguous turn ranges
  held by different reducers, with no salt column and no pre-pass to
  find hot conversations. Every conversation is one turn-ascending run,
  and blocks arrive in key order: the output is totally ordered.

``_conv_hash`` is the conversation hash that the checkpointed sink and
the curation stages partition by.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: turns per salt bucket of ``add_shard_salt``
DEFAULT_TURNS_PER_GROUP = 4096


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


# add_shard_salt and DEFAULT_TURNS_PER_GROUP: kept for perfbench, which imports them
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


def restore_order(ds):
    """Materialize ``ds``, coalesce it (``functions/exchange.py``), then
    sort it totally by (conv_id, turn_idx).

    Runs the upstream plan when called; the returned Dataset holds the
    coalesce and the sort lazily. The sort has one reducer per
    coalesced block, so each reducer gets at most about one target
    block, and hot conversations split across reducers at turn
    boundaries (see the module docstring).
    """
    from ..functions.exchange import coalesce  # exchange imports this module

    return coalesce(ds.materialize()).sort(["conv_id", "turn_idx"])
