"""Resumable partitioned output + per-partition lineage/metrics
manifest (SURVEY.md §4.3; BASELINE.json "per-partition checkpoints
recording lineage and extraction metrics ... resumes from the last
committed partition").

Layout:

    out/part={partition_id}/data.{suffix}   (sources.formats.FORMATS[fmt])
    out/_manifest/{partition_id}.json

Commit protocol: write data to a temp file → fsync → atomic rename →
write manifest (the manifest's existence IS the commit point). A rerun
calls :func:`committed_partitions` and prunes finished partitions
BEFORE the extract stage, so committed work is neither recomputed nor
rewritten. Metrics roll-up (R5) reads only the tiny manifests.

Partition key: ``shard = hash(conv_id) % n_shards``, so one output
partition holds whole conversations (no cross-partition turn splits).

:func:`checksum_dataset` is the audit side of the layout
(``python -m weakscraper_ray checksum``): an order-independent
fingerprint, so a rewritten or repartitioned copy can be checked
against its source without a sort.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from .formats import FORMATS, format_of


def shard_of(conv_id: str, n_shards: int) -> int:
    digest = hashlib.blake2b(conv_id.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % n_shards


def add_shard_column(n_shards: int):
    """Vectorized shard derivation: dictionary-encode conv_id, blake2b
    each DISTINCT id once, scatter (stages/ordering._conv_hash, the
    same hash as :func:`shard_of`)."""
    import numpy as np

    from ..stages.ordering import _conv_hash

    def _add(batch: pa.Table) -> pa.Table:
        shards = (_conv_hash(batch.column("conv_id")) % np.uint64(n_shards)).astype(
            np.int32
        )
        return batch.append_column("shard", pa.array(shards, pa.int32()))

    return _add


def committed_partitions(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for f in os.listdir(mdir):
        if f.endswith(".json") and not f.startswith("_"):
            out.add(int(f[: -len(".json")]))
    return out


def check_sharding(out_dir: str, n_shards: int) -> None:
    """Resume correctness requires the SAME n_shards across runs —
    otherwise old partition ids alias new ones and rows silently skip
    (ADVICE r1). The first run records n_shards in _manifest/_meta.json;
    later runs fail fast on mismatch."""
    mdir = os.path.join(out_dir, "_manifest")
    meta_path = os.path.join(mdir, "_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            recorded = json.load(fh).get("n_shards")
        if recorded != n_shards:
            raise ValueError(
                f"checkpoint at {out_dir!r} was written with n_shards="
                f"{recorded}; resuming with n_shards={n_shards} would "
                "silently skip uncommitted rows — rerun with "
                f"--shards {recorded} or a fresh output dir"
            )
        return
    os.makedirs(mdir, exist_ok=True)
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"n_shards": n_shards}, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, meta_path)


def prune_committed(ds, out_dir: str, n_shards: int, has_shard: bool = False):
    """R6 resume anti-join: drop rows whose shard already committed.

    The committed set is tiny → broadcast as a plain Python set inside
    the filter batch fn (no shuffle). Call this on the RAW input,
    BEFORE the extract stage, so a resume skips the expensive work —
    not just the writes (the CLI wires it that way); the sink calls it
    again (idempotent, ``has_shard=True``) for crash-safety between
    the two points."""
    check_sharding(out_dir, n_shards)
    if not has_shard:
        ds = ds.map_batches(add_shard_column(n_shards), batch_format="pyarrow")
    done = committed_partitions(out_dir)
    if not done:
        return ds
    done_arr = pa.array(sorted(done), pa.int32())

    def _filter(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(batch.column("shard"), value_set=done_arr))
        return batch.filter(mask)

    return ds.map_batches(_filter, batch_format="pyarrow")


def _write_one_partition(group: pa.Table, out_dir: str,
                         fmt: str = "parquet",
                         chaos_hook=None) -> pa.Table:
    """Runs inside groupby(shard).map_groups (Arrow in / Arrow out, so
    nested columns like ``spans`` survive intact) — writes one
    partition atomically and returns its manifest row.

    The part is ``data.<suffix>`` written by ``FORMATS[fmt].write``,
    the same writer ``formats.convert_dir`` uses (CSV flattens nested
    columns to JSON strings). Manifests, atomicity and resume are
    format-agnostic — the committed set is keyed on manifest files."""
    shard = int(group.column("shard")[0].as_py())
    if chaos_hook is not None:  # test seam: fault injection at the
        chaos_hook(shard, "pre_data")  # commit protocol's two phases
    pdir = os.path.join(out_dir, f"part={shard}")
    os.makedirs(pdir, exist_ok=True)
    drop = ["shard"]
    inputs: list[str] = []
    if "path" in group.column_names:
        # input lineage: which source files fed this partition (the
        # `path` column comes from read_transcripts(include_paths=True))
        inputs = sorted(
            {os.path.basename(p) for p in pc.unique(group.column("path")).to_pylist()}
        )
        drop.append("path")
    data = group.drop_columns(drop).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )

    out = FORMATS[fmt]
    tmp = os.path.join(pdir, f".data.{out.suffix}.tmp")
    final = os.path.join(pdir, f"data.{out.suffix}")
    out.write(data, tmp)
    with open(tmp, "rb") as fh:
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    if chaos_hook is not None:  # between data replace and manifest
        chaos_hook(shard, "pre_manifest")  # commit — the torn window

    convs = data.column("conv_id")
    turns = data.column("turn_idx")
    content_hash = hashlib.md5(
        "\x1e".join(
            f"{c}\x1f{t}" for c, t in zip(convs.to_pylist(), turns.to_pylist())
        ).encode()
    ).hexdigest()

    def _sum(col: str) -> int:
        if col not in data.column_names:
            return 0
        return int(pc.sum(data.column(col)).as_py() or 0)

    n_errors = 0
    if "status" in data.column_names:
        n_errors = int(
            pc.sum(pc.equal(data.column("status"), "error")).as_py() or 0
        )
    manifest = {
        "partition_id": shard,
        "rows": data.num_rows,
        "conversations": len(pc.unique(convs)),
        "nodes_matched": _sum("nodes_matched"),
        "boilerplate_bytes_stripped": _sum("boilerplate_bytes_stripped"),
        "errors": n_errors,
        "key_hash": content_hash,
        "inputs": inputs,
    }
    mdir = os.path.join(out_dir, "_manifest")
    os.makedirs(mdir, exist_ok=True)
    mtmp = os.path.join(mdir, f".{shard}.json.tmp")
    with open(mtmp, "w") as fh:
        json.dump(manifest, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(mtmp, os.path.join(mdir, f"{shard}.json"))
    return pa.Table.from_pylist([manifest])


def write_partitioned(ds, out_dir: str, n_shards: int = 16, resume: bool = True,
                      has_shard: bool = False, fmt: str = "parquet",
                      _chaos_write_hook=None):
    """Checkpointed sink: shard by conv-hash → one atomic partition +
    manifest per shard. Returns the manifest rows (small DataFrame).

    The pruned, shard-keyed input is materialized before the
    ``groupby("shard")`` exchange, the barrier ``restore_order`` uses
    (see ``stages/ordering.py``): the exchange is an all-to-all barrier
    anyway, and while upstream extraction streams into it Ray Data's
    operator resource reservation leaves the extract stage about one
    task slot. Behind the barrier extraction runs on every CPU; the
    cost is that the sink's input stays pinned in the object store
    until the manifests return. Pruning stays upstream of the barrier,
    so a resume still skips committed shards before extraction. Each
    group writes its own partition in the worker, so only the manifest
    rows come back. ``has_shard=True`` when the caller already ran
    prune_committed upstream (pre-extract).
    ``_chaos_write_hook(shard, phase)`` is the fault-injection seam
    (phases ``pre_data`` / ``pre_manifest``) used by the crash-atomicity
    chaos tests; it ships with the write closure so it executes in the
    worker.
    """
    format_of(fmt)  # fail on the driver, before any partition is written
    os.makedirs(out_dir, exist_ok=True)
    check_sharding(out_dir, n_shards)
    if resume:
        ds = prune_committed(ds, out_dir, n_shards, has_shard=has_shard)
    elif not has_shard:
        ds = ds.map_batches(add_shard_column(n_shards), batch_format="pyarrow")
    # the hook rides the closure (serialized with it), so fault
    # injection reaches the WORKER executing the write — a driver-side
    # monkeypatch would not (workers import the module fresh)
    manifests = ds.materialize().groupby("shard").map_groups(
        lambda g: _write_one_partition(
            g, out_dir, fmt=fmt, chaos_hook=_chaos_write_hook
        ),
        batch_format="pyarrow",
    )
    return manifests.to_pandas()


def metrics_rollup(out_dir: str) -> dict:
    """R5 roll-up from manifests only (never rereads data)."""
    mdir = os.path.join(out_dir, "_manifest")
    total = {
        "partitions": 0,
        "rows": 0,
        "conversations": 0,
        "nodes_matched": 0,
        "boilerplate_bytes_stripped": 0,
        "errors": 0,
    }
    if not os.path.isdir(mdir):
        return total
    for f in sorted(os.listdir(mdir)):
        if not f.endswith(".json") or f.startswith("_"):
            continue
        with open(os.path.join(mdir, f)) as fh:
            m = json.load(fh)
        total["partitions"] += 1
        for k in ("rows", "conversations", "nodes_matched",
                  "boilerplate_bytes_stripped", "errors"):
            total[k] += m.get(k, 0)
    return total


#: 2^63 - 1: per-batch partials stay int64
_CHECKSUM_MOD = 9_223_372_036_854_775_807


def _checksum_key_partial(key: pa.Array, n_rows: int) -> pa.Table:
    """One (part, n) row for a batch: the modular sum of per-row md5
    values of the canonical ``key`` strings. Per-row md5 because no
    Arrow kernel exists; the lower 8 digest bytes, little-endian,
    mirror DuckDB's md5_number_lower()."""
    acc = 0
    for s in key.to_pylist():
        acc += (
            int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
            % _CHECKSUM_MOD
        )
    return pa.table(
        {
            "part": pa.array([acc % _CHECKSUM_MOD], pa.int64()),
            "n": pa.array([n_rows], pa.int64()),
        }
    )


def checksum_dataset(ds, columns: list[str]) -> dict:
    """Order-independent fingerprint of ANY dataset over a canonical
    '|'-joined string projection of ``columns`` — the CLI audit surface
    (``python -m weakscraper_ray checksum``). Two runs over the same
    rows agree regardless of partitioning, block order, or engine
    (DuckDB mirror: sum of md5_number_lower over the same printf).
    Map-only; one row per batch reaches the driver."""

    def _part(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            *[pc.cast(batch.column(c), pa.string()) for c in columns], "|"
        )
        return _checksum_key_partial(key, batch.num_rows)

    pdf = ds.map_batches(_part, batch_format="pyarrow").to_pandas()
    return {
        "n_rows": int(pdf["n"].sum()),
        "checksum": int(sum(int(v) for v in pdf["part"])) % _CHECKSUM_MOD,
        "columns": list(columns),
    }
