"""Checkpoint/resume invariants (SURVEY.md §5.2 item 3): partial run →
resume → identical output, committed partitions not recomputed;
manifest metrics consistent with output."""

import json
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from weakscraper_ray.sources import (
    committed_partitions,
    metrics_rollup,
    write_partitioned,
)
from weakscraper_ray.transcripts import ensure_generated


@pytest.fixture(scope="module")
def extracted(ray_session):
    from weakscraper_ray.pipelines import run_flagship

    tiny = ensure_generated("tiny")
    # spans (list<struct>) kept: the sink is Arrow-native end to end
    return run_flagship(tiny, batch_size=64, restore_ordering=False)


def test_write_resume_skips_committed(extracted, tmp_path):
    out = str(tmp_path / "out")
    m1 = write_partitioned(extracted, out, n_shards=8)
    # tiny table has ~10 conversations: only nonempty shards are written
    shards = committed_partitions(out)
    assert len(m1) == len(shards) >= 3
    total_rows = m1["rows"].sum()

    # record mtimes; a resumed run must not rewrite committed partitions
    mtimes = {
        p: os.path.getmtime(f"{out}/part={p}/data.parquet")
        for p in committed_partitions(out)
    }
    m2 = write_partitioned(extracted, out, n_shards=8)
    assert len(m2) == 0  # everything committed -> nothing recomputed
    for p, t in mtimes.items():
        assert os.path.getmtime(f"{out}/part={p}/data.parquet") == t

    roll = metrics_rollup(out)
    assert roll["partitions"] == len(shards)
    assert roll["rows"] == total_rows


def test_partial_commit_then_resume_completes(extracted, tmp_path):
    out = str(tmp_path / "out2")
    full = write_partitioned(extracted, out, n_shards=8)
    want_rows = full["rows"].sum()

    # simulate a crash: delete half the manifests (commit points)
    shards = sorted(committed_partitions(out))
    crashed = shards[: len(shards) // 2]
    mdir = f"{out}/_manifest"
    for p in crashed:
        os.remove(f"{mdir}/{p}.json")
    assert len(committed_partitions(out)) == len(shards) - len(crashed)

    m = write_partitioned(extracted, out, n_shards=8)
    # exactly the crashed partitions re-ran
    assert sorted(m["partition_id"]) == crashed
    assert sorted(committed_partitions(out)) == shards
    assert metrics_rollup(out)["rows"] == want_rows

    # output identical to a clean run: every partition sorted by key
    dfs = [
        pq.read_table(f"{out}/part={p}/data.parquet").to_pandas() for p in shards
    ]
    merged = pd.concat(dfs).sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(merged) == want_rows
    assert merged.duplicated(["conv_id", "turn_idx"]).sum() == 0


def test_manifest_contents(extracted, tmp_path):
    out = str(tmp_path / "out3")
    write_partitioned(extracted, out, n_shards=4)
    first = sorted(committed_partitions(out))[0]
    with open(f"{out}/_manifest/{first}.json") as fh:
        m = json.load(fh)
    assert {"partition_id", "rows", "conversations", "nodes_matched",
            "boilerplate_bytes_stripped", "errors", "key_hash"} <= set(m)
    tbl = pq.read_table(f"{out}/part={first}/data.parquet")
    df = tbl.to_pandas()
    assert len(df) == m["rows"]
    assert df["nodes_matched"].sum() == m["nodes_matched"]
    # whole conversations land in one shard
    assert df.groupby("conv_id")["turn_idx"].count().sum() == len(df)
    # nested spans column survived the checkpointed write intact
    assert "spans" in tbl.column_names
    import pyarrow as pa
    assert pa.types.is_list(tbl.schema.field("spans").type)
