"""Checkpoint/resume invariants (SURVEY.md §5.2 item 3): partial run →
resume → identical output, committed partitions not recomputed;
manifest metrics consistent with output."""

import json
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from weakscraper_ray.pipelines.relational import DRIVER_SF_DIR
from weakscraper_ray.sources import (
    committed_partitions,
    metrics_rollup,
    write_partitioned,
)
from weakscraper_ray.transcripts import ensure_generated

ORDERS = os.path.join(DRIVER_SF_DIR, "orders.parquet")


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


def test_many_block_input_writes_the_same_partitions(extracted, tmp_path):
    """The sink's input repartitioned to 32 blocks is coalesced to one
    block per CPU before the shard groupby (the gate record says so),
    and writes the partitions of the unrepartitioned run: equal rows and
    key hashes per partition. A resume then rewrites nothing."""
    from weakscraper_ray.functions import gates

    want = write_partitioned(extracted, str(tmp_path / "few"), n_shards=8)
    many = extracted.repartition(32).materialize()
    assert many.num_blocks() == 32
    out = str(tmp_path / "many")
    gates.drain()
    got = write_partitioned(many, out, n_shards=8)
    [event] = [e for e in gates.drain() if e["gate"] == "exchange_coalesce"]
    assert event["path"] == "repartition"
    assert (event["blocks_in"], event["blocks_out"]) == (32, 4)

    def _by_partition(m):
        return m.set_index("partition_id")[["rows", "key_hash"]].sort_index()

    pd.testing.assert_frame_equal(_by_partition(got), _by_partition(want))
    mtimes = {
        p: os.path.getmtime(f"{out}/part={p}/data.parquet")
        for p in committed_partitions(out)
    }
    assert len(write_partitioned(many, out, n_shards=8)) == 0
    for p, t in mtimes.items():
        assert os.path.getmtime(f"{out}/part={p}/data.parquet") == t


def _peak_overlap(spans: list[tuple[float, float]]) -> int:
    events = sorted([(s, 1) for s, _ in spans] + [(e, -1) for _, e in spans])
    peak = live = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return peak


def test_sink_upstream_runs_on_every_cpu(ray_session, tmp_path):
    """The sink's shard exchange must not starve the stage feeding it:
    12 one-block inputs, each held 0.3 s by an upstream UDF, run at
    least 3 at a time on the 4-CPU session. Streamed straight into the
    ``groupby("shard")``, Ray Data's resource reservation for the
    exchange's waiting stages left the upstream one task at a time."""
    import time
    import uuid

    import pyarrow as pa
    import ray
    import ray.data

    deadline = time.monotonic() + 60
    while ray.available_resources().get("CPU", 0) < 4:
        assert time.monotonic() < deadline, "CPUs never freed"
        time.sleep(0.1)

    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()

    def _slow(batch: pa.Table) -> pa.Table:
        start = time.time()
        time.sleep(0.3)
        (spans_dir / uuid.uuid4().hex).write_text(f"{start} {time.time()}")
        return batch

    blocks = [
        pa.table({"conv_id": [f"c{i}-{j}" for j in range(10)],
                  "turn_idx": pa.array(range(10), pa.int64())})
        for i in range(12)
    ]
    ds = ray.data.from_arrow(blocks).map_batches(
        _slow, batch_size=None, batch_format="pyarrow"
    )
    out = str(tmp_path / "out")
    write_partitioned(ds, out, n_shards=8, resume=False)

    spans = [
        tuple(map(float, f.read_text().split())) for f in spans_dir.iterdir()
    ]
    assert len(spans) >= 12
    assert _peak_overlap(spans) >= 3
    assert metrics_rollup(out)["rows"] == 120


def test_cli_checksum_ignores_partitioning(tmp_path):
    """``python -m weakscraper_ray checksum`` prints the same JSON for
    two copies of the same rows: one file, and three shuffled files."""
    import subprocess
    import sys

    t = pq.read_table(ORDERS)
    one, three = tmp_path / "one", tmp_path / "three"
    one.mkdir()
    three.mkdir()
    pq.write_table(t, one / "part-0.parquet")
    shuffled = t.take(list(reversed(range(t.num_rows))))
    n = shuffled.num_rows
    for i in range(3):
        lo, hi = i * n // 3, (i + 1) * n // 3
        pq.write_table(shuffled.slice(lo, hi - lo), three / f"part-{i}.parquet",
                       row_group_size=97)

    def _checksum(d) -> dict:
        r = subprocess.run(
            [sys.executable, "-m", "weakscraper_ray", "checksum",
             "--input", str(d), "--columns", "o_orderkey,o_custkey,o_totalprice",
             "--num-cpus", "2"],
            capture_output=True, text=True, timeout=300,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert r.returncode == 0, r.stderr[-2000:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    a, b = _checksum(one), _checksum(three)
    assert a == b
    assert a["n_rows"] == t.num_rows
