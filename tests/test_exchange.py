"""``functions/exchange.py``: the bounded shard exchange behind the
keyed dedup, curation and transcript-hygiene queries."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from weakscraper_ray.functions.exchange import SHARDS, by_shard, shard_of


def test_by_shard_output_unions_with_arrow(ray_session):
    """A pandas fold's output, unioned with an Arrow Dataset, feeds a
    second exchange. Pandas blocks left in the union fail that exchange's
    sort with ``AssertionError (BlockType.ARROW, BlockType.PANDAS)``."""
    import ray.data
    from ray.data.aggregate import Sum

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    src = ray.data.from_arrow(
        pa.table({"k": pa.array(np.arange(40) % 7, pa.int64())})
    )

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False).agg(n=("k", "size"))

    counted = by_shard(src, "k", _count, schema)
    extra = ray.data.from_arrow(
        pa.table({"k": pa.array([3, 100], pa.int64()),
                  "n": pa.array([1, 5], pa.int64())})
    )

    out = counted.union(extra).groupby("k").aggregate(Sum("n")).to_pandas()
    got = dict(zip(out["k"], out["sum(n)"]))
    want = {k: int((np.arange(40) % 7 == k).sum()) for k in range(7)}
    want[3] += 1
    want[100] = 5
    assert got == want


def test_by_shard_casts_to_declared_schema(ray_session):
    import ray.data

    schema = pa.schema([("k", pa.int64()), ("x", pa.float64())])

    def _narrow(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"k": g["k"].astype(np.int32), "x": g["k"].astype(np.float32)}
        )

    src = ray.data.from_arrow(pa.table({"k": pa.array(range(20), pa.int64())}))
    out = by_shard(src, "k", _narrow, schema)
    tables = [
        t for t in out.iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    assert sum(len(t) for t in tables) == 20
    for t in tables:
        assert t.schema == schema


def test_by_shard_rejects_int_degraded_to_float(ray_session):
    import ray.data

    schema = pa.schema([("k", pa.int64())])

    def _floaty(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": g["k"].astype(np.float64)})

    src = ray.data.from_arrow(pa.table({"k": pa.array(range(5), pa.int64())}))
    with pytest.raises(Exception, match="for int column 'k'"):
        by_shard(src, "k", _floaty, schema).materialize()


def test_by_shard_of_a_list_fuses_the_shard_step(ray_session):
    """``by_shard([a, b], ...)`` gives ``by_shard(a.union(b), ...)``'s
    rows, and the shard column is added inside each input's last map:
    no ``MapBatches(_add)`` operator runs on its own."""
    import ray.data

    def _tag(t: pa.Table, side: int) -> pa.Table:
        return t.append_column("side", pa.array(np.full(len(t), side, np.int64)))

    def _inputs():
        a = ray.data.from_arrow(
            pa.table({"k": pa.array(np.arange(60) % 11, pa.int64())})
        ).map_batches(_tag, fn_args=(0,), batch_format="pyarrow")
        b = ray.data.from_arrow(
            pa.table({"k": pa.array(np.arange(25) % 7, pa.int64())})
        ).map_batches(_tag, fn_args=(1,), batch_format="pyarrow")
        return a, b

    schema = pa.schema([("k", pa.int64()), ("side", pa.int64()),
                        ("n", pa.int64())])

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["k", "side"], as_index=False).agg(n=("k", "size"))

    def _rows(ds) -> list:
        return sorted(map(tuple, ds.to_pandas()[["k", "side", "n"]].values))

    a, b = _inputs()
    listed = by_shard([a, b], "k", _count, schema).materialize()
    a, b = _inputs()
    unioned = by_shard(a.union(b), "k", _count, schema).materialize()
    assert _rows(listed) == _rows(unioned)

    def _ops(ds) -> list[str]:
        return re.findall(r"^Operator \d+ (.+?):", ds.stats(), re.M)

    assert "MapBatches(_add)" not in _ops(listed)
    assert _ops(listed).count("MapBatches(_tag)->MapBatches(_add)") == 2
    assert "MapBatches(_add)" in _ops(unioned)


@pytest.mark.parametrize(
    "table,key",
    [
        (pa.table({"a": pa.array(np.arange(3000) % 97, pa.int64())}), ["a"]),
        (pa.table({"a": pa.array([f"conv-{i % 131}" for i in range(3000)])}),
         ["a"]),
        (pa.table({"a": pa.array(np.arange(3000) % 13, pa.int64()),
                   "b": pa.array(np.arange(3000) % 17, pa.int64())}),
         ["a", "b"]),
    ],
    ids=["int", "string", "two-column"],
)
def test_shard_of_colocates_each_key(table, key):
    sh = shard_of(table, key)
    assert sh.dtype == np.int64
    assert ((sh >= 0) & (sh < SHARDS)).all()
    df = table.to_pandas()
    df["shard"] = sh
    per_key = df.groupby(key)["shard"].nunique()
    assert (per_key == 1).all()
    assert df["shard"].nunique() > 1
