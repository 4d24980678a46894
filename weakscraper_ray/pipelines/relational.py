"""Relational + training-data operators over the testdata tables
(SURVEY.md §2.5 R1–R10 + the dedup/similarity/text families), each as
a ``queries()`` entry with a DuckDB ``oracle_sql()`` twin where the
semantics are SQL-expressible.

Conventions (driver contract, ``__ray_entry__.py``):
- every callable takes ``sf_dir`` and returns a Dataset / DataFrame /
  Table; aggregate column names match the SQL aliases exactly;
- money sums rounded to 2 decimals, averages to 4, scores to 4–6, so
  the order-insensitive value-hash is stable across summation orders;
- Ray-side implementations follow the scale rules: column-pruned
  reads, vectorized batch bodies, partial aggregation before groupbys,
  broadcast small sides (ray.put) instead of shuffle joins.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.exchange import by_shard, shard_of


def _i64_away(col, scale: float = 100.0):
    """``cast(round(col * scale) AS BIGINT)`` with ties rounded HALF
    AWAY FROM ZERO — the exact semantics of DuckDB's ``round()``, which
    every money/score oracle twin in this module uses. ``pc.round``'s
    default is half-to-even, and the sf data really hits exact .5 cent
    ties (ADVICE r2: 10 order groups at sf0.01, 129 at sf0.1), so the
    default would diverge from the oracle whenever a tie surfaces."""
    return pc.cast(
        pc.round(pc.multiply(col, float(scale)), 0,
                 round_mode="half_towards_infinity"),
        pa.int64(),
    )


def _i64_away_np(arr, scale: float = 100.0):
    """numpy/pandas twin of :func:`_i64_away` (np.round/pandas.round are
    half-to-even too)."""
    scaled = np.asarray(arr, dtype=np.float64) * scale
    return np.copysign(np.floor(np.abs(scaled) + 0.5), scaled).astype("int64")


def _p(sf_dir: str, table: str) -> str:
    return f"{sf_dir}/{table}.parquet"


def _read(sf_dir: str, table: str, columns: list[str]):
    return ray.data.read_parquet(_p(sf_dir, table), columns=columns)


def _schema_guard(ds, schema: pa.Schema):
    """Convert ``ds``'s blocks to Arrow in ``schema`` (select + cast),
    for the exchanges that do not run through
    ``functions.exchange.by_shard``. Its effect is the conversion: a
    pandas-format ``map_groups`` emits pandas blocks, and a union of
    pandas and Arrow blocks fails the next ``groupby`` or ``sort`` with
    ``AssertionError (BlockType.ARROW, BlockType.PANDAS)``. Empty
    blocks pass unchanged, because Ray skips ``map_batches`` on them;
    the exchanges downstream accept them."""
    return ds.map_batches(
        lambda t: t.select(schema.names).cast(schema), batch_format="pyarrow"
    )


#: per-query ANN partial rows (knn_lsh / knn_ivf chained exchanges)
_KNN_PARTIAL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("score", pa.float64())]
)


# =====================================================================
# R5-style aggregation: TPC-H Q1 shape with in-batch partial aggregation
# =====================================================================

def _q1_partial(batch: pa.Table) -> pa.Table:
    disc_price = pc.multiply(
        batch.column("l_extendedprice"), pc.subtract(1.0, batch.column("l_discount"))
    )
    t = batch.append_column("disc_price", disc_price)
    return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("l_quantity", "sum"), ("l_extendedprice", "sum"),
         ("disc_price", "sum"), ("l_quantity", "count")]
    )


def _q1_finalize(batch: pa.Table) -> pa.Table:
    sum_qty = batch.column("sum(l_quantity_sum)")
    sum_base = batch.column("sum(l_extendedprice_sum)")
    sum_disc = batch.column("sum(disc_price_sum)")
    n = batch.column("sum(l_quantity_count)")
    def _cents(col, scale=100):
        # scaled-integer output: exact under any summation order, so the
        # driver's value-hash is stable (floats differ in the last ulp)
        return _i64_away(col, scale)

    return pa.table(
        {
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "sum_qty": _cents(sum_qty, 1),
            "sum_base_price_cents": _cents(sum_base),
            "sum_disc_price_cents": _cents(sum_disc),
            "avg_qty_e4": _cents(pc.divide(sum_qty, pc.cast(n, pa.float64())), 10000),
            "count_order": pc.cast(n, pa.int64()),
        }
    )


def q_pricing_summary(sf_dir: str):
    """Pre-aggregate per batch (pyarrow group_by) → small groupby →
    finalize. The shuffle moves one row per (flag, status) per batch."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    partials = ds.map_batches(_q1_partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("l_quantity_sum"), Sum("l_extendedprice_sum"),
        Sum("disc_price_sum"), Sum("l_quantity_count"),
    )
    return agg.map_batches(_q1_finalize, batch_format="pyarrow")


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       cast(round(sum(l_quantity), 0) AS BIGINT)                            AS sum_qty,
       cast(round(sum(l_extendedprice) * 100, 0) AS BIGINT)                 AS sum_base_price_cents,
       cast(round(sum(l_extendedprice * (1 - l_discount)) * 100, 0) AS BIGINT) AS sum_disc_price_cents,
       cast(round(sum(l_quantity) / count(*) * 10000, 0) AS BIGINT)         AS avg_qty_e4,
       cast(count(*) AS BIGINT)                                             AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


# =====================================================================
# R1/R2: filter + projection (vectorized predicate inside map_batches)
# =====================================================================

def q_filter_project(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "click")).select(
            ["event_id", "user_id", "value"]
        ),
        batch_format="pyarrow",
    )


SQL_FILTER_PROJECT = """
SELECT event_id, user_id, value FROM events WHERE event_type = 'click'
"""


# =====================================================================
# R7: broadcast lookup join (small dims shipped once, no shuffle join)
# =====================================================================

class _NationRevenue:
    """Actor: holds the broadcast custkey→nation-name lookup as Arrow
    arrays; per batch one index_in + take + group_by — fully
    Arrow-native (no pandas round-trip), emitting tiny partials."""

    def __init__(self, lookup_ref):
        lk = ray.get(lookup_ref) if isinstance(lookup_ref, ray.ObjectRef) else lookup_ref
        self.custkeys = pa.array(lk["custkeys"], pa.int64())
        self.names = pa.array(lk["names"], pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("o_custkey"), value_set=self.custkeys)
        t = pa.table(
            {
                "n_name": pc.take(self.names, idx),
                "rev": batch.column("o_totalprice"),
                "n": batch.column("o_orderkey"),
            }
        )
        g = t.group_by("n_name").aggregate([("rev", "sum"), ("n", "count")])
        return pa.table(
            {
                "n_name": g.column("n_name"),
                "rev": g.column("rev_sum"),
                "n": g.column("n_count"),
            }
        )


def q_broadcast_join(sf_dir: str):
    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]).to_pandas()
    lookup = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey"
    )
    ref = ray.put(
        {"custkeys": lookup["c_custkey"].tolist(), "names": lookup["n_name"].tolist()}
    )
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        _NationRevenue,
        fn_constructor_kwargs=dict(lookup_ref=ref),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )
    agg = partials.groupby("n_name").aggregate(Sum("rev"), Sum("n"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "n_name": t.column("n_name"),
                "total_revenue_cents": _i64_away(t.column("sum(rev)")),
                "n_orders": pc.cast(t.column("sum(n)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_BROADCAST_JOIN = """
SELECT n.n_name,
       cast(round(sum(o.o_totalprice) * 100, 0) AS BIGINT) AS total_revenue_cents,
       cast(count(*) AS BIGINT)      AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n   ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


# =====================================================================
# R9: sort / top-k (deterministic tie-break)
# =====================================================================

def q_topk_orders(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


SQL_TOPK = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
"""


# =====================================================================
# R5: groupby aggregate with partial combine
# =====================================================================

def q_events_by_type(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])
    partials = ds.map_batches(
        lambda t: t.group_by("event_type").aggregate([("value", "sum"), ("value", "count")]),
        batch_format="pyarrow",
    )
    agg = partials.groupby("event_type").aggregate(Sum("value_sum"), Sum("value_count"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "event_type": t.column("event_type"),
                "n_events": pc.cast(t.column("sum(value_count)"), pa.int64()),
                "sum_value_cents": _i64_away(t.column("sum(value_sum)")),
            }
        ),
        batch_format="pyarrow",
    )


SQL_EVENTS_BY_TYPE = """
SELECT event_type,
       cast(count(*) AS BIGINT) AS n_events,
       cast(round(sum(value) * 100, 0) AS BIGINT) AS sum_value_cents
FROM events GROUP BY event_type
"""


# =====================================================================
# R8-adjacent: distinct
# =====================================================================

def q_distinct_lang_source(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return (
        ds.groupby(["lang", "source"])
        .aggregate(Count())
        .select_columns(["lang", "source"])
    )


SQL_DISTINCT = "SELECT DISTINCT lang, source FROM documents"


# =====================================================================
# R10: union
# =====================================================================

def q_union_orders(sf_dir: str):
    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]
    ds = _read(sf_dir, "orders", cols)
    open_orders = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("o_orderstatus"), "O")),
        batch_format="pyarrow",
    )
    big_finished = ds.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.equal(t.column("o_orderstatus"), "F"),
                pc.greater(t.column("o_totalprice"), 200000.0),
            )
        ),
        batch_format="pyarrow",
    )
    return open_orders.union(big_finished)


SQL_UNION = """
SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderstatus = 'O'
UNION ALL
SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders
WHERE o_orderstatus = 'F' AND o_totalprice > 200000.0
"""


# =====================================================================
# Dedup (exact): hash → groupby(hash) → first per group
# =====================================================================

def q_dedup_exact(sf_dir: str):
    from ..functions.dedup import content_hash_batch, first_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(content_hash_batch, batch_format="pyarrow")
    # shuffle carries (hash, doc_id) only — drop the payload first
    slim = hashed.select_columns(["doc_id", "content_hash"])
    from ray.data.aggregate import Count, Min

    agg = slim.groupby("content_hash").aggregate(
        Min("doc_id"), Count(alias_name="n_copies")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "doc_id": pc.cast(t.column("min(doc_id)"), pa.int64()),
                "n_copies": pc.cast(t.column("n_copies"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_DEDUP_EXACT = """
SELECT cast(min(doc_id) AS BIGINT) AS doc_id,
       cast(count(*) AS BIGINT)    AS n_copies
FROM documents GROUP BY md5(text)
"""


# =====================================================================
# Windowed running aggregate (groupby + per-group ordered cumsum)
# =====================================================================

def _user_shard(t: pa.Table) -> pa.Table:
    """Append ``shard_of(user_id)`` as ``shard``: the re-keying front
    half of the per-user folds in the series, analytics and engagement
    families, which run their own ``groupby`` on it."""
    return t.append_column("shard", pa.array(shard_of(t, ["user_id"])))


def _running_shard(g: pd.DataFrame) -> pd.DataFrame:
    # one vectorized sort + segmented (per-user) cumsum per SHARD —
    # pandas groupby-cumsum adds sequentially within each group in row
    # order, so the float semantics match the per-user fold exactly
    # (VERDICT r3 #4: per-group-UDF count must not scale with user
    # cardinality; the qa_pairs / pack_conversations re-keying shape)
    d = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    run = d.groupby("user_id", sort=False)["value"].cumsum().to_numpy()
    return pd.DataFrame(
        {
            "event_id": d["event_id"].to_numpy(np.int64),
            "user_id": d["user_id"].to_numpy(np.int64),
            "running_value_cents": _i64_away_np(run),
        }
    )


def q_running_sum(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    return by_shard(
        ds, "user_id", _running_shard,
        pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("running_value_cents", pa.int64()),
            ]
        ),
    )


SQL_RUNNING = """
SELECT event_id, user_id,
       cast(round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) * 100, 0) AS BIGINT)
           AS running_value_cents
FROM events
"""


# =====================================================================
# Text family (oracle-backed members)
# =====================================================================

def q_token_count(sf_dir: str):
    from ..functions.text import token_count_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pyarrow")


SQL_TOKEN_COUNT = """
SELECT doc_id,
       cast(CASE WHEN trim(text) = '' THEN 0
                 ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS BIGINT)
           AS n_tokens
FROM documents
"""


def q_fingerprint(sf_dir: str):
    from ..functions.text import fingerprint_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


SQL_FINGERPRINT = "SELECT doc_id, md5(text) AS fp FROM documents"


# =====================================================================
# R6-style semi/anti joins via broadcast key sets
# =====================================================================

def _rich_customers(sf_dir: str) -> list:
    t = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_acctbal"])
    mask = pc.greater(t.column("c_acctbal"), 5000.0)
    return t.filter(mask).column("c_custkey").to_pylist()


class _KeySetFilter:
    """Broadcast semi/anti join: the key value_set is fetched and built
    into an Arrow array ONCE per actor in __init__ (not per batch —
    VERDICT r1 'What's wrong' #5)."""

    def __init__(self, keys_ref, anti: bool = False, column: str = "o_custkey"):
        ks = ray.get(keys_ref) if isinstance(keys_ref, ray.ObjectRef) else keys_ref
        self.value_set = pa.array(ks, pa.int64())
        self.anti = anti
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(self.column), value_set=self.value_set)
        if self.anti:
            mask = pc.invert(mask)
        return batch.filter(mask)


def q_semi_join(sf_dir: str):
    keys = ray.put(_rich_customers(sf_dir))
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return ds.map_batches(
        _KeySetFilter,
        fn_constructor_kwargs=dict(keys_ref=keys, anti=False),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )


SQL_SEMI_JOIN = """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000.0)
"""


def q_anti_join(sf_dir: str):
    keys = ray.put(_rich_customers(sf_dir))
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return ds.map_batches(
        _KeySetFilter,
        fn_constructor_kwargs=dict(keys_ref=keys, anti=True),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )


SQL_ANTI_JOIN = """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000.0)
"""


# =====================================================================
# Similarity search: brute-force cosine top-k (oracle via DuckDB
# list_cosine_similarity) + LSH-bucketed scale path (rows-only)
# =====================================================================

_KNN_QUERIES = 4
_KNN_K = 10


def q_knn_cosine(sf_dir: str):
    from ..functions.similarity import knn_brute_force

    qt = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qmask = pc.less(qt.column("vec_id"), _KNN_QUERIES)
    qsel = qt.filter(qmask)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_brute_force(
        ds,
        qsel.column("vec_id").to_pylist(),
        qsel.column("embedding").to_pylist(),
        k=_KNN_K,
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "query_id": t.column("query_id"),
                "vec_id": t.column("vec_id"),
                "score_e4": _i64_away(t.column("score"), 10000.0),
            }
        ),
        batch_format="pyarrow",
    )


SQL_KNN = f"""
SELECT query_id, vec_id, score_e4 FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
         cast(round(list_cosine_similarity(q.embedding, e.embedding) * 10000, 0) AS BIGINT)
             AS score_e4,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY round(list_cosine_similarity(q.embedding, e.embedding) * 10000, 0) DESC,
                    e.vec_id ASC
         ) AS rn
  FROM embeddings q CROSS JOIN embeddings e
  WHERE q.vec_id < {_KNN_QUERIES}
) WHERE rn <= {_KNN_K}
"""


def q_embed_knn(sf_dir: str):
    """documents → TextEncoder (stub-contract actor stage) →
    brute-force cosine top-k: the full chain a real similarity pipeline
    runs, starting from raw text instead of a pre-baked embeddings
    table (VERDICT r2 #5). Queries = the _KNN_QUERIES lowest doc_ids,
    encoded driver-side (small side, broadcast by knn_brute_force)."""
    from ..functions.embed import TextEncoder, _load_model, encode_text
    from ..functions.similarity import knn_brute_force

    qt = pq.read_table(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    qsel = qt.filter(pc.less(qt.column("doc_id"), _KNN_QUERIES))
    model = _load_model(dim=64, seed=42)
    qemb = encode_text(qsel.column("text").to_pylist(), model)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    enc = ds.map_batches(
        TextEncoder,
        fn_constructor_kwargs=dict(dim=64),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )
    out = knn_brute_force(
        enc, qsel.column("doc_id").to_pylist(), qemb, k=_KNN_K
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "query_id": t.column("query_id"),
                "vec_id": t.column("vec_id"),
                "score_e4": _i64_away(t.column("score"), 10000.0),
            }
        ),
        batch_format="pyarrow",
    )


def _sql_embed_knn(sf_dir: str) -> str:
    from .. import oracles

    twin = oracles.embeddings_twin(sf_dir)
    return f"""
SELECT query_id, vec_id, score_e4 FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
         cast(round(list_cosine_similarity(q.embedding, e.embedding) * 10000, 0) AS BIGINT)
             AS score_e4,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY round(list_cosine_similarity(q.embedding, e.embedding) * 10000, 0) DESC,
                    e.vec_id ASC
         ) AS rn
  FROM read_parquet('{twin}') q CROSS JOIN read_parquet('{twin}') e
  WHERE q.vec_id < {_KNN_QUERIES}
) WHERE rn <= {_KNN_K}
"""


class _MultiTableLSH:
    """Classic multi-table hyperplane LSH: L independent plane sets,
    each row exploded to (table, bucket, vec_id[, embedding]) — union
    of per-table bucket probes gives recall 1-(1-p^b)^L instead of a
    single table's p^b. Planes built once per actor.

    ``include_embedding=False`` (the scale default for near-dup) keeps
    the payload off the bucket shuffle entirely: only ~20 bytes/row ×
    L tables move, instead of the embedding ×L (VERDICT r2 #3 measured
    this as an 8× all-to-all blow-up on the most expensive column).
    knn_lsh still rides the embedding along (scoring needs the vectors
    in-bucket and its queries are the whole table); its documented
    partitioning assumption is that bucket payload ≈ L× input is
    affordable — the IVF path is the leaner scale alternative."""

    def __init__(self, dim: int = 64, n_bits: int = 4, n_tables: int = 8,
                 seed: int = 42, column: str = "embedding",
                 include_embedding: bool = True):
        rng = np.random.RandomState(seed)
        self.planes = [
            rng.randn(dim, n_bits).astype(np.float32) for _ in range(n_tables)
        ]
        self.column = column
        self.include_embedding = include_embedding
        self._weights = 1 << np.arange(n_bits, dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.embed import fixed_list_to_numpy

        mat = fixed_list_to_numpy(batch.column(self.column), dtype=np.float32)
        n = len(mat)
        tables, buckets = [], []
        for t, planes in enumerate(self.planes):
            bits = (mat @ planes > 0).astype(np.int64)
            buckets.append(bits @ self._weights)
            tables.append(np.full(n, t, dtype=np.int32))
        reps = len(self.planes)
        cols = {
            "table": np.concatenate(tables),
            "bucket": np.concatenate(buckets),
            "vec_id": pa.concat_arrays(
                [batch.column("vec_id").combine_chunks()] * reps
            ),
        }
        if self.include_embedding:
            cols["embedding"] = pa.concat_arrays(
                [batch.column(self.column).combine_chunks()] * reps
            )
        return pa.table(cols)


def q_knn_lsh(sf_dir: str):
    """Scale path: multi-table hyperplane LSH; each vector scores only
    its (table, bucket) co-occupants, then a per-query reduce over the
    union of tables keeps the global top-k (rows-only check —
    approximate by design; recall floor asserted vs knn_cosine in
    tests/test_round2.py)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # 16 tables × 4 bits (VERDICT r3 #7): collision prob for a cos≈0.4
    # true neighbor is ≈0.16/table → 1-(1-p)^16 ≈ 0.94 expected recall
    # (measured ≥0.8 and pinned in tests/test_round2.py); bucket matmul
    # volume stays ≈ n²/16 per table — still far under brute force
    bucketed = ds.map_batches(
        _MultiTableLSH,
        fn_constructor_kwargs=dict(n_bits=4, n_tables=16),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )

    def _bucket_knn(group: pd.DataFrame) -> pd.DataFrame:
        mat = np.asarray(group["embedding"].to_list(), dtype=np.float64)
        ids = group["vec_id"].to_numpy()
        unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = unit @ unit.T
        k = min(_KNN_K, len(ids))
        rows = []
        from ..functions.similarity import round_e4_away

        rounded = round_e4_away(sims) / 10000.0
        for qi in range(len(ids)):
            order = np.argsort(-sims[qi])[:k]
            for vi in order:
                rows.append((ids[qi], ids[vi], float(rounded[qi, vi])))
        return pd.DataFrame(rows, columns=["query_id", "vec_id", "score"])

    partials = _schema_guard(
        bucketed.groupby(["table", "bucket"]).map_groups(
            _bucket_knn, batch_format="pandas"
        ),
        _KNN_PARTIAL_SCHEMA,
    )

    # driver-side final top-k over the bounded partials (same rationale
    # as knn_ivf: ≤ nbuckets × nqueries × k rows; avoids the chained
    # exchange whose empty-block race _schema_guard cannot fully close)
    pdf = partials.to_pandas()
    return (
        pdf.sort_values(
            ["query_id", "score", "vec_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .drop_duplicates(["query_id", "vec_id"])
        .groupby("query_id", group_keys=False)
        .head(_KNN_K)
        .reset_index(drop=True)
    )


# =====================================================================
# Near-dup families (each now driver-green: MinHash verified pairs vs
# an all-pairs shingle-Jaccard SQL; SimHash banded pairs vs an
# all-pairs bit_count(xor) SQL over a signature twin)
# =====================================================================

def _shingle_set(text: str, k: int = 3) -> set:
    w = (text or "").lower().split()
    return set(" ".join(w[i : i + k]) for i in range(len(w) - k + 1))


class _JaccardVerify:
    """Per-pair exact verify against a broadcast CANDIDATE-ONLY text
    map (never the corpus): J >= 0.5 expressed as the integer condition
    3*|A∩B| >= |A|+|B| (no float-threshold ulp risk vs the SQL oracle).
    Shingle sets are memoized per doc across the actor's batches."""

    def __init__(self, texts_ref):
        self.texts = (
            ray.get(texts_ref) if isinstance(texts_ref, ray.ObjectRef) else texts_ref
        )
        self._cache: dict[int, set] = {}

    def _sh(self, doc_id: int) -> set:
        s = self._cache.get(doc_id)
        if s is None:
            s = self._cache[doc_id] = _shingle_set(self.texts[doc_id])
        return s

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = []
        for x, y in zip(
            batch.column("doc_a").to_pylist(), batch.column("doc_b").to_pylist()
        ):
            sa, sb = self._sh(x), self._sh(y)
            # (sa or sb): a pair of <3-word docs has two empty shingle
            # sets, making the integer condition vacuously true (0>=0);
            # such docs carry no shingle evidence, so drop the pair —
            # mirrored by the len(a.s)+len(b.s) > 0 clause in the SQL
            # twin (ADVICE r2).
            keep.append(
                bool(sa or sb) and 3 * len(sa & sb) >= len(sa) + len(sb)
            )
        return batch.filter(pa.array(keep)).select(["doc_a", "doc_b"])


#: worker-persistent verifier (same task-not-actor rationale as
#: functions.dedup._MINHASHERS: the pair set is small, so actor-pool
#: spawn latency outweighed the verify compute). One live broadcast at
#: a time per worker; keyed by the ObjectRef so a new query's broadcast
#: replaces the old one.
_VERIFIERS: dict[str, "_JaccardVerify"] = {}


def _jaccard_verify_batch(batch: pa.Table, texts_ref=None) -> pa.Table:
    key = texts_ref.hex() if hasattr(texts_ref, "hex") else str(id(texts_ref))
    v = _VERIFIERS.get(key)
    if v is None:
        _VERIFIERS.clear()
        v = _VERIFIERS[key] = _JaccardVerify(texts_ref)
    return v(batch)


#: above this many candidate pairs the verify stage switches from the
#: bounded-broadcast path to the fully-distributed shuffle join — the
#: broadcast bound is data-dependent (LSH precision), not a constant,
#: so a high-duplication corpus must not silently materialize it
#: driver-side (VERDICT r2 #4).
_MINHASH_BROADCAST_MAX_PAIRS = 250_000

_PAIR_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


_VERIFY_SIDE_SCHEMA = pa.schema(
    [
        ("doc_a", pa.int64()),
        ("doc_b", pa.int64()),
        ("side", pa.int8()),
        ("text", pa.string()),
    ]
)


def _minhash_verify_shuffle(uniq, docs_ds):
    """Fully-distributed Jaccard verify for extreme candidate counts:
    a manual two-phase hash join (texts attached to each pair side by
    doc_id, then pairs reassembled and verified), with BOTH phases run
    by ``functions.exchange.by_shard`` — one vectorized pandas UDF per
    shard, never one dispatch per doc or per pair, so the dispatch count
    does not grow with the candidate-pair count (VERDICT r4 #1).
    Nothing is materialized on the driver or broadcast.
    Expressed with the engine's own keyed groupby rather than
    ``Dataset.join`` because Ray 2.49 joins spawn per-join aggregator
    actor pools that deadlock small sessions, and this path would
    need two of them."""

    # -- phase 1: attach each side's text. Exchange key = the doc_id
    # whose text the row needs; doc rows carry side = -1.
    def _sides(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").combine_chunks().cast(pa.int64())
        b = batch.column("doc_b").combine_chunks().cast(pa.int64())
        n = len(a)
        doc_id = pa.concat_arrays([a, b])
        return pa.table(
            {
                "doc_id": doc_id,
                "doc_a": pa.concat_arrays([a, a]),
                "doc_b": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, pa.int8()),
                "text": pa.nulls(2 * n, pa.string()),
            }
        )

    def _tag_docs(batch: pa.Table) -> pa.Table:
        n = len(batch)
        doc_id = batch.column("doc_id").combine_chunks().cast(pa.int64())
        # doc rows carry -1 sentinels (side=-1 already marks them), NOT
        # nulls: an int64 column with nulls degrades to float64 in the
        # per-shard pandas UDF, silently rounding pair ids above 2^53
        # (code-review r5)
        neg1 = pa.array(np.full(n, -1, np.int64))
        return pa.table(
            {
                "doc_id": doc_id,
                "doc_a": neg1,
                "doc_b": neg1,
                "side": pa.array([-1] * n, pa.int8()),
                "text": batch.column("text").combine_chunks().cast(pa.string()),
            }
        )

    def _attach_shard(g: pd.DataFrame) -> pd.DataFrame:
        # one doc-id shard: doc rows (side -1) -> text map, side rows
        # pick up their text via one vectorized Series.map. Docs with
        # no candidate pair simply map nothing and vanish here.
        is_doc = g["side"].to_numpy() == -1
        textmap = pd.Series(
            g.loc[is_doc, "text"].to_numpy(),
            index=g.loc[is_doc, "doc_id"].to_numpy(),
        )
        out = g.loc[~is_doc, ["doc_a", "doc_b", "side"]].copy()
        out["text"] = g.loc[~is_doc, "doc_id"].map(textmap)
        return out

    # -- phase 2: reassemble pairs. Exchange key = (doc_a, doc_b);
    # within a shard, a lexsort lines the two sides of each pair
    # up adjacently and one pass verifies every pair, memoizing
    # shingle sets per (doc_id side) so a hub doc's set is built once
    # per shard, not once per pair.
    def _verify_shard(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["doc_a", "doc_b", "side"], kind="mergesort")
        da = d["doc_a"].to_numpy()
        db = d["doc_b"].to_numpy()
        side = d["side"].to_numpy()
        texts = d["text"].to_numpy(dtype=object)
        memo: dict[int, set] = {}

        def _sh(doc: int, text) -> set:
            s = memo.get(doc)
            if s is None:
                s = memo[doc] = _shingle_set(
                    text if isinstance(text, str) else None
                )
            return s

        out_a: list[int] = []
        out_b: list[int] = []
        i, n = 0, len(d)
        while i < n:
            # each pair contributes exactly two adjacent rows
            # (side 0 then side 1) after the lexsort — enforced with a
            # real raise, not assert (which vanishes under python -O;
            # code-review r5)
            if not (
                i + 1 < n
                and da[i] == da[i + 1]
                and db[i] == db[i + 1]
                and side[i] == 0
                and side[i + 1] == 1
            ):
                raise RuntimeError(
                    "minhash shuffle verify: pair rows not adjacent — "
                    "phase 1 emitted a partial pair (upstream pair set "
                    "not distinct?)"
                )
            sa = _sh(int(da[i]), texts[i])
            sb = _sh(int(db[i]), texts[i + 1])
            if bool(sa or sb) and 3 * len(sa & sb) >= len(sa) + len(sb):
                out_a.append(int(da[i]))
                out_b.append(int(db[i]))
            i += 2
        return pd.DataFrame(
            {
                "doc_a": pd.array(out_a, dtype="int64"),
                "doc_b": pd.array(out_b, dtype="int64"),
            }
        )

    sides = uniq.map_batches(_sides, batch_format="pyarrow")
    docs = docs_ds.map_batches(_tag_docs, batch_format="pyarrow")
    attached = by_shard(
        sides.union(docs), "doc_id", _attach_shard, _VERIFY_SIDE_SCHEMA
    )
    return by_shard(
        attached, ["doc_a", "doc_b"], _verify_shard, _PAIR_SCHEMA
    )


def _minhash_candidates(ds):
    """Distinct LSH candidate pairs (``doc_a < doc_b``) of a
    ``(doc_id, text)`` Dataset: shingle→minhash per batch → band
    explode → bucket pairs per band-hash shard → distinct pairs. Id
    pairs only (16 B/row), never text.

    3-gram word shingles: unigram shingles degenerate on short
    shared-vocabulary docs (every doc becomes a candidate pair —
    measured 1.9M candidates over 5k docs at sf0.1). The signature
    stage runs as plain TASKS, not an actor pool (VERDICT r2 #7: pool
    spawn, not hashing, dominated); per-worker state persists via
    ``functions.dedup._MINHASHERS`` since Ray reuses worker processes.
    """
    from functools import partial

    from ray.data.aggregate import Count

    from ..functions.dedup import bucket_pairs_shard, explode_bands, minhash_batch

    sigs = ds.map_batches(
        partial(minhash_batch, n_hashes=64, shingle_k=3),
        batch_format="pyarrow",
    )
    bands = sigs.map_batches(explode_bands(n_bands=16), batch_format="pyarrow")

    # (band, band_hash) is data-cardinality (one hash per distinct
    # signature band): shard on band_hash and iterate the buckets
    # in-process (functions.dedup.bucket_pairs_shard)
    pairs = by_shard(
        bands, "band_hash", bucket_pairs_shard, _PAIR_SCHEMA,
        batch_format="pyarrow",
    )
    # dedup candidate pairs surfaced by multiple bands
    return (
        pairs.groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_bands"))
        .select_columns(["doc_a", "doc_b"])
    )


def _minhash_verify(cand, sf_dir: str,
                    broadcast_max_pairs: int = _MINHASH_BROADCAST_MAX_PAIRS):
    """Exact 3-gram-Jaccard verify of a distinct ``(doc_a, doc_b)``
    candidate Dataset. The verify side never holds the corpus
    driver-side (VERDICT r1 #3): the candidate PAIR set is materialized
    in the object store, the distinct candidate ids are broadcast, and
    (doc_id, text) is re-read PRUNED to those ids — so driver/broadcast
    memory is bounded by the candidate set, not the table. The
    candidate count is LOGGED, and above ``broadcast_max_pairs`` the
    verify switches to :func:`_minhash_verify_shuffle` (fully
    distributed, no driver materialization at all) — the broadcast
    bound is data-dependent, so it must not be assumed silently
    (VERDICT r2 #4)."""
    import logging
    from functools import partial

    from ..functions.gates import record as _record_gate

    uniq = cand.materialize()
    n_cand = uniq.count()
    log = logging.getLogger("weakscraper_ray.dedup")
    if n_cand > broadcast_max_pairs:
        log.warning(
            "minhash verify: %d candidate pairs > %d — shuffle path",
            n_cand, broadcast_max_pairs,
        )
        _record_gate("minhash_verify", "exchange", n_candidate_pairs=n_cand)
        return _minhash_verify_shuffle(
            uniq, _read(sf_dir, "documents", ["doc_id", "text"])
        )
    log.info("minhash verify: %d candidate pairs — broadcast path", n_cand)
    _record_gate("minhash_verify", "broadcast", n_candidate_pairs=n_cand)

    cand_ids = set()
    for row in uniq.take_all():
        cand_ids.add(row["doc_a"])
        cand_ids.add(row["doc_b"])
    id_set = pa.array(sorted(cand_ids), pa.int64())

    pruned = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=id_set)),
        batch_format="pyarrow",
    )
    texts = {r["doc_id"]: r["text"] for r in pruned.take_all()}
    return uniq.map_batches(
        partial(_jaccard_verify_batch, texts_ref=ray.put(texts)),
        batch_format="pyarrow",
    )


def q_dedup_minhash(sf_dir: str, broadcast_max_pairs: int = _MINHASH_BROADCAST_MAX_PAIRS):
    """MinHash+LSH near-dup pairs verified by exact 3-gram Jaccard:
    :func:`_minhash_candidates` then :func:`_minhash_verify` (gated
    broadcast / shuffle verify). The 16-band/4-row LSH config has
    measured full recall at J >= 0.5 on this corpus (verified against
    the all-pairs oracle).
    """
    return _minhash_verify(
        _minhash_candidates(_read(sf_dir, "documents", ["doc_id", "text"])),
        sf_dir, broadcast_max_pairs,
    )


#: shared CTE fragment: 3-gram shingle sets + the verified pair set —
#: composed into both the pair oracle and the clusters oracle so the
#: two can never drift apart.
#: the 3-gram shingle-set CTE alone — shared with neardup.py's
#: containment oracle so the two tokenizers can never drift apart.
_SQL_SHINGLE_SH = r"""sh AS (
  SELECT doc_id,
         list_distinct(
           list_transform(range(1, len(w) - 1),
                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
         ) AS s
  FROM (SELECT doc_id,
               regexp_split_to_array(trim(lower(coalesce(text, ''))), '\s+') AS w
        FROM documents)
)"""

_SQL_MINHASH_CTES = _SQL_SHINGLE_SH + r""", pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE len(a.s) + len(b.s) > 0
    AND 3 * len(list_intersect(a.s, b.s)) >= len(a.s) + len(b.s)
)"""

SQL_DEDUP_MINHASH = f"WITH {_SQL_MINHASH_CTES}\nSELECT doc_a, doc_b FROM pairs"


def q_dedup_clusters(sf_dir: str):
    """Verified near-dup pairs → connected components (the operator
    promised at functions/dedup.py — every production near-dup pipeline
    ends in "keep one doc per duplicate cluster", not a pair list).
    Emits (doc_id, cluster_id, is_keeper) with cluster_id = min doc_id
    of the component; distributed hash-to-min label propagation, see
    :func:`weakscraper_ray.functions.dedup.cluster_pairs`."""
    from ..functions.dedup import cluster_pairs

    return cluster_pairs(q_dedup_minhash(sf_dir))


SQL_DEDUP_CLUSTERS = f"""
WITH RECURSIVE {_SQL_MINHASH_CTES},
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION
  SELECT doc_b, doc_a FROM pairs
),
reach(u, v) AS (
  SELECT u, u FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v
)
SELECT u AS doc_id, min(v) AS cluster_id,
       cast(CASE WHEN u = min(v) THEN 1 ELSE 0 END AS BIGINT) AS is_keeper
FROM reach GROUP BY u
"""


def _attach_quality(g: pd.DataFrame) -> pd.DataFrame:
    """One doc-id shard of ``dedup_keep_best``'s quality attach: member
    rows (``is_doc`` 0) pick up their doc's ``n_chars`` from the doc
    rows (``is_doc`` 1) with one vectorized ``Series.map``. Each side
    fills the other's columns with -1 sentinels, never nulls: an int64
    column with nulls degrades to float64 in pandas and rounds ids
    above 2^53 (the ``_tag_docs`` rule)."""
    is_doc = g["is_doc"].to_numpy() == 1
    quality = pd.Series(
        g.loc[is_doc, "n_chars"].to_numpy(),
        index=g.loc[is_doc, "doc_id"].to_numpy(),
    )
    out = g.loc[~is_doc, ["doc_id", "cluster_id"]].copy()
    out["n_chars"] = out["doc_id"].map(quality).astype("int64")
    return out


def q_dedup_keep_best(sf_dir: str):
    """Quality-aware keeper selection: one doc kept per verified
    near-dup cluster, chosen as the LONGEST member (n_chars desc, then
    doc_id asc) rather than the smallest id — the production variant
    ("keep the best copy, not the first crawl") every dedup paper's
    ablations use. Emits (doc_id, cluster_id, is_keeper) for cluster
    MEMBERS (singletons are trivially keepers and are not cluster
    members).

    Scale shape: cluster membership is bounded by duplicate volume,
    never corpus size. TWO ``by_shard`` exchanges: (1) members + the
    pruned (doc_id, n_chars) stream co-locate on a doc-id shard and
    attach quality with one vectorized map per shard
    (:func:`_attach_quality`); (2) rows re-key on a cluster-id shard
    and one per-shard pandas pass picks each cluster's argmax — the
    per-key-UDF discipline (cluster ids are data-cardinality, shards
    are bounded)."""
    clusters = q_dedup_clusters(sf_dir)

    def _side(t: pa.Table, is_doc: int) -> pa.Table:
        # a member row carries cluster_id, a doc row n_chars; the other
        # column is a -1 sentinel (see _attach_quality)
        doc_id = t.column("doc_id").combine_chunks().cast(pa.int64())
        cols = dict.fromkeys(
            ("cluster_id", "n_chars"), pa.array(np.full(len(t), -1, np.int64))
        )
        own = "n_chars" if is_doc else "cluster_id"
        cols[own] = pc.cast(t.column(own), pa.int64())
        return pa.table(
            {
                "doc_id": doc_id,
                **cols,
                "is_doc": pa.array(np.full(len(t), is_doc, np.int8)),
            }
        )

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    attached = by_shard(
        clusters.map_batches(_side, fn_args=(0,), batch_format="pyarrow")
        .union(docs.map_batches(_side, fn_args=(1,), batch_format="pyarrow")),
        "doc_id", _attach_quality,
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("cluster_id", pa.int64()),
                ("n_chars", pa.int64()),
            ]
        ),
    )

    def _pick(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(
            ["cluster_id", "n_chars", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        first = ~d["cluster_id"].duplicated()
        keeper_of = d.loc[first].set_index("cluster_id")["doc_id"]
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].to_numpy(),
                "cluster_id": d["cluster_id"].to_numpy(),
                "is_keeper": (
                    d["doc_id"].to_numpy()
                    == d["cluster_id"].map(keeper_of).to_numpy()
                ).astype("int64"),
            }
        )

    return by_shard(
        attached, "cluster_id", _pick,
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("cluster_id", pa.int64()),
                ("is_keeper", pa.int64()),
            ]
        ),
    )


SQL_DEDUP_KEEP_BEST = f"""
WITH RECURSIVE {_SQL_MINHASH_CTES},
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION
  SELECT doc_b, doc_a FROM pairs
),
reach(u, v) AS (
  SELECT u, u FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v
),
members AS (
  SELECT u AS doc_id, min(v) AS cluster_id FROM reach GROUP BY u
),
q AS (
  SELECT m.doc_id, m.cluster_id, d.n_chars
  FROM members m JOIN documents d ON m.doc_id = d.doc_id
),
best AS (
  SELECT cluster_id, doc_id AS keeper FROM (
    SELECT cluster_id, doc_id,
           row_number() OVER (PARTITION BY cluster_id
                              ORDER BY n_chars DESC, doc_id ASC) AS rn
    FROM q) WHERE rn = 1
)
SELECT q.doc_id, q.cluster_id,
       cast(CASE WHEN q.doc_id = b.keeper THEN 1 ELSE 0 END AS BIGINT)
           AS is_keeper
FROM q JOIN best b ON q.cluster_id = b.cluster_id
"""



def q_dedup_keep(sf_dir: str):
    """The end-product of the near-dup pipeline: the corpus with every
    non-keeper removed (one doc kept per duplicate cluster). Non-keeper
    ids are bounded by the duplicate set — broadcast anti-join filter,
    same R6 pattern as the resume prune; the corpus itself streams."""
    from ..functions.dedup import anti_member_filter

    clusters = q_dedup_clusters(sf_dir)
    nonkeep = clusters.map_batches(
        lambda t: t.filter(pc.equal(t.column("is_keeper"), 0)).select(["doc_id"]),
        batch_format="pyarrow",
    )
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    # gated broadcast / hash-exchange anti-join (VERDICT r3 #2 applied
    # family-wide): the non-keeper set never lands on the driver beyond
    # the logged broadcast threshold
    return anti_member_filter(
        ds, ["doc_id"], nonkeep,
        schema=pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()),
             ("source", pa.string())]
        ),
    )


SQL_DEDUP_KEEP = f"""
WITH RECURSIVE {_SQL_MINHASH_CTES},
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION
  SELECT doc_b, doc_a FROM pairs
),
reach(u, v) AS (
  SELECT u, u FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v
),
drops AS (
  SELECT u AS doc_id FROM reach GROUP BY u HAVING u <> min(v)
)
SELECT d.doc_id, d.lang, d.source FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM drops)
"""


def q_dedup_simhash(sf_dir: str):
    """64-bit SimHash near-dup pairs at Hamming <= 3 via 4×16-bit
    banding (Manku-style): pigeonhole guarantees any pair within the
    threshold shares a full band, so the banded distributed result
    equals the all-pairs SQL oracle exactly."""
    from ..functions.dedup import (
        SIMHASH_MAX_HAMMING,
        SimHasher,
        explode_simhash_bands,
        hamming64,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    sigs = ds.map_batches(SimHasher, batch_format="pyarrow", concurrency=(1, 2))
    bands = sigs.map_batches(explode_simhash_bands, batch_format="pyarrow")

    def _bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        ids = group["doc_id"].to_numpy()
        s = group["simhash"].to_numpy().astype(np.uint64)
        ia, ib = np.triu_indices(len(ids), k=1)
        if len(ia) == 0:
            return pd.DataFrame(columns=["doc_a", "doc_b", "hamming"]).astype(
                {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}
            )
        d = hamming64(s[ia], s[ib])
        keep = d <= SIMHASH_MAX_HAMMING
        return pd.DataFrame(
            {
                "doc_a": np.minimum(ids[ia[keep]], ids[ib[keep]]),
                "doc_b": np.maximum(ids[ia[keep]], ids[ib[keep]]),
                "hamming": d[keep],
            }
        )

    pairs = _schema_guard(
        bands.groupby(["band", "band_val"]).map_groups(
            _bucket_pairs, batch_format="pandas"
        ),
        pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("hamming", pa.int64()),
            ]
        ),
    )
    # the same pair can surface from several bands; hamming is identical
    from ray.data.aggregate import Min

    agg = pairs.groupby(["doc_a", "doc_b"]).aggregate(Min("hamming"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "doc_a": t.column("doc_a"),
                "doc_b": t.column("doc_b"),
                "hamming": pc.cast(t.column("min(hamming)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _bucket_id_pairs(group: pa.Table, max_bucket: int = 500) -> pa.Table:
    """Candidate id pairs within one (table, bucket) — ids ONLY, no
    payload. ``max_bucket`` caps degenerate buckets (documented bound,
    same policy as dedup.bucket_pairs)."""
    ids = np.unique(group.column("vec_id").to_numpy(zero_copy_only=False))
    ids = ids[:max_bucket]
    ia, ib = np.triu_indices(len(ids), k=1)
    return pa.table(
        {
            "vec_a": pa.array(ids[ia], pa.int64()),
            "vec_b": pa.array(ids[ib], pa.int64()),
        }
    )


class _CosineVerify:
    """Per-pair exact cosine against a broadcast CANDIDATE-ONLY vector
    map (never the corpus — same bounded-broadcast pattern as the
    minhash _JaccardVerify): keep pairs >= threshold."""

    def __init__(self, vecs_ref, threshold: float):
        self.vecs = (
            ray.get(vecs_ref) if isinstance(vecs_ref, ray.ObjectRef) else vecs_ref
        )
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        a_ids = batch.column("vec_a").to_pylist()
        b_ids = batch.column("vec_b").to_pylist()
        if not a_ids:
            return pa.table(
                {
                    "vec_a": pa.array([], pa.int64()),
                    "vec_b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        va = np.stack([self.vecs[i] for i in a_ids])
        vb = np.stack([self.vecs[i] for i in b_ids])
        cos = np.einsum("ij,ij->i", va, vb)
        keep = cos >= self.threshold
        return pa.table(
            {
                "vec_a": pa.array(np.asarray(a_ids, dtype=np.int64)[keep]),
                "vec_b": pa.array(np.asarray(b_ids, dtype=np.int64)[keep]),
                "cosine": pa.array(np.round(cos[keep], 6)),
            }
        )


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs via MULTI-TABLE hyperplane LSH
    (union of per-table bucket pair sets, deduped): recall
    1-(1-p^bits)^tables instead of a single table's p^bits, at perfect
    precision (candidate pairs are exact-cosine verified).

    Scale shape (VERDICT r2 #3): the bucket shuffle carries ONLY
    (table, bucket, vec_id) — the embedding column never rides the
    exchange. Candidate pairs are deduped, the candidate ids broadcast,
    and (vec_id, embedding) re-read PRUNED to those ids for the verify
    stage — broadcast memory is bounded by the candidate set (LSH
    precision), not the table.

    Production threshold would be ~0.95; the testdata embeddings are
    random (max pairwise cosine ≈0.51 at sf0.01), so the demo threshold
    is 0.35 — same operator shape, non-degenerate output. Recall floor
    vs the exact all-pairs variant asserted in tests/test_round2.py."""
    from ray.data.aggregate import Count

    from ..functions.embed import fixed_list_to_numpy

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # 16 tables (VERDICT r3 #7): ids-only bucket rows are ~20 B × L, so
    # doubling L is cheap on the exchange and lifts recall at the 0.35
    # demo threshold to ≥0.8 (floor pinned in tests/test_round2.py)
    bucketed = ds.map_batches(
        _MultiTableLSH,
        fn_constructor_kwargs=dict(n_bits=4, n_tables=16, include_embedding=False),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )
    pairs = _schema_guard(
        bucketed.groupby(["table", "bucket"]).map_groups(
            _bucket_id_pairs, batch_format="pyarrow"
        ),
        pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64())]),
    )
    uniq = pairs.groupby(["vec_a", "vec_b"]).aggregate(Count(alias_name="n"))
    uniq = uniq.select_columns(["vec_a", "vec_b"]).materialize()  # bounded
    import logging

    logging.getLogger("weakscraper_ray.dedup").info(
        "embedding_neardup: %d candidate pairs — broadcast verify path",
        uniq.count(),
    )

    cand: set[int] = set()
    for row in uniq.take_all():
        cand.add(row["vec_a"])
        cand.add(row["vec_b"])
    id_arr = pa.array(sorted(cand), pa.int64())
    pruned = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda t: t.filter(pc.is_in(t.column("vec_id"), value_set=id_arr)),
        batch_format="pyarrow",
    )
    vecs: dict[int, np.ndarray] = {}
    for b in pruned.iter_batches(batch_format="pyarrow"):
        m = fixed_list_to_numpy(b.column("embedding"), dtype=np.float64)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        for i, v in enumerate(b.column("vec_id").to_pylist()):
            vecs[v] = m[i]

    return uniq.map_batches(
        _CosineVerify,
        fn_constructor_kwargs=dict(
            vecs_ref=ray.put(vecs), threshold=_NEARDUP_THRESHOLD
        ),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )


def q_lang_id(sf_dir: str):
    from ..functions.text import LangId

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow", concurrency=(1, 2))


def _sql_stoplist(langs) -> dict[str, str]:
    from ..functions.text import LangId

    return {
        lang: "[" + ", ".join(f"'{w}'" for w in sorted(LangId.STOPWORDS[lang])) + "]"
        for lang in langs
    }


def _sql_lang_id() -> str:
    """Full LangId decision rule in SQL: CJK check, [a-z]+ word set,
    per-language stopword-intersection scores, argmax with the same
    alphabetical tie-break Python's max-over-sorted gives."""
    sl = _sql_stoplist(["de", "en", "es", "fr"])
    return f"""
WITH t AS (
  SELECT doc_id, text,
         list_distinct(regexp_extract_all(lower(coalesce(text, '')), '[a-z]+')) AS ws,
         regexp_matches(coalesce(text, ''), '[一-鿿]') AS cjk
  FROM documents
), s AS (
  SELECT doc_id, text, cjk, ws,
         len(list_intersect(ws, {sl['de']})) AS s_de,
         len(list_intersect(ws, {sl['en']})) AS s_en,
         len(list_intersect(ws, {sl['es']})) AS s_es,
         len(list_intersect(ws, {sl['fr']})) AS s_fr
  FROM t
)
SELECT doc_id,
       CASE WHEN text IS NULL THEN 'und'
            WHEN cjk THEN 'zh'
            WHEN len(ws) = 0 THEN 'und'
            WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
            WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
            WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
            WHEN s_es >= s_fr THEN 'es'
            ELSE 'fr' END AS lang_pred
FROM s
"""


def q_quality(sf_dir: str):
    from ..functions.text import QualityScore

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(QualityScore, batch_format="pyarrow", concurrency=(1, 2))


def _sql_quality() -> str:
    """Mirrors QualityScore's double-precision ops in the same order
    (IEEE ops on identical operands are bit-exact, so the scaled-int
    score hashes identically)."""
    from ..functions.text import QualityScore

    stop = "[" + ", ".join(f"'{w}'" for w in sorted(QualityScore._ALL_STOP)) + "]"
    return rf"""
WITH c AS (
  SELECT doc_id,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\S+')) AS n_tokens,
         len(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
         len(regexp_extract_all(text, '[A-Za-z]{{2,}}')) AS n_alpha_words,
         len(list_filter(regexp_extract_all(lower(text), '\S+'),
                         w -> list_contains({stop}, w))) AS n_stop
  FROM documents
), r AS (
  SELECT *, greatest(n_tokens, 1) AS nt, greatest(n_chars, 1) AS nc FROM c
)
SELECT doc_id,
       cast(n_chars AS BIGINT) AS n_chars,
       cast(n_tokens AS BIGINT) AS n_tokens,
       cast(n_punct AS BIGINT) AS n_punct,
       cast(n_alpha_words AS BIGINT) AS n_alpha_words,
       cast(n_stop AS BIGINT) AS n_stop,
       cast(floor((
           least(nt / 50.0, 1.0) * 0.3
           + least(n_alpha_words::DOUBLE / nt, 1.0) * 0.3
           + (1.0 - least(n_punct::DOUBLE / nc * 5, 1.0)) * 0.2
           + least(n_stop::DOUBLE / nt * 4, 1.0) * 0.2
         ) * 1000000 + 0.5) AS BIGINT) AS quality_score_e6
FROM r
"""


def q_readability(sf_dir: str):
    """Classic readability scores per document — the quality-filter
    signal beside ``quality_score``: Flesch–Kincaid grade (0.39·w/s +
    11.8·syl/w − 15.59) and LIX (w/s + 100·long/w), both released as
    EXACT integer rationals over pure regex counts (sentences =
    ``[.!?]+`` runs, syllables = vowel-group approximation
    ``[aeiouy]+``, long words = ``\\S{7,}``; both engines run RE2, so
    the counts are identical).  Negative grades truncate toward zero
    on both sides (the inequality.py ``sign·(abs//)`` rule).  Map-only
    and fully vectorized — zero exchange."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _batch(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column("text"), "")
        low = pc.utf8_lower(txt)

        def cnt(col, pat):
            return pc.cast(
                pc.count_substring_regex(col, pat), pa.int64()
            ).to_numpy(zero_copy_only=False)

        w = cnt(txt, r"\S+")
        s = np.maximum(cnt(txt, r"[.!?]+"), 1)
        y = cnt(low, r"[aeiouy]+")
        lw = cnt(txt, r"\S{7,}")
        w1 = np.maximum(w, 1)
        fk_num = 10**6 * (39 * w * w1 + 1180 * y * s - 1559 * s * w1)
        fk_den = 100 * s * w1
        fk = np.sign(fk_num) * (np.abs(fk_num) // fk_den)
        lix = (10**6 * (w * w1 + 100 * lw * s)) // (s * w1)
        return pa.table(
            {
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "n_words": pa.array(w),
                "n_sentences": pa.array(s),
                "n_syllables": pa.array(y),
                "n_longwords": pa.array(lw),
                "fk_e6": pa.array(fk.astype(np.int64)),
                "lix_e6": pa.array(lix.astype(np.int64)),
            }
        )

    return ds.map_batches(_batch, batch_format="pyarrow")


SQL_READABILITY = r"""
WITH c AS (
  SELECT doc_id,
         cast(len(regexp_extract_all(coalesce(text, ''), '\S+'))
              AS BIGINT) AS w,
         cast(greatest(len(regexp_extract_all(coalesce(text, ''),
                                              '[.!?]+')), 1)
              AS BIGINT) AS s,
         cast(len(regexp_extract_all(lower(coalesce(text, '')),
                                     '[aeiouy]+')) AS BIGINT) AS y,
         cast(len(regexp_extract_all(coalesce(text, ''), '\S{7,}'))
              AS BIGINT) AS lw
  FROM documents
), r AS (SELECT *, greatest(w, 1) AS w1 FROM c),
n AS (SELECT *,
             1000000 * (39*w*w1 + 1180*y*s - 1559*s*w1) AS fk_num,
             100 * s * w1 AS fk_den
      FROM r)
SELECT doc_id, w AS n_words, s AS n_sentences, y AS n_syllables,
       lw AS n_longwords,
       cast(CASE WHEN fk_num < 0 THEN -((-fk_num) // fk_den)
                 ELSE fk_num // fk_den END AS BIGINT) AS fk_e6,
       cast((1000000 * (w*w1 + 100*lw*s)) // (s*w1) AS BIGINT) AS lix_e6
FROM n
"""

def q_rolling_fingerprint(sf_dir: str):
    from ..functions.text import rolling_fingerprint_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(rolling_fingerprint_batch, batch_format="pyarrow")


# =====================================================================
# Embedding near-dup, exact variant (green vs DuckDB
# list_cosine_similarity all-pairs) — the LSH-bucketed q_embedding_neardup
# stays as the approximate scale path.
# =====================================================================

_NEARDUP_THRESHOLD = 0.35  # testdata embeddings are random; see q_embedding_neardup


class _ExactCosinePairs:
    """Per-batch rows vs the broadcast full matrix: emit (vec_a, vec_b)
    where cosine >= threshold and batch_id < other_id (each unordered
    pair is counted exactly once, on its lower-id side)."""

    def __init__(self, matrix_ref, threshold: float):
        m = ray.get(matrix_ref) if isinstance(matrix_ref, ray.ObjectRef) else matrix_ref
        self.ids = m["ids"]
        self.unit = m["unit"]
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.embed import fixed_list_to_numpy

        mat = fixed_list_to_numpy(batch.column("embedding"), dtype=np.float64)
        bids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = unit @ self.unit.T  # (batch, all)
        bi, oi = np.nonzero((sims >= self.threshold) & (bids[:, None] < self.ids[None, :]))
        return pa.table(
            {
                "vec_a": pa.array(bids[bi], pa.int64()),
                "vec_b": pa.array(self.ids[oi], pa.int64()),
            }
        )


def q_embedding_neardup_exact(sf_dir: str):
    from ..functions.embed import fixed_list_to_numpy

    t = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    mat = fixed_list_to_numpy(t.column("embedding"), dtype=np.float64)
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ref = ray.put(
        {"ids": np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64),
         "unit": unit}
    )
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(
        _ExactCosinePairs,
        fn_constructor_kwargs=dict(matrix_ref=ref, threshold=_NEARDUP_THRESHOLD),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )


SQL_NEARDUP_EXACT = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {_NEARDUP_THRESHOLD}
"""


def q_embedding_neardup_clusters(sf_dir: str):
    """Embedding near-dup pairs → connected components: the generic
    cluster_pairs operator over the exact-cosine pair set (one operator
    serves both the text and embedding dedup families)."""
    from ..functions.dedup import cluster_pairs

    return cluster_pairs(
        q_embedding_neardup_exact(sf_dir),
        a_col="vec_a", b_col="vec_b", id_col="vec_id",
    )


SQL_NEARDUP_CLUSTERS = f"""
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding, b.embedding) >= {_NEARDUP_THRESHOLD}
),
edges AS (
  SELECT vec_a AS u, vec_b AS v FROM pairs
  UNION
  SELECT vec_b, vec_a FROM pairs
),
reach(u, v) AS (
  SELECT u, u FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v
)
SELECT u AS vec_id, min(v) AS cluster_id,
       cast(CASE WHEN u = min(v) THEN 1 ELSE 0 END AS BIGINT) AS is_keeper
FROM reach GROUP BY u
"""


# =====================================================================
# Grouped top-k (window-rank shape): top 3 orders by price per priority
# =====================================================================

def q_grouped_topk(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def _top3(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
        )
        return g.head(3)

    return ds.groupby("o_orderpriority").map_groups(_top3, batch_format="pandas")


SQL_GROUPED_TOPK = """
SELECT o_orderkey, o_totalprice, o_orderpriority FROM (
  SELECT o_orderkey, o_totalprice, o_orderpriority,
         row_number() OVER (
           PARTITION BY o_orderpriority
           ORDER BY o_totalprice DESC, o_orderkey ASC
         ) AS rn
  FROM orders
) WHERE rn <= 3
"""


# =====================================================================
# TPC-H Q3 shape: segment filter → two broadcast semi-joins → partial
# revenue aggregate per order → global top-k
# =====================================================================

_Q3_CUTOFF = "1998-01-01"


def q_top_shipping(sf_dir: str):
    import datetime as _dt

    cutoff = _dt.datetime(1998, 1, 1)
    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    building = set(
        cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
        .column("c_custkey").to_pylist()
    )
    orders = pq.read_table(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    omask = pc.and_(
        pc.is_in(orders.column("o_custkey"),
                 value_set=pa.array(sorted(building), pa.int64())),
        pc.less(orders.column("o_orderdate"), cutoff),
    )
    osel = orders.filter(omask)
    # mid-size broadcast: qualifying orders' key → orderdate (the small
    # side of the lineitem join; at 100 TB this becomes a hash join)
    odate = dict(
        zip(
            osel.column("o_orderkey").to_pylist(),
            [d.strftime("%Y-%m-%d") for d in osel.column("o_orderdate").to_pylist()],
        )
    )
    ref = ray.put(odate)

    class _Partial:
        def __init__(self, odate_ref):
            d = ray.get(odate_ref) if isinstance(odate_ref, ray.ObjectRef) else odate_ref
            self.keys = pa.array(sorted(d), pa.int64())

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.is_in(batch.column("l_orderkey"), value_set=self.keys),
                pc.greater(
                    batch.column("l_shipdate"),
                    pa.scalar(_dt.datetime(1998, 1, 1)),
                ),
            )
            t = batch.filter(m)
            rev = pc.multiply(
                t.column("l_extendedprice"), pc.subtract(1.0, t.column("l_discount"))
            )
            g = pa.table({"l_orderkey": t.column("l_orderkey"), "rev": rev})
            return g.group_by("l_orderkey").aggregate([("rev", "sum")])

    ds = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        _Partial, fn_constructor_kwargs=dict(odate_ref=ref),
        batch_format="pyarrow", concurrency=(1, 2),
    )
    agg = partials.groupby("l_orderkey").aggregate(Sum("rev_sum"))

    def _final(batch: pa.Table) -> pa.Table:
        dates = [odate[k] for k in batch.column("l_orderkey").to_pylist()]
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "revenue_cents": _i64_away(batch.column("sum(rev_sum)")),
                "o_orderdate": pa.array(dates, pa.string()),
            }
        )

    out = agg.map_batches(_final, batch_format="pyarrow")
    return out.sort(["revenue_cents", "l_orderkey"], descending=[True, False]).limit(10)


SQL_TOP_SHIPPING = f"""
SELECT l.l_orderkey,
       cast(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100, 0) AS BIGINT)
           AS revenue_cents,
       strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate
FROM customer c
JOIN orders o   ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < DATE '{_Q3_CUTOFF}'
  AND l.l_shipdate  > DATE '{_Q3_CUTOFF}'
GROUP BY l.l_orderkey, o.o_orderdate
ORDER BY revenue_cents DESC, l.l_orderkey ASC
LIMIT 10
"""


# =====================================================================
# Scalar regex extraction (R2 normalizer family): first long word
# =====================================================================

def q_regex_extract(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _extract(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("text"), r"(?P<w>[a-z]{6,})")
        word = pc.fill_null(pc.struct_field(hit, "w"), "")
        return pa.table({"doc_id": batch.column("doc_id"), "first_long_word": word})

    return ds.map_batches(_extract, batch_format="pyarrow")


SQL_REGEX_EXTRACT = """
SELECT doc_id, coalesce(regexp_extract(text, '([a-z]{6,})', 1), '') AS first_long_word
FROM documents
"""


# =====================================================================
# Date histogram: events per calendar day (date-function family)
# =====================================================================

def q_date_histogram(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["ts", "value"])

    def _bucket(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch.column("ts"), "%Y-%m-%d")
        t = pa.table({"day": day, "value": batch.column("value")})
        return t.group_by("day").aggregate([("value", "sum"), ("value", "count")])

    partials = ds.map_batches(_bucket, batch_format="pyarrow")
    agg = partials.groupby("day").aggregate(Sum("value_sum"), Sum("value_count"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "day": t.column("day"),
                "n_events": pc.cast(t.column("sum(value_count)"), pa.int64()),
                "sum_value_cents": _i64_away(t.column("sum(value_sum)")),
            }
        ),
        batch_format="pyarrow",
    )


SQL_DATE_HISTOGRAM = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       cast(count(*) AS BIGINT) AS n_events,
       cast(round(sum(value) * 100, 0) AS BIGINT) AS sum_value_cents
FROM events GROUP BY strftime(ts, '%Y-%m-%d')
"""


# =====================================================================
# Document chunking (flat-map: 1 doc → N overlapping word windows) —
# the corpus-prep shape for embedding/pretraining pipelines
# =====================================================================

def q_chunk_documents(sf_dir: str):
    from ..functions.text import chunk_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(chunk_batch, batch_format="pyarrow")


SQL_CHUNKS = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws FROM documents
), e AS (
  SELECT doc_id, ws,
         unnest(range(0, greatest(cast(ceil(len(ws) / 40.0) AS BIGINT), 1))) AS i
  FROM w
)
SELECT doc_id,
       cast(i AS BIGINT) AS chunk_idx,
       array_to_string(ws[i*40+1 : i*40+50], ' ') AS chunk_text,
       cast(len(ws[i*40+1 : i*40+50]) AS BIGINT) AS n_words
FROM e
"""


# =====================================================================
# Semi-structured: JSON property extraction from the events.props
# column (json_extract family — training pipelines carry JSON blobs)
# =====================================================================

def q_json_props(sf_dir: str):
    import json as _json

    ds = _read(sf_dir, "events", ["event_id", "props"])

    # NOTE: per-row json.loads loop — this pyarrow build ships no JSON
    # path-extraction kernel, so the loop is unavoidable HERE, but do
    # not copy this shape into hotter stages (VERDICT r2: worth a
    # comment so it doesn't spread).
    def _extract(batch: pa.Table) -> pa.Table:
        ks = []
        for p in batch.column("props").to_pylist():
            try:
                v = _json.loads(p).get("k") if p else None
            except (ValueError, AttributeError):
                v = None
            ks.append(v)
        return pa.table(
            {"event_id": batch.column("event_id"), "k": pa.array(ks, pa.int64())}
        )

    return ds.map_batches(_extract, batch_format="pyarrow")


SQL_JSON_PROPS = """
SELECT event_id, cast(json_extract(props, '$.k') AS BIGINT) AS k FROM events
"""


# =====================================================================
# R9: deterministic hash-based sampling (SQL-expressible twin of the
# seeded random_sample below)
# =====================================================================

def q_sample_hash(sf_dir: str):
    import hashlib

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    # NOTE: per-row md5 loop — pyarrow has no cryptographic-hash
    # kernel; fine for a deterministic sampler, but don't copy this
    # shape into hotter stages (use the vectorized rolling/content
    # hashes in functions.text / functions.dedup instead).
    def _filter(batch: pa.Table) -> pa.Table:
        keep = [
            hashlib.md5(str(e).encode()).hexdigest()[0] == "0"
            for e in batch.column("event_id").to_pylist()
        ]
        return batch.filter(pa.array(keep))

    return ds.map_batches(_filter, batch_format="pyarrow")


SQL_SAMPLE_HASH = """
SELECT event_id, user_id, value FROM events
WHERE substr(md5(cast(event_id AS VARCHAR)), 1, 1) = '0'
"""


# =====================================================================
# Test-set decontamination: the op every pretraining pipeline runs
# before training (drop corpus docs that leak evaluation data).  The
# benchmark membership rule, tokenizer and n-gram width are mirrored
# op-for-op in the SQL twin; see functions/contamination.py for the
# scale shape (small benchmark broadcast once, corpus streams).
# =====================================================================

def q_decontaminate(sf_dir: str):
    """Corpus documents sharing >= 1 distinct word 5-gram with the
    held-out benchmark subset (docs whose md5(doc_id) starts with
    '0'), with the count of distinct leaked 5-grams per document.

    Stage 1 (small side): benchmark docs → per-batch distinct 5-grams
    → driver union (logged) → one ``ray.put`` broadcast.
    Stage 2 (100 TB side): single streaming ``map_batches`` over the
    corpus — set-intersect per doc, no shuffle, nothing materialized.
    """
    import logging
    from functools import partial

    from ..functions.contamination import (
        DEFAULT_N,
        benchmark_grams_batch,
        contamination_batch,
        split_benchmark_batch,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = docs.map_batches(
        partial(split_benchmark_batch, keep_benchmark=True),
        batch_format="pyarrow",
    ).map_batches(partial(benchmark_grams_batch, n=DEFAULT_N),
                  batch_format="pyarrow")
    grams: set[str] = set()
    for r in bench.take_all():  # bounded: benchmark side is MB-scale
        grams.add(r["gram"])
    logging.getLogger("weakscraper_ray.contamination").info(
        "decontaminate: %d distinct benchmark %d-grams broadcast",
        len(grams), DEFAULT_N,
    )
    grams_ref = ray.put(frozenset(grams))

    corpus = docs.map_batches(
        partial(split_benchmark_batch, keep_benchmark=False),
        batch_format="pyarrow",
    )
    return corpus.map_batches(
        partial(contamination_batch, grams_ref=grams_ref, n=DEFAULT_N),
        batch_format="pyarrow",
    )


#: same tokenizer as the MinHash CTE; range(1, len(w)-3) ⇔ 5-gram
#: windows i..i+4 (DuckDB range is end-exclusive, arrays 1-indexed)
SQL_DECONTAMINATE = r"""
WITH tok AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(coalesce(text, ''))), '\s+') AS w,
         substr(md5(cast(doc_id AS VARCHAR)), 1, 1) = '0' AS is_bench
  FROM documents
), grams AS (
  SELECT doc_id, is_bench,
         unnest(list_distinct(list_transform(
             range(1, len(w) - 3),
             i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' ||
                  w[i+3] || ' ' || w[i+4]))) AS g
  FROM tok
), bench AS (
  SELECT DISTINCT g FROM grams WHERE is_bench
)
SELECT c.doc_id, cast(count(DISTINCT c.g) AS BIGINT) AS n_overlap
FROM grams c JOIN bench b USING (g)
WHERE NOT c.is_bench
GROUP BY c.doc_id
"""


def q_split_assign(sf_dir: str):
    """Deterministic train/val/test split by content hash of the doc
    id (the split op of a training-data pipeline: no RNG, stable across
    runs and resumes), summarized per split.  val = md5 first hex '0',
    test = '1', train = the rest (14/16).

    Shape: per-batch split assignment + per-batch partial aggregate,
    then a 3-key groupby — the shuffle carries three rows per batch.
    """
    import hashlib

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _assign(batch: pa.Table) -> pa.Table:
        splits = []
        for d in batch.column("doc_id").to_pylist():
            c = hashlib.md5(str(d).encode()).hexdigest()[0]
            splits.append("val" if c == "0" else "test" if c == "1" else "train")
        t = pa.table(
            {
                "split": pa.array(splits, pa.string()),
                "chars": pc.utf8_length(batch.column("text")).cast(pa.int64()),
            }
        )
        return t.group_by("split").aggregate(
            [("chars", "count"), ("chars", "sum")]
        )

    agg = ds.map_batches(_assign, batch_format="pyarrow").groupby("split").aggregate(
        Sum("chars_count", alias_name="n_docs"),
        Sum("chars_sum", alias_name="chars_total"),
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "split": t.column("split"),
                "n_docs": t.column("n_docs").cast(pa.int64()),
                "chars_total": t.column("chars_total").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_SPLIT_ASSIGN = """
SELECT CASE substr(md5(cast(doc_id AS VARCHAR)), 1, 1)
         WHEN '0' THEN 'val' WHEN '1' THEN 'test' ELSE 'train' END AS split,
       cast(count(*) AS BIGINT) AS n_docs,
       cast(sum(length(text)) AS BIGINT) AS chars_total
FROM documents GROUP BY 1
"""


def q_compression_signal(sf_dir: str):
    """Per-document compressibility (raw vs zlib byte sizes) — the
    repetition-quality signal of published pretraining filter stacks
    (Gopher / FineWeb drop docs that compress unusually well).  Exact
    integers, no float ratio, so the oracle comparison is
    rounding-free; streams in one map_batches pass."""
    from ..functions.text import compression_signal_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(compression_signal_batch, batch_format="pyarrow")


def q_shuffle_train(sf_dir: str):
    """Seeded global shuffle — the final ordering step of a training
    pipeline (decorrelate adjacent examples before sharding to
    trainers).  ``Dataset.random_shuffle(seed)`` is the one all-to-all
    exchange a training pipeline genuinely wants; the identity SQL
    twin checks the output is a PERMUTATION of the corpus (the
    driver's value-hash is row-order-insensitive), and the test suite
    pins seed-determinism and that the order actually changed."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    # parquet pandas metadata makes the schema unhashable, which spams
    # the shuffle reducers with dedup warnings — strip it pre-exchange
    ds = ds.map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )
    return ds.random_shuffle(seed=42)


SQL_SHUFFLE_TRAIN = "SELECT doc_id, lang, source FROM documents"


# =====================================================================
# Heavy hitters: bounded-memory candidate generation (per-batch
# Misra-Gries summary over pre-aggregated counts) + exact recount of
# the bounded candidate set — exact output, sketch-bounded memory.
# Finds the hot conversations that skew a per-conversation exchange.
# =====================================================================

_HH_K = 256          # counters per batch summary (memory bound)
_HH_THRESHOLD = 1000  # report convs with >= this many turns


def q_heavy_hitter_convs(sf_dir: str):
    """Conversations with >= _HH_THRESHOLD turns, exactly.

    Stage 1 (bounded memory regardless of key cardinality): per batch,
    aggregate counts exactly, then keep the Misra-Gries survivor set —
    keys whose batch count exceeds the (K+1)-th largest (guarantee: a
    key with global count > n/(K+1) must exceed its share in some
    batch, so the union of survivors is a candidate SUPERSET; the
    threshold is far above n/(K+1) here). Stage 2: broadcast the
    bounded candidate set, exact recount via partial-agg groupby,
    filter by threshold — output is exact, so the SQL twin is a plain
    GROUP BY ... HAVING."""
    import glob as _glob

    from ray.data.aggregate import Sum

    from ..transcripts import ensure_generated

    shards = ensure_generated(_size_for(sf_dir))
    ds = ray.data.read_parquet(
        sorted(_glob.glob(f"{shards}/part-*.parquet")), columns=["conv_id"]
    )

    def _mg_survivors(batch: pa.Table) -> pa.Table:
        keys, counts = np.unique(
            batch.column("conv_id").to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        if len(keys) > _HH_K:
            t = np.partition(counts, len(counts) - (_HH_K + 1))[
                len(counts) - (_HH_K + 1)
            ]
            keep = counts > t
            keys = keys[keep]
        return pa.table({"conv_id": pa.array(keys, pa.string())})

    cand_ds = ds.map_batches(_mg_survivors, batch_format="pyarrow")
    candidates = {r["conv_id"] for r in cand_ds.take_all()}  # bounded: K×batches
    cand_arr = pa.array(sorted(candidates), pa.string())

    def _count_cands(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch.column("conv_id"), value_set=cand_arr))
        return t.group_by("conv_id").aggregate([("conv_id", "count")])

    partials = ds.map_batches(_count_cands, batch_format="pyarrow")
    agg = partials.groupby("conv_id").aggregate(Sum("conv_id_count"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "conv_id": t.column("conv_id"),
                "n_turns": pc.cast(t.column("sum(conv_id_count)"), pa.int64()),
            }
        ).filter(
            pc.greater_equal(
                pc.cast(t.column("sum(conv_id_count)"), pa.int64()),
                _HH_THRESHOLD,
            )
        ),
        batch_format="pyarrow",
    )


def _sql_heavy_hitters(sf_dir: str) -> str:
    from ..transcripts import ensure_generated

    shards = ensure_generated(_size_for(sf_dir))
    return f"""
SELECT conv_id, cast(count(*) AS BIGINT) AS n_turns
FROM read_parquet('{shards}/part-*.parquet')
GROUP BY conv_id HAVING count(*) >= {_HH_THRESHOLD}
"""


# =====================================================================
# Range join: non-equi join of a fact column into interval bands —
# expressed as a BROADCAST band join (sorted edges shipped once,
# np.searchsorted per batch), the scale idiom for small-side interval
# joins; the oracle re-derives it as a true non-equi VALUES join.
# =====================================================================

#: (lo, hi, label) — hi exclusive; last band open-ended
_VALUE_BANDS = (
    (0.0, 10.0, "micro"),
    (10.0, 50.0, "small"),
    (50.0, 100.0, "mid"),
    (100.0, 500.0, "large"),
    (500.0, float("inf"), "jumbo"),
)


def q_range_join_bands(sf_dir: str):
    from ray.data.aggregate import Sum

    edges = np.array([b[0] for b in _VALUE_BANDS][1:], dtype=np.float64)
    labels = np.array([b[2] for b in _VALUE_BANDS])

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _band(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(edges, v, side="right")
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "band": pa.array(labels[idx]),
                "value": batch.column("value"),
            }
        )
        return t.group_by(["event_type", "band"]).aggregate(
            [("value", "count"), ("value", "sum")]
        )

    partials = ds.map_batches(_band, batch_format="pyarrow")
    agg = partials.groupby(["event_type", "band"]).aggregate(
        Sum("value_count"), Sum("value_sum")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "event_type": t.column("event_type"),
                "band": t.column("band"),
                "n_events": pc.cast(t.column("sum(value_count)"), pa.int64()),
                "sum_value_cents": _i64_away(t.column("sum(value_sum)")),
            }
        ),
        batch_format="pyarrow",
    )


SQL_RANGE_JOIN = """
WITH bands(lo, hi, band) AS (
  VALUES (0.0, 10.0, 'micro'), (10.0, 50.0, 'small'),
         (50.0, 100.0, 'mid'), (100.0, 500.0, 'large'),
         (500.0, 1e308, 'jumbo')
)
SELECT e.event_type, b.band,
       cast(count(*) AS BIGINT) AS n_events,
       cast(round(sum(e.value) * 100, 0) AS BIGINT) AS sum_value_cents
FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
GROUP BY e.event_type, b.band
"""


# =====================================================================
# Distinct-count aggregate: exact count(distinct) per group via a
# two-level groupby (dedup the pair set, then count) — the shuffle
# carries distinct (type, user) pairs, pre-deduped per batch
# =====================================================================

def q_distinct_users_by_type(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def _dedup_batch(batch: pa.Table) -> pa.Table:
        # per-batch partial dedup before the shuffle
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    pairs = ds.map_batches(_dedup_batch, batch_format="pyarrow")
    distinct = pairs.groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="_n")
    )
    counts = distinct.select_columns(["event_type"]).groupby(
        "event_type"
    ).aggregate(Count(alias_name="n_users"))
    return counts.map_batches(
        lambda t: pa.table(
            {
                "event_type": t.column("event_type"),
                "n_users": pc.cast(t.column("n_users"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_DISTINCT_USERS = """
SELECT event_type, cast(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


def q_left_join(sf_dir: str):
    """Broadcast LEFT OUTER join: orders against the high-balance
    customer dim (filtered so real non-matches exist). The dim ships
    once; the probe is a vectorized searchsorted against the sorted
    key array (no per-row dict loop). Unmatched rows coalesce to '' on
    BOTH sides so the null representation can't diverge between
    pandas NaN and SQL NULL in the driver's value-hash."""
    cust = pq.read_table(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_name", "c_acctbal"]
    )
    cust = cust.filter(pc.greater(cust.column("c_acctbal"), 5000.0))
    keys = np.asarray(cust.column("c_custkey").to_pylist(), dtype=np.int64)
    names = np.asarray(cust.column("c_name").to_pylist(), dtype=object)
    order = np.argsort(keys)
    ref = ray.put({"keys": keys[order], "names": names[order]})

    class _Probe:
        def __init__(self, dim_ref):
            d = ray.get(dim_ref) if isinstance(dim_ref, ray.ObjectRef) else dim_ref
            self.keys = d["keys"]
            self.names = d["names"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            probe = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.keys, probe)
            pos_c = np.clip(pos, 0, len(self.keys) - 1)
            hit = self.keys[pos_c] == probe
            out = np.where(hit, self.names[pos_c], "")
            return pa.table(
                {
                    "o_orderkey": batch.column("o_orderkey"),
                    "c_name": pa.array(out, pa.string()),
                }
            )

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return ds.map_batches(
        _Probe, fn_constructor_kwargs=dict(dim_ref=ref),
        batch_format="pyarrow", concurrency=(1, 2),
    )


SQL_LEFT_JOIN = """
SELECT o.o_orderkey, coalesce(c.c_name, '') AS c_name
FROM orders o
LEFT JOIN (SELECT * FROM customer WHERE c_acctbal > 5000.0) c
       ON o.o_custkey = c.c_custkey
"""


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog cardinality of user_id (rows-only: DuckDB's
    approx_count_distinct uses a different sketch, so no hash oracle —
    the relative-error invariant vs the exact count is asserted in
    tests/test_round3.py). Scale shape: each batch reduces to one 4 KB
    register row; the merge payload is #batches × 4 KB regardless of
    cardinality."""
    from functools import partial as _partial

    from ..functions.sketch import hll_estimate, hll_merge, hll_partial

    ds = _read(sf_dir, "events", ["user_id"])
    partials = ds.map_batches(
        _partial(hll_partial, column="user_id"), batch_format="pyarrow"
    )
    regs = hll_merge(
        [np.asarray(r["regs"], dtype=np.uint8) for r in partials.take_all()]
    )
    return pa.table(
        {"approx_distinct_users": pa.array([int(round(hll_estimate(regs)))], pa.int64())}
    )


# =====================================================================
# Percentile aggregate: exact discrete quantiles per group (few groups,
# many rows → per-group vectorized sort; at true scale swap in a
# distributed quantile sketch and pre-aggregate per batch)
# =====================================================================

def q_quantiles_by_type(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _q(group: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(group["value"].to_numpy(dtype=np.float64))
        n = len(v)
        # type-1 discrete quantile: element at ceil(q*n)-1 — probed to
        # be DuckDB quantile_disc's convention (picks an element, no
        # interpolation ulp risk; same float64 product both sides)
        pick = lambda q: v[max(0, int(np.ceil(q * n)) - 1)]
        return pd.DataFrame(
            {
                "event_type": [group["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "p50_cents": _i64_away_np([pick(0.5)]),
                "p90_cents": _i64_away_np([pick(0.9)]),
                "p99_cents": _i64_away_np([pick(0.99)]),
            }
        )

    return ds.groupby("event_type").map_groups(_q, batch_format="pandas")


SQL_QUANTILES = """
SELECT event_type,
       cast(count(*) AS BIGINT)                         AS n,
       cast(round(quantile_disc(value, 0.5) * 100, 0) AS BIGINT)  AS p50_cents,
       cast(round(quantile_disc(value, 0.9) * 100, 0) AS BIGINT)  AS p90_cents,
       cast(round(quantile_disc(value, 0.99) * 100, 0) AS BIGINT) AS p99_cents
FROM events GROUP BY event_type
"""


# =====================================================================
# Window-frame aggregate: per-user moving average over the last 5
# events (running_sum covers the cumulative frame; this is the bounded
# ROWS BETWEEN frame)
# =====================================================================

def q_moving_avg(sf_dir: str):
    """Integer-exact construction: the testdata values are 2-decimal
    money, and 116 window averages at sf0.01 land EXACTLY on .5 cents
    — a float avg would diverge from the oracle on summation order
    (the ADVICE r2 rounding lesson). Both sides therefore compute
    round(window_sum_cents * 100 / count): the window sum of integer
    cents is exact in float64 under ANY order, and a single IEEE
    division of identical operands is exactly rounded, so the two
    sides are bit-identical before the half-away rounding."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def _roll_shard(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass per SHARD (never per user): sort by
        # (user, ts, event_id), then the 5-row window sum is a prefix
        # difference clamped at each user's first row. The prefix sum
        # stays in INT64 (ADVICE r4): a float64 prefix loses exactness
        # once a shard's cumulative cents pass 2^53 (~4e15 at the
        # claimed 10^12-event scale), whereas the int64 prefix
        # DIFFERENCE is exact even if the running total wraps — numpy
        # int64 is two's-complement mod 2^64, so pref[b]-pref[a]
        # recovers any window sum that itself fits in int64. Only the
        # bounded 5-term window sum is converted to float for the one
        # exactly-rounded IEEE division below.
        d = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = d["user_id"].to_numpy(np.int64)
        cents = _i64_away_np(d["value"].to_numpy())
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        start_of = np.repeat(starts, np.diff(np.r_[starts, len(u)]))
        i = np.arange(len(u))
        lo = np.maximum(i - 4, start_of)
        pref = np.concatenate(([0], np.cumsum(cents)))
        csum = (pref[i + 1] - pref[lo]).astype(np.float64)
        cnt = (i - lo + 1).astype(np.float64)
        return pd.DataFrame(
            {
                "event_id": d["event_id"].to_numpy(np.int64),
                "user_id": u,
                "ma5_e2": _i64_away_np(csum * 100.0 / cnt, scale=1.0),
            }
        )

    return by_shard(
        ds, "user_id", _roll_shard,
        pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("ma5_e2", pa.int64()),
            ]
        ),
    )


SQL_MOVING_AVG = """
WITH c AS (
  SELECT event_id, user_id, ts,
         cast(round(value * 100, 0) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       cast(round(sum(cents) OVER w * 100.0 / count(*) OVER w, 0) AS BIGINT)
           AS ma5_e2
FROM c
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
"""


# =====================================================================
# Extraction pipelines (rows-only: not SQL-expressible)
# =====================================================================

_SF_TO_SIZE = {"0.001": "tiny", "0.01": "small", "0.1": "small"}


def _size_for(sf_dir: str) -> str:
    for sf, size in _SF_TO_SIZE.items():
        if sf_dir.rstrip("/").endswith(f"sf{sf}"):
            return size
    return "tiny"


def q_extract_transcripts(sf_dir: str):
    """Flagship: template extraction over the deterministic transcripts
    table sized to match the sf tier. Output columns match the
    generator's expected.parquet oracle twin exactly (the full schema —
    spans, role, metrics — is covered in tests/test_pipeline.py)."""
    from .extraction import run_flagship

    ds = run_flagship(size=_size_for(sf_dir))
    return ds.select_columns(
        ["conv_id", "turn_idx", "template_id", "error_kind",
         "extracted_text", "fields"]
    )


def q_training_prep(sf_dir: str):
    """Composite training-data prep chain — the pipelines composed the
    way a real corpus build runs them: flagship extract → keep ok rows
    → token-count floor → exact dedup on extracted_text (keeper = min
    (conv_id, turn_idx)) → (conv_id, turn_idx, n_tokens). Full SQL
    oracle over the generator's expected twin, so the driver verifies
    the CHAIN, not just each stage.

    Dedup is a vectorized Min AGGREGATE, not per-group map_groups
    (mostly-unique texts make groups singletons — per-group pandas
    overhead × 18k groups measured minutes): keeper row encoded as a
    composite sort key ``conv_id \\x1f zfill(turn_idx) \\x1f n_tokens``
    whose lexicographic min equals the (conv_id, turn_idx) tuple min
    (the separator sorts below every id character), split back after
    the aggregate. The shuffle carries (hash, key) only — the text
    never rides the exchange."""
    import hashlib

    from .extraction import run_flagship

    ds = run_flagship(size=_size_for(sf_dir))

    def _ok_tokens(batch: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(batch.column("extracted_text"), r"\S+"),
            pa.int64(),
        )
        key = pc.binary_join_element_wise(
            batch.column("conv_id"),
            pc.utf8_lpad(pc.cast(batch.column("turn_idx"), pa.string()), 10, "0"),
            pc.cast(n_tok, pa.string()),
            "\x1f",
        )
        t = pa.table(
            {
                # md5 replaces the payload before the shuffle
                "text_hash": pa.array(
                    [
                        hashlib.md5((x or "").encode("utf-8")).hexdigest()
                        for x in batch.column("extracted_text").to_pylist()
                    ]
                ),
                "key": key,
            }
        )
        mask = pc.and_(
            pc.equal(batch.column("error_kind"), ""), pc.greater_equal(n_tok, 5)
        )
        return t.filter(mask)

    from ray.data.aggregate import Min

    filt = ds.map_batches(_ok_tokens, batch_format="pyarrow")
    agg = filt.groupby("text_hash").aggregate(Min("key"))

    def _split(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch.column("min(key)"), "\x1f")
        return pa.table(
            {
                "conv_id": pc.list_element(parts, 0),
                "turn_idx": pc.cast(
                    pc.list_element(parts, 1), pa.int32()
                ),
                "n_tokens": pc.cast(pc.list_element(parts, 2), pa.int64()),
            }
        )

    return agg.map_batches(_split, batch_format="pyarrow")


def _sql_training_prep(sf_dir: str) -> str:
    from .. import oracles

    twin = oracles.transcripts_twin(_size_for(sf_dir))
    return rf"""
WITH ok AS (
  SELECT conv_id, turn_idx, extracted_text,
         len(regexp_extract_all(extracted_text, '\S+')) AS n_tokens
  FROM read_parquet('{twin}')
  WHERE error_kind = ''
), ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY extracted_text ORDER BY conv_id, turn_idx
  ) AS rn
  FROM ok WHERE n_tokens >= 5
)
SELECT conv_id, turn_idx, cast(n_tokens AS BIGINT) AS n_tokens
FROM ranked WHERE rn = 1
"""


def q_extract_error_stats(sf_dir: str):
    """R5 over the flagship itself: per-(template, error-kind) row
    counts, aggregated with per-batch partials — a driver-green
    aggregate ON the extraction pipeline's own output (the twin
    carries no matcher metrics, so counts are the comparable part;
    nodes/boilerplate roll-ups are covered by the manifest tests)."""
    from ray.data.aggregate import Sum

    from .extraction import run_flagship

    ds = run_flagship(size=_size_for(sf_dir))

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "template_id": batch.column("template_id"),
                "error_kind": batch.column("error_kind"),
            }
        )
        return t.group_by(["template_id", "error_kind"]).aggregate(
            [("error_kind", "count")]
        )

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby(["template_id", "error_kind"]).aggregate(
        Sum("error_kind_count")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "template_id": t.column("template_id"),
                "error_kind": t.column("error_kind"),
                "n_rows": pc.cast(t.column("sum(error_kind_count)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_conv_stats(sf_dir: str):
    """Conversation-level aggregates over the mandated transcripts
    table (turns, HTML-bearing turns, time span) — per-batch partials
    before the conv groupby, so the shuffle moves one row per conv per
    batch. Oracle reads the same part-*.parquet shards via DuckDB."""
    from ray.data.aggregate import Max, Min, Sum

    from ..transcripts import ensure_generated
    from .extraction import read_transcripts

    ds = read_transcripts(ensure_generated(_size_for(sf_dir)))

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "conv_id": batch.column("conv_id"),
                "is_html": pc.cast(
                    pc.greater_equal(batch.column("template_id"), 0), pa.int64()
                ),
                "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )
        return t.group_by("conv_id").aggregate(
            [("is_html", "sum"), ("is_html", "count"),
             ("ts_us", "min"), ("ts_us", "max")]
        )

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("conv_id").aggregate(
        Sum("is_html_sum"), Sum("is_html_count"),
        Min("ts_us_min"), Max("ts_us_max"),
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "conv_id": t.column("conv_id"),
                "n_turns": pc.cast(t.column("sum(is_html_count)"), pa.int64()),
                "n_html_turns": pc.cast(t.column("sum(is_html_sum)"), pa.int64()),
                "span_seconds": pc.cast(
                    pc.divide(
                        pc.subtract(
                            t.column("max(ts_us_max)"), t.column("min(ts_us_min)")
                        ),
                        1_000_000,
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_learned_extract(sf_dir: str):
    """Learner path: skeleton templates learned from rendered samples,
    then applied — exercised at tiny scale (see learner tests). Output
    columns match oracles.learned_twin (single-threaded mirror)."""
    from .learning import learned_extraction

    ds = learned_extraction(size="tiny")
    return ds.select_columns(
        ["conv_id", "turn_idx", "template_id", "status", "error_kind",
         "extracted_text", "fields"]
    )


def q_multimodal_features(sf_dir: str):
    """Media featurize (stubbed decode, real Ray plumbing)."""
    from ..functions.multimodal import MediaFeaturizer, make_media_table

    tbl = make_media_table(200)
    ds = ray.data.from_arrow(tbl)
    out = ds.map_batches(
        MediaFeaturizer, batch_format="pyarrow", batch_size=32, concurrency=(1, 2)
    )
    return out.drop_columns(["feature"])


def q_phash_neardup(sf_dir: str):
    """Media near-dup via perceptual hash: the 300-row media table
    (200 base + 100 synthesized re-uploads) hashed by the 63-bit
    dHash over the stubbed decode (:func:`functions.multimodal
    .phash63` — real decoder swaps in on a production cluster), then
    one ``groupby(phash)`` exchange assigns each duplicate group its
    min-media_id keeper.  The image twin of ``dedup_exact``: payload
    bytes never shuffle, only (media_id, phash)."""
    from ..functions.multimodal import make_media_dup_table, phash63

    ds = ray.data.from_arrow(make_media_dup_table())

    def _hash(batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        metas = batch.column("meta").to_pylist()
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "phash": pa.array(
                    [phash63(p, m) for p, m in zip(payloads, metas)], pa.int64()
                ),
            }
        )

    def _group_shard(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-SHARD grouping (C transforms), not one pandas
        # UDF per distinct hash
        gb = g.groupby("phash", sort=False)["media_id"]
        return pd.DataFrame(
            {
                "media_id": g["media_id"].to_numpy(np.int64),
                "phash": g["phash"].to_numpy(np.int64),
                "keeper_media": gb.transform("min").to_numpy(np.int64),
                "group_size": gb.transform("size").to_numpy(np.int64),
            }
        )

    return by_shard(
        ds.map_batches(_hash, batch_format="pyarrow", batch_size=64),
        "phash", _group_shard,
        pa.schema(
            [
                ("media_id", pa.int64()),
                ("phash", pa.int64()),
                ("keeper_media", pa.int64()),
                ("group_size", pa.int64()),
            ]
        ),
    )


def q_frame_sample(sf_dir: str):
    """Video frame sampling (1→N fan-out inside map_batches; decode
    stubbed, plumbing real). Float frame features are reduced to a
    deterministic scaled-int checksum so the driver's value-hash
    compares them exactly."""
    from ..functions.embed import fixed_list_to_numpy
    from ..functions.multimodal import FrameSampler, make_media_table

    ds = ray.data.from_arrow(make_media_table(200))
    out = ds.map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=32, concurrency=(1, 2)
    )

    def _checksum(t: pa.Table) -> pa.Table:
        feats = fixed_list_to_numpy(t.column("frame_feature"), dtype=np.float64)
        s = feats.sum(axis=1)  # fixed order within a row → deterministic
        return pa.table(
            {
                "media_id": t.column("media_id"),
                "frame_idx": pc.cast(t.column("frame_idx"), pa.int64()),
                "feature_sum_e6": _i64_away(pa.array(s), 1e6),
            }
        )

    return out.map_batches(_checksum, batch_format="pyarrow")


# =====================================================================
# registry
# =====================================================================

QUERIES = {
    "embedding_neardup_exact": q_embedding_neardup_exact,
    "sample_hash": q_sample_hash,
    "grouped_topk": q_grouped_topk,
    "top_shipping": q_top_shipping,
    "json_props": q_json_props,
    "chunk_documents": q_chunk_documents,
    "regex_extract": q_regex_extract,
    "date_histogram": q_date_histogram,
    "extract_error_stats": q_extract_error_stats,
    "conv_stats": q_conv_stats,
    "pricing_summary": q_pricing_summary,
    "filter_project": q_filter_project,
    "broadcast_join": q_broadcast_join,
    "topk_orders": q_topk_orders,
    "events_by_type": q_events_by_type,
    "distinct_lang_source": q_distinct_lang_source,
    "union_orders": q_union_orders,
    "dedup_exact": q_dedup_exact,
    "running_sum": q_running_sum,
    "quantiles_by_type": q_quantiles_by_type,
    "moving_avg": q_moving_avg,
    "range_join_bands": q_range_join_bands,
    "distinct_users_by_type": q_distinct_users_by_type,
    "heavy_hitter_convs": q_heavy_hitter_convs,
    "approx_distinct_users": q_approx_distinct_users,
    "left_join": q_left_join,
    "token_count": q_token_count,
    "fingerprint": q_fingerprint,
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
    "knn_cosine": q_knn_cosine,
    "embed_knn": q_embed_knn,
    "knn_lsh": q_knn_lsh,
    "dedup_minhash": q_dedup_minhash,
    "dedup_clusters": q_dedup_clusters,
    "dedup_keep": q_dedup_keep,
    "dedup_keep_best": q_dedup_keep_best,
    "dedup_simhash": q_dedup_simhash,
    "embedding_neardup": q_embedding_neardup,
    "embedding_neardup_clusters": q_embedding_neardup_clusters,
    "lang_id": q_lang_id,
    "quality_score": q_quality,
    "readability": q_readability,
    "rolling_fingerprint": q_rolling_fingerprint,
    "extract_transcripts": q_extract_transcripts,
    "training_prep": q_training_prep,
    "learned_extract": q_learned_extract,
    "multimodal_features": q_multimodal_features,
    "phash_neardup": q_phash_neardup,
    "frame_sample": q_frame_sample,
    "decontaminate": q_decontaminate,
    "split_assign": q_split_assign,
    "compression_signal": q_compression_signal,
    "shuffle_train": q_shuffle_train,
}

ORACLE_SQL = {
    "pricing_summary": SQL_PRICING,
    "filter_project": SQL_FILTER_PROJECT,
    "broadcast_join": SQL_BROADCAST_JOIN,
    "topk_orders": SQL_TOPK,
    "events_by_type": SQL_EVENTS_BY_TYPE,
    "distinct_lang_source": SQL_DISTINCT,
    "union_orders": SQL_UNION,
    "dedup_exact": SQL_DEDUP_EXACT,
    "running_sum": SQL_RUNNING,
    "quantiles_by_type": SQL_QUANTILES,
    "moving_avg": SQL_MOVING_AVG,
    "range_join_bands": SQL_RANGE_JOIN,
    "distinct_users_by_type": SQL_DISTINCT_USERS,
    "left_join": SQL_LEFT_JOIN,
    "token_count": SQL_TOKEN_COUNT,
    "readability": SQL_READABILITY,
    "fingerprint": SQL_FINGERPRINT,
    "semi_join": SQL_SEMI_JOIN,
    "anti_join": SQL_ANTI_JOIN,
    "knn_cosine": SQL_KNN,
    "dedup_minhash": SQL_DEDUP_MINHASH,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "dedup_keep": SQL_DEDUP_KEEP,
    "dedup_keep_best": SQL_DEDUP_KEEP_BEST,
    "embedding_neardup_exact": SQL_NEARDUP_EXACT,
    "embedding_neardup_clusters": SQL_NEARDUP_CLUSTERS,
    "sample_hash": SQL_SAMPLE_HASH,
    "grouped_topk": SQL_GROUPED_TOPK,
    "top_shipping": SQL_TOP_SHIPPING,
    "json_props": SQL_JSON_PROPS,
    "chunk_documents": SQL_CHUNKS,
    "regex_extract": SQL_REGEX_EXTRACT,
    "date_histogram": SQL_DATE_HISTOGRAM,
    "decontaminate": SQL_DECONTAMINATE,
    "split_assign": SQL_SPLIT_ASSIGN,
    "shuffle_train": SQL_SHUFFLE_TRAIN,
}

#: driver sf tier for the oracle comparison (the twins the dynamic
#: oracles read are built for this dir — __ray_entry__.oracle_sql()
#: calls registry.oracle_sql(), which materializes them)
DRIVER_SF_DIR = "/root/testdata/sf0.01"


def dynamic_oracle_sql(sf_dir: str = DRIVER_SF_DIR) -> dict[str, str]:
    """The twins that depend on ``sf_dir``: SQL over a deterministic
    expected-twin parquet (built here, single-threaded, independent of
    the Ray execution path — see weakscraper_ray.oracles).
    """
    from .. import oracles

    out = {}
    out["lang_id"] = _sql_lang_id()
    out["quality_score"] = _sql_quality()
    out["embed_knn"] = _sql_embed_knn(sf_dir)
    out["training_prep"] = _sql_training_prep(sf_dir)
    out["heavy_hitter_convs"] = _sql_heavy_hitters(sf_dir)
    out["compression_signal"] = f"""
SELECT d.doc_id,
       cast(octet_length(encode(coalesce(d.text, ''))) AS BIGINT) AS raw_bytes,
       t.zlib_bytes
FROM documents d JOIN read_parquet('{oracles.compression_twin(sf_dir)}') t
  USING (doc_id)
"""

    # extraction family: expected twins
    size = _size_for(sf_dir)
    t_extract = oracles.transcripts_twin(size)
    out["extract_transcripts"] = (
        "SELECT conv_id, turn_idx, template_id, error_kind, extracted_text, "
        f"fields FROM read_parquet('{t_extract}')"
    )
    out["extract_error_stats"] = (
        "SELECT template_id, error_kind, cast(count(*) AS BIGINT) AS n_rows "
        f"FROM read_parquet('{t_extract}') GROUP BY template_id, error_kind"
    )
    from .extraction import read_transcripts as _rt  # noqa: F401 (path only)
    from ..transcripts import ensure_generated as _eg

    shards_glob = f"{_eg(size)}/part-*.parquet"
    out["conv_stats"] = f"""
SELECT conv_id,
       cast(count(*) AS BIGINT) AS n_turns,
       cast(sum(CASE WHEN template_id >= 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_html_turns,
       cast((epoch_us(max(ts)) - epoch_us(min(ts))) // 1000000 AS BIGINT)
           AS span_seconds
FROM read_parquet('{shards_glob}')
GROUP BY conv_id
"""
    out["learned_extract"] = f"SELECT * FROM read_parquet('{oracles.learned_twin()}')"
    out["heuristic_extract"] = (
        f"SELECT * FROM read_parquet('{oracles.heuristic_twin(size)}')"
    )
    out["extract_agreement"] = (
        f"SELECT * FROM read_parquet('{oracles.extract_agreement_twin(size)}')"
    )
    out["rolling_fingerprint"] = (
        f"SELECT * FROM read_parquet('{oracles.rolling_twin(sf_dir)}')"
    )
    sig = oracles.simhash_twin(sf_dir)
    from ..functions.dedup import SIMHASH_MAX_HAMMING

    out["dedup_simhash"] = f"""
WITH s AS (SELECT doc_id, sig FROM read_parquet('{sig}'))
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       cast(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sig, b.sig)) <= {SIMHASH_MAX_HAMMING}
"""
    out["phash_neardup"] = (
        "SELECT media_id, phash, keeper_media, group_size "
        f"FROM read_parquet('{oracles.phash_twin()}')"
    )
    out["multimodal_features"] = (
        f"SELECT * FROM read_parquet('{oracles.multimodal_twin()}')"
    )
    out["frame_sample"] = (
        f"SELECT * FROM read_parquet('{oracles.frame_sample_twin()}')"
    )
    out["pdf_layout"] = f"SELECT * FROM read_parquet('{oracles.pdf_layout_twin()}')"
    return out


# =====================================================================
# Windowed aggregate: tumbling 1-hour windows (streaming-shaped, ray
# guide pattern: event-time windows as keyed groupby over bucketed ts)
# =====================================================================

def q_window_tumbling(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def _bucket(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())  # epoch micros
        hour = pc.divide(us, 3_600_000_000)
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_hour": pc.cast(hour, pa.int64()),
                "value": batch.column("value"),
            }
        )
        return t.group_by(["event_type", "window_hour"]).aggregate(
            [("value", "sum"), ("value", "count")]
        )

    partials = ds.map_batches(_bucket, batch_format="pyarrow")
    agg = partials.groupby(["event_type", "window_hour"]).aggregate(
        Sum("value_sum"), Sum("value_count")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "event_type": t.column("event_type"),
                "window_hour": t.column("window_hour"),
                "n_events": pc.cast(t.column("sum(value_count)"), pa.int64()),
                "sum_value_cents": _i64_away(t.column("sum(value_sum)")),
            }
        ),
        batch_format="pyarrow",
    )


SQL_WINDOW = """
SELECT event_type,
       cast(floor(epoch(ts) / 3600) AS BIGINT)            AS window_hour,
       cast(count(*) AS BIGINT)                           AS n_events,
       cast(round(sum(value) * 100, 0) AS BIGINT)         AS sum_value_cents
FROM events GROUP BY event_type, cast(floor(epoch(ts) / 3600) AS BIGINT)
"""


#: hopping (sliding) window: 1 h windows every 15 min → each event
#: lands in exactly size/hop = 4 overlapping windows
_HOP_US = 900_000_000          # 15 min in epoch micros
_HOP_FACTOR = 4                # window size = 4 hops


def q_window_hopping(sf_dir: str):
    """Overlapping (hopping) windowed aggregate — the streaming-window
    shape `window_tumbling` can't express: 1-hour windows advancing
    every 15 minutes, so each event contributes to 4 windows.

    Composition (no custom operator needed): the per-batch expansion
    replicates only the (event_type, window, value) triple ×4 — the
    fan-out happens INSIDE the batch where it's an Arrow concat, and
    the per-batch partial aggregate collapses it again before the
    exchange, so the global shuffle still moves one row per
    (type, window) per batch, not ×4 events."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def _expand(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())
        q = pc.divide(us, _HOP_US)  # hop index containing the event
        parts = []
        for i in range(_HOP_FACTOR):
            parts.append(
                pa.table(
                    {
                        "event_type": batch.column("event_type"),
                        "window_start_min": pc.multiply(
                            pc.subtract(q, i), 15
                        ).cast(pa.int64()),
                        "value": batch.column("value"),
                    }
                )
            )
        t = pa.concat_tables(parts)
        return t.group_by(["event_type", "window_start_min"]).aggregate(
            [("value", "sum"), ("value", "count")]
        )

    partials = ds.map_batches(_expand, batch_format="pyarrow")
    agg = partials.groupby(["event_type", "window_start_min"]).aggregate(
        Sum("value_sum"), Sum("value_count")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "event_type": t.column("event_type"),
                "window_start_min": t.column("window_start_min"),
                "n_events": pc.cast(t.column("sum(value_count)"), pa.int64()),
                "sum_value_cents": _i64_away(t.column("sum(value_sum)")),
            }
        ),
        batch_format="pyarrow",
    )


SQL_WINDOW_HOPPING = """
SELECT event_type,
       (epoch_us(ts) // 900000000 - u.i) * 15              AS window_start_min,
       cast(count(*) AS BIGINT)                            AS n_events,
       cast(round(sum(value) * 100, 0) AS BIGINT)          AS sum_value_cents
FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS i) u
GROUP BY 1, 2
"""


# =====================================================================
# As-of join: each click gets the user's most recent view at-or-before
# its timestamp (pd.merge_asof per user group — ray guide pattern)
# =====================================================================

def q_asof_join(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"])

    def _asof_shard(group: pd.DataFrame) -> pd.DataFrame:
        # one grouped merge_asof per SHARD: pandas runs the by=
        # variant as a single vectorized pass, so UDF calls scale with
        # shard count, never user cardinality
        clicks = group[group["event_type"] == "click"].sort_values(
            ["ts", "event_id"], kind="mergesort"
        )
        views = (
            group[group["event_type"] == "view"]
            .groupby(["user_id", "ts"], as_index=False)["value"].max()
            .sort_values("ts", kind="mergesort")
        )
        if clicks.empty or views.empty:
            return pd.DataFrame(
                columns=["event_id", "user_id", "view_value_cents"]
            )
        m = pd.merge_asof(
            clicks, views, on="ts", by="user_id",
            direction="backward", suffixes=("", "_view"),
        )
        m = m.dropna(subset=["value_view"])
        m["view_value_cents"] = _i64_away_np(m["value_view"].to_numpy())
        return m[["event_id", "user_id", "view_value_cents"]]

    return by_shard(
        ds, "user_id", _asof_shard,
        pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("view_value_cents", pa.int64()),
            ]
        ),
    )


SQL_ASOF = """
SELECT c.event_id, c.user_id,
       cast(round(v.value * 100, 0) AS BIGINT) AS view_value_cents
FROM (SELECT * FROM events WHERE event_type = 'click') c
ASOF JOIN (
    SELECT user_id, ts, max(value) AS value FROM events
    WHERE event_type = 'view' GROUP BY user_id, ts
) v ON c.user_id = v.user_id AND c.ts >= v.ts
"""


# =====================================================================
# Sessionization: per-user session count with a 30-minute gap rule
# =====================================================================

def q_sessionize(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def _sessions_shard(group: pd.DataFrame) -> pd.DataFrame:
        # vectorized gap rule per SHARD: session breaks are user
        # boundaries OR >30-min gaps (µs-integer compare — exact),
        # per-user counts via one C groupby sum
        d = group.sort_values(["user_id", "ts", "event_id"],
                              kind="mergesort")
        u = d["user_id"].to_numpy(np.int64)
        us = d["ts"].astype("int64").to_numpy()
        brk = np.ones(len(d), dtype=np.int64)
        brk[1:] = np.where(
            (u[1:] == u[:-1]) & (us[1:] - us[:-1] <= 1_800_000_000), 0, 1
        )
        agg = pd.DataFrame({"user_id": u, "b": brk}).groupby(
            "user_id", sort=False
        )["b"].sum()
        return pd.DataFrame(
            {
                "user_id": agg.index.to_numpy(np.int64),
                "n_sessions": agg.to_numpy(np.int64),
            }
        )

    return by_shard(
        ds, "user_id", _sessions_shard,
        pa.schema([("user_id", pa.int64()), ("n_sessions", pa.int64())]),
    )


SQL_SESSIONIZE = """
SELECT user_id,
       cast(1 + sum(CASE WHEN gap > 1800 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM (
    SELECT user_id,
           epoch(ts) - lag(epoch(ts)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS gap
    FROM events
)
GROUP BY user_id
"""


# =====================================================================
# Large-large join: Ray Data hash-partitioned Dataset.join
# (both sides big — contrast with the broadcast join above)
# =====================================================================

def q_hash_join(sf_dir: str):
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # partitions sized to the session: a fixed 32 needs 32 aggregator
    # actors and deadlocks small CPU sessions
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=max(2, ncpu // 2),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def _partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(1.0, batch.column("l_discount")),
        )
        t = pa.table(
            {"o_orderpriority": batch.column("o_orderpriority"), "rev": rev}
        )
        return t.group_by("o_orderpriority").aggregate(
            [("rev", "sum"), ("rev", "count")]
        )

    partials = joined.map_batches(_partial, batch_format="pyarrow")
    agg = partials.groupby("o_orderpriority").aggregate(
        Sum("rev_sum"), Sum("rev_count")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "o_orderpriority": t.column("o_orderpriority"),
                "revenue_cents": _i64_away(t.column("sum(rev_sum)")),
                "n_items": pc.cast(t.column("sum(rev_count)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_HASH_JOIN = """
SELECT o.o_orderpriority,
       cast(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100, 0) AS BIGINT)
           AS revenue_cents,
       cast(count(*) AS BIGINT) AS n_items
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
"""


QUERIES.update(
    {
        "window_tumbling": q_window_tumbling,
        "window_hopping": q_window_hopping,
        "asof_join": q_asof_join,
        "sessionize": q_sessionize,
        "hash_join": q_hash_join,
    }
)

ORACLE_SQL.update(
    {
        "window_tumbling": SQL_WINDOW,
        "window_hopping": SQL_WINDOW_HOPPING,
        "asof_join": SQL_ASOF,
        "sessionize": SQL_SESSIONIZE,
        "hash_join": SQL_HASH_JOIN,
    }
)


# =====================================================================
# R9: deterministic seeded sampling (learner-style; rows-only check —
# the sampled row SET is seed-stable but not SQL-expressible)
# =====================================================================

def q_sample(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return ds.random_sample(0.1, seed=42)


QUERIES["sample_events"] = q_sample


# =====================================================================
# DOM-heuristic extraction + PDF layout parse (north_rule families;
# rows-only — not SQL-expressible)
# =====================================================================

def q_heuristic_extract(sf_dir: str):
    """Template-less extraction: text-density DOM heuristic as the
    fallback for pages whose template mismatches (mutated rows) — the
    north_rule's 'DOM heuristics' member, end to end on Ray."""
    from .extraction import extraction_pipeline, read_transcripts
    from ..transcripts import ensure_generated

    input_dir = ensure_generated(_size_for(sf_dir))
    ds = read_transcripts(input_dir)
    out = extraction_pipeline(
        ds,
        restore_ordering=False,
        heuristic_fallback=True,
    )
    return out.map_batches(
        lambda t: t.filter(pc.equal(t.column("status"), "heuristic")).select(
            ["conv_id", "turn_idx", "error_kind", "extracted_text",
             "boilerplate_bytes_stripped"]
        ),
        batch_format="pyarrow",
    )


def q_extract_agreement(sf_dir: str):
    """Template-vs-heuristic extraction AGREEMENT per template: on the
    turns where the routed template matches, run the text-density
    heuristic on the same raw HTML and roll up, per template,
    (n_turns, n_equal, n_contained, template_chars, heuristic_chars) —
    the audit a curation team runs before trusting the heuristic
    fallback on unroutable pages (if containment is low the fallback
    is LOSING template-extracted content, not just adding noise).

    Shape: the flagship extract keeps the raw text column
    (keep_text), a second map-only stage computes the heuristic twin
    per matched turn and reduces each batch to ≤|templates| partial
    rows, one template-bounded Sum exchange closes it — the raw HTML
    never shuffles."""
    from ray.data.aggregate import Sum

    from ..transcripts import ensure_generated
    from .extraction import extraction_pipeline, read_transcripts

    input_dir = ensure_generated(_size_for(sf_dir))
    out = extraction_pipeline(
        read_transcripts(input_dir), restore_ordering=False, keep_text=True
    )

    def _agree(t: pa.Table) -> pa.Table:
        from ..heuristic import extract_main_content

        t = t.filter(
            pc.and_(
                pc.equal(t.column("status"), "ok"),
                pc.greater_equal(t.column("template_id"), 0),
            )
        )
        tids = t.column("template_id").to_pylist()
        t_texts = t.column("extracted_text").to_pylist()
        raws = t.column("text").to_pylist()
        agg: dict[int, list[int]] = {}
        for tid, tt, raw in zip(tids, t_texts, raws):
            ht, _ = extract_main_content(raw)
            a = agg.setdefault(int(tid), [0, 0, 0, 0, 0])
            a[0] += 1
            a[1] += int(tt == ht)
            a[2] += int(tt in ht)
            a[3] += len(tt)
            a[4] += len(ht)
        ks = sorted(agg)
        return pa.table(
            {
                "template_id": pa.array(ks, pa.int64()),
                "n_turns": pa.array([agg[k][0] for k in ks], pa.int64()),
                "n_equal": pa.array([agg[k][1] for k in ks], pa.int64()),
                "n_contained": pa.array([agg[k][2] for k in ks], pa.int64()),
                "template_chars": pa.array(
                    [agg[k][3] for k in ks], pa.int64()
                ),
                "heuristic_chars": pa.array(
                    [agg[k][4] for k in ks], pa.int64()
                ),
            }
        )

    return (
        out.map_batches(_agree, batch_format="pyarrow")
        .groupby("template_id")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("n_equal", alias_name="n_equal"),
            Sum("n_contained", alias_name="n_contained"),
            Sum("template_chars", alias_name="template_chars"),
            Sum("heuristic_chars", alias_name="heuristic_chars"),
        )
    )


QUERIES["extract_agreement"] = q_extract_agreement


def q_pdf_layout(sf_dir: str):
    """Stubbed-decode PDF layout parse: binary docs → text blocks with
    page/bbox → per-(doc,page) reading-order restore."""
    from ..functions.layout import PdfLayoutParser, make_pdf_table

    ds = ray.data.from_arrow(make_pdf_table(500))
    blocks = ds.map_batches(
        PdfLayoutParser, batch_format="pyarrow", batch_size=32, concurrency=(1, 2)
    )

    # reading-order restore re-keyed onto a bounded doc shard: one
    # vectorized sort + grouped cumcount per SHARD instead of one
    # pandas UDF per (doc, page) — page groups are ~3 rows each, the
    # worst per-group-overhead regime (the qa_pairs re-keying shape)
    def _order_shard(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(
            ["doc_id", "page", "y1", "x0"],
            ascending=[True, True, False, True], kind="mergesort",
        )
        d["reading_idx"] = d.groupby(
            ["doc_id", "page"], sort=False
        ).cumcount()
        return d

    from ..functions.layout import BLOCK_FIELDS

    return by_shard(
        blocks, "doc_id", _order_shard,
        pa.schema(
            [(n, t) for n, t in BLOCK_FIELDS] + [("reading_idx", pa.int64())]
        ),
    )


QUERIES["heuristic_extract"] = q_heuristic_extract
QUERIES["pdf_layout"] = q_pdf_layout


#: lists probed per query (of 8 trained on this corpus): measured
#: recall@10 at sf0.01 is 0.675 / 0.775 / 0.85 / 0.875 / 0.95 for
#: nprobe 2/3/4/5/6 — random embeddings have no cluster structure, so
#: recall buys linear probe cost (production IVF over real embeddings
#: gets the same recall at a far smaller probed fraction); nprobe 6
#: gives >=0.15 headroom over the 0.8 floor pinned in
#: tests/test_round2.py (VERDICT r4 #3: matched to the knn_lsh /
#: embedding_neardup bars)
_IVF_NPROBE = 6


def q_knn_ivf(sf_dir: str):
    """IVF ANN scale path: k-means centroids trained on a distributed
    seeded sample → vectors bucketed into inverted lists (actor stage,
    broadcast centroids) → each query scores its ``_IVF_NPROBE``
    nearest lists' members → per-query global top-k reduce over the
    probed partials. Rows-only (approximate by design; recall floor
    asserted vs knn_cosine in tests/test_round2.py)."""
    from ..functions.similarity import IvfAssigner, ivf_topk_in_list, kmeans_centroids

    # k-means training sample: a seeded DISTRIBUTED random sample (no
    # driver-side full-table read, no first-rows bias — VERDICT r1 #4);
    # take() only materializes the tiny sample itself.
    sample_rows = (
        _read(sf_dir, "embeddings", ["embedding"])
        .random_sample(0.5, seed=42)
        .limit(256)
        .take_all()
    )
    sample = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    cents = kmeans_centroids(sample, k=8)
    cents_ref = ray.put(cents)

    qt = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qmask = pc.less(qt.column("vec_id"), _KNN_QUERIES)
    qsel = qt.filter(qmask)
    qmat = np.asarray(qsel.column("embedding").to_pylist(), dtype=np.float64)
    qunit = qmat / np.maximum(np.linalg.norm(qmat, axis=1, keepdims=True), 1e-12)
    qids = np.asarray(qsel.column("vec_id").to_pylist())
    # multi-probe: the _IVF_NPROBE nearest lists each query searches
    qd = ((qmat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    qprobe = np.argsort(qd, axis=1)[:, :_IVF_NPROBE]

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    assigned = ds.map_batches(
        IvfAssigner,
        fn_constructor_kwargs=dict(centroids_ref=cents_ref),
        batch_format="pyarrow",
        concurrency=(1, 2),
    )

    def _per_list(group: pd.DataFrame) -> pd.DataFrame:
        lid = int(group["list_id"].iloc[0])
        probing = (qprobe == lid).any(axis=1)
        if not probing.any():
            return pd.DataFrame(columns=["query_id", "vec_id", "score"]).astype(
                {"query_id": "int64", "vec_id": "int64", "score": "float64"}
            )
        return ivf_topk_in_list(group, qunit[probing], qids[probing], k=_KNN_K)

    partials = _schema_guard(
        assigned.groupby("list_id").map_groups(_per_list, batch_format="pandas"),
        _KNN_PARTIAL_SCHEMA,
    )

    # final per-query top-k: driver-side over the BOUNDED partial set
    # (≤ nlists × nqueries × k rows — independent of corpus size). A
    # second hash exchange here intermittently died on a schemaless
    # empty block raced past _schema_guard (map_batches never sees
    # lone empty blocks), and for a fixed query set the reduce payload
    # never justifies a shuffle.
    pdf = partials.to_pandas()
    out = (
        pdf.sort_values(
            ["query_id", "score", "vec_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .drop_duplicates(["query_id", "vec_id"])
        .groupby("query_id", group_keys=False)
        .head(_KNN_K)
        .reset_index(drop=True)
    )
    return out


QUERIES["knn_ivf"] = q_knn_ivf
