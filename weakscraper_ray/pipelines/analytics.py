"""Round-3 analytics family: text/vocabulary statistics, exact
distributed statistics (correlation), window/rank pickers, OLAP shapes
(rollup, pivot), set operations, full-outer cogroup, and interpolated
percentiles — each a ``queries()`` entry with a DuckDB oracle twin.

Scale notes (the patterns these queries demonstrate):
- vocabulary stats: per-batch ``value_counts`` partials → one small
  ``groupby(term)`` shuffle carrying (term, n) only — the payload is
  the *vocabulary*, not the corpus;
- tf-idf: the document-frequency table is broadcast (``ray.put``) into
  the scoring stage; the partitioning assumption is vocab ≪ corpus
  (holds for natural language: vocab grows ~O(corpus^0.5), Heaps' law).
  At a scale where it doesn't, swap the broadcast for the hash-join
  pattern ``q_hash_join`` demonstrates;
- exact correlation: per-batch int64 partial sums (batch_size bounds
  the no-overflow invariant) → Python-int exact combine of the tiny
  partial table → one IEEE-identical final expression mirrored
  op-for-op in SQL over DuckDB's HUGEINT sums;
- rollup: coarser levels re-aggregate the finest-level aggregate (a
  bounded table), never the base data;
- full outer join: tagged union of the two sides → ONE ``groupby``
  cogroup; no driver-side merge, works big-big at scale;
- set ops (INTERSECT/EXCEPT): one ``groupby(key)`` with per-side flag
  maxima — a single shuffle for both operations.

All rounding follows the repo convention: DuckDB ``round()`` is half
away from zero, so every money/score column goes through
``_i64_away`` / ``_i64_away_np`` (ADVICE r2).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .relational import _i64_away, _i64_away_np, _read
from .tokenizer import _TRIM, _WS, _bigram_partial, _term_partial, _topk_terms

# =====================================================================
# Vocabulary statistics: top-k terms / bigrams over documents.text
# =====================================================================

def q_word_topk(sf_dir: str):
    ds = _read(sf_dir, "documents", ["text"])
    return _topk_terms(ds.map_batches(_term_partial, batch_format="pyarrow"), "term", 50)


SQL_WORD_TOPK = r"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS term FROM documents
)
SELECT term, cast(count(*) AS BIGINT) AS n
FROM toks GROUP BY term ORDER BY n DESC, term LIMIT 50
"""


def q_bigram_topk(sf_dir: str):
    ds = _read(sf_dir, "documents", ["text"])
    return _topk_terms(ds.map_batches(_bigram_partial, batch_format="pyarrow"), "bigram", 50)


SQL_BIGRAM_TOPK = r"""
WITH l AS (
  SELECT regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'), '\S+') AS toks
  FROM documents WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
),
b AS (
  SELECT toks[i] || ' ' || toks[i+1] AS bigram
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)
)
SELECT bigram, cast(count(*) AS BIGINT) AS n
FROM b GROUP BY bigram ORDER BY n DESC, bigram LIMIT 50
"""


# =====================================================================
# TF-IDF: per-document top-3 terms (df table broadcast into scoring)
# =====================================================================

def _doc_term_pairs(batch: pa.Table) -> pa.Table:
    """(doc_id, term, tf) — exact, not partial: a document lives in one
    row, so its term counts are complete within the batch."""
    txt = pc.replace_substring_regex(batch.column("text"), pattern=_TRIM, replacement="")
    keep = pc.and_(pc.is_valid(txt), pc.not_equal(txt, ""))
    t = batch.filter(keep)
    txt = pc.replace_substring_regex(t.column("text"), pattern=_TRIM, replacement="")
    toks = pc.split_pattern_regex(txt, pattern=_WS)
    la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    counts = np.diff(np.asarray(la.offsets))
    doc_ids = np.repeat(t.column("doc_id").to_numpy(), counts)
    flat = la.flatten().to_pandas().to_numpy()
    df = pd.DataFrame({"doc_id": doc_ids, "term": flat})
    tf = df.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
    return pa.table(
        {
            "doc_id": pa.array(tf["doc_id"].to_numpy(), pa.int64()),
            "term": pa.array(tf["term"].to_numpy(), pa.string()),
            "tf": pa.array(tf["tf"].to_numpy(), pa.int64()),
        }
    )


def q_tfidf_topk(sf_dir: str):
    """documents → (doc,term,tf) → df per term (small vocab groupby)
    → broadcast df → score → per-doc top-3. Both sides compute
    score = CAST(tf AS DOUBLE) * ln(N/df) on identical doubles, so the
    (score DESC, term ASC) pick order is bit-identical."""
    from ray.data.aggregate import Count

    pairs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _doc_term_pairs, batch_format="pyarrow"
    )
    pairs_mat = pairs.materialize()  # two consumers: df build + scoring
    n_docs = _read(sf_dir, "documents", ["text"]).map_batches(
        lambda b: pa.table({"n": pa.array([int(pc.sum(pc.and_(
            pc.is_valid(b.column("text")),
            pc.not_equal(pc.replace_substring_regex(
                b.column("text"), pattern=_TRIM, replacement=""), ""),
        )).as_py() or 0)], pa.int64())}),
        batch_format="pyarrow",
    ).sum("n")
    df_tbl = pairs_mat.groupby("term").aggregate(Count()).to_pandas()
    df_map = dict(zip(df_tbl["term"], df_tbl["count()"].astype(np.int64)))
    df_ref = ray.put(df_map)  # broadcast once; see module docstring for the vocab≪corpus assumption

    def _score(batch: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        terms = batch.column("term").to_pylist()
        df_arr = np.fromiter((dfm[t] for t in terms), dtype=np.float64, count=len(terms))
        score = batch.column("tf").to_numpy().astype(np.float64) * np.log(
            float(n_docs) / df_arr
        )
        return batch.append_column("score", pa.array(score, pa.float64()))

    scored = pairs_mat.map_batches(_score, batch_format="pyarrow")

    # per-doc top-3 via a bounded crc-shard exchange + ONE vectorized
    # sort + grouped head per shard — one UDF call per SHARD, never per
    # document (the qa_pairs high-cardinality-groupby avoidance)
    def _shard(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        sh = (
            (d * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
        ) % np.uint64(256)
        return t.append_column("tshard", pa.array(sh.astype(np.int64)))

    def _top3_shard(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(
            ["doc_id", "score", "term"],
            ascending=[True, False, True], kind="mergesort",
        )
        top = d.groupby("doc_id", sort=False).head(3)
        return pd.DataFrame(
            {
                "doc_id": top["doc_id"].to_numpy(),
                "term": top["term"].to_numpy(),
                "score_e6": _i64_away_np(top["score"].to_numpy(), scale=1e6),
            }
        )

    return (
        scored.map_batches(_shard, batch_format="pyarrow")
        .groupby("tshard")
        .map_groups(_top3_shard, batch_format="pandas")
    )


SQL_TFIDF = r"""
WITH t AS (
  SELECT doc_id, regexp_replace(text, '^\s+|\s+$', '', 'g') AS txt FROM documents
),
toks AS (
  SELECT doc_id, unnest(regexp_extract_all(txt, '\S+')) AS term
  FROM t WHERE txt IS NOT NULL AND txt <> ''
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
n AS (SELECT count(*) AS n FROM t WHERE txt IS NOT NULL AND txt <> ''),
s AS (
  SELECT tf.doc_id, tf.term,
         cast(tf.tf AS DOUBLE) * ln(cast(n.n AS DOUBLE) / cast(df.df AS DOUBLE)) AS score
  FROM tf JOIN df ON tf.term = df.term CROSS JOIN n
),
r AS (
  SELECT doc_id, term, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term) AS rn
  FROM s
)
SELECT doc_id, term, cast(round(score * 1000000, 0) AS BIGINT) AS score_e6
FROM r WHERE rn <= 3
"""


# =====================================================================
# Exact distributed correlation (per l_returnflag, qty vs price)
# =====================================================================

#: per-row y² ≤ (1e7 cents)² = 1e14; 8192 rows/batch → ≤ 8.2e17 < 2^63:
#: int64 partial sums cannot overflow within a batch at this size.
_CORR_BATCH = 8192


def _corr_partial(batch: pa.Table) -> pa.Table:
    x = _i64_away(batch.column("l_quantity"), 1.0)
    y = _i64_away(batch.column("l_extendedprice"), 100.0)
    t = pa.table(
        {
            "flag": batch.column("l_returnflag"),
            "x": x,
            "y": y,
            "xx": pc.multiply(x, x),
            "yy": pc.multiply(y, y),
            "xy": pc.multiply(x, y),
        }
    )
    return t.group_by("flag").aggregate(
        [("x", "sum"), ("y", "sum"), ("xx", "sum"), ("yy", "sum"),
         ("xy", "sum"), ("x", "count")]
    )


def _corr_final(g: pd.DataFrame) -> pd.DataFrame:
    # Python-int combine: partials are int64-safe but their SUM is not
    # (74 partials × 8e17 ≈ 6e19 > 2^63 at sf0.1) — exact big-int here,
    # HUGEINT sums on the DuckDB side.
    n = sum(int(v) for v in g["x_count"])
    sx = sum(int(v) for v in g["x_sum"])
    sy = sum(int(v) for v in g["y_sum"])
    sxx = sum(int(v) for v in g["xx_sum"])
    syy = sum(int(v) for v in g["yy_sum"])
    sxy = sum(int(v) for v in g["xy_sum"])
    num = n * sxy - sx * sy
    den = (n * sxx - sx * sx) * (n * syy - sy * sy)
    # mirror of the SQL: CAST(num AS DOUBLE)/sqrt(CAST(den AS DOUBLE)) —
    # int→double conversion and IEEE ops are identical on both sides
    v = float(num) / math.sqrt(float(den))
    return pd.DataFrame(
        {
            "l_returnflag": [g["flag"].iloc[0]],
            "n": np.array([n], dtype=np.int64),
            "corr_e6": _i64_away_np([v], scale=1e6),
        }
    )


def q_corr_stats(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    partials = ds.map_batches(
        _corr_partial, batch_format="pyarrow", batch_size=_CORR_BATCH
    )
    return partials.groupby("flag").map_groups(_corr_final, batch_format="pandas")


SQL_CORR = """
WITH c AS (
  SELECT l_returnflag AS flag,
         cast(round(l_quantity, 0) AS BIGINT)            AS x,
         cast(round(l_extendedprice * 100, 0) AS BIGINT) AS y
  FROM lineitem
),
s AS (
  SELECT flag, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*x) AS sxx, sum(y*y) AS syy, sum(x*y) AS sxy
  FROM c GROUP BY flag
)
SELECT flag AS l_returnflag, cast(n AS BIGINT) AS n,
       cast(round(cast(n*sxy - sx*sy AS DOUBLE)
                  / sqrt(cast((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE))
                  * 1000000, 0) AS BIGINT) AS corr_e6
FROM s
"""


# =====================================================================
# arg_max per group (partial best-per-batch → best-of-bests)
# =====================================================================

def _best_pick(df: pd.DataFrame) -> pd.DataFrame:
    d = df.sort_values(["value", "event_id"], ascending=[False, True], kind="mergesort")
    return d.drop_duplicates("event_type")


def q_argmax_events(sf_dir: str):
    """For each event_type the event with max value (ties → min
    event_id): per-batch candidate pick, then a tiny groupby over one
    candidate row per (batch, type)."""
    ds = _read(sf_dir, "events", ["event_type", "event_id", "value"])
    cands = ds.map_batches(_best_pick, batch_format="pandas")

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        b = _best_pick(g).iloc[0]
        return pd.DataFrame(
            {
                "event_type": [b["event_type"]],
                "best_event": np.array([b["event_id"]], dtype=np.int64),
                "best_value_cents": _i64_away_np([b["value"]]),
            }
        )

    return cands.groupby("event_type").map_groups(_final, batch_format="pandas")


SQL_ARGMAX = """
SELECT event_type, event_id AS best_event,
       cast(round(value * 100, 0) AS BIGINT) AS best_value_cents
FROM (
  SELECT event_type, event_id, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id) AS rn
  FROM events
) WHERE rn = 1
"""


# =====================================================================
# ROLLUP: (year, month) → + year level → + grand total
# =====================================================================

def q_rollup_revenue(sf_dir: str):
    """Finest level is the only pass over base data; the year and
    grand-total levels re-aggregate the bounded month-level table
    (≤ #months rows) with pyarrow. Sentinel 0 for rolled-up columns on
    both sides (NULL-free value-hash)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def _part(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        t = pa.table(
            {
                "y": pc.cast(pc.year(d), pa.int64()),
                "m": pc.cast(pc.month(d), pa.int64()),
                "cents": _i64_away(batch.column("o_totalprice"), 100.0),
            }
        )
        return t.group_by(["y", "m"]).aggregate([("cents", "sum"), ("cents", "count")])

    months = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby(["y", "m"])
        .aggregate(Sum("cents_sum"), Sum("cents_count"))
    )
    mt = months.to_pandas()  # bounded: one row per (year, month)
    mt = mt.rename(columns={"sum(cents_sum)": "revenue_cents", "sum(cents_count)": "n_orders"})
    years = mt.groupby("y", as_index=False)[["revenue_cents", "n_orders"]].sum()
    years["m"] = 0
    total = pd.DataFrame(
        {"y": [0], "m": [0], "revenue_cents": [mt["revenue_cents"].sum()],
         "n_orders": [mt["n_orders"].sum()]}
    )
    out = pd.concat([mt, years, total], ignore_index=True)[
        ["y", "m", "revenue_cents", "n_orders"]
    ]
    return out.astype({"y": np.int64, "m": np.int64,
                       "revenue_cents": np.int64, "n_orders": np.int64})


SQL_ROLLUP = """
SELECT coalesce(y, 0) AS y, coalesce(m, 0) AS m,
       cast(sum(cents) AS BIGINT) AS revenue_cents,
       cast(count(*) AS BIGINT)   AS n_orders
FROM (
  SELECT year(o_orderdate) AS y, month(o_orderdate) AS m,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders
)
GROUP BY ROLLUP (y, m)
"""


# =====================================================================
# CUBE: all four grouping sets of (year, priority)
# =====================================================================

def q_cube_revenue(sf_dir: str):
    """GROUP BY CUBE (year, o_orderpriority): the finest grouping set
    is the only pass over base data (per-batch partials → one small
    ``groupby`` exchange); the (year), (priority) and grand-total sets
    re-aggregate that bounded table on the driver — the standard OLAP
    cube execution (coarser sets derive from finer, never a second
    base scan). Sentinels: 0 for rolled-up year, 'ALL' for rolled-up
    priority (NULL-free value-hash). Each o_totalprice is rounded to
    integer cents BEFORE summation, so every level is an associative
    int64 sum — partitioning-independent and hash-exact vs DuckDB."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def _part(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "y": pc.cast(pc.year(batch.column("o_orderdate")), pa.int64()),
                "o_orderpriority": batch.column("o_orderpriority"),
                "cents": _i64_away(batch.column("o_totalprice"), 100.0),
            }
        )
        return t.group_by(["y", "o_orderpriority"]).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )

    finest = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby(["y", "o_orderpriority"])
        .aggregate(Sum("cents_sum"), Sum("cents_count"))
        .to_pandas()  # bounded: |years| × |priorities| rows
        .rename(
            columns={
                "sum(cents_sum)": "revenue_cents",
                "sum(cents_count)": "n_orders",
            }
        )
    )
    by_y = finest.groupby("y", as_index=False)[["revenue_cents", "n_orders"]].sum()
    by_y["o_orderpriority"] = "ALL"
    by_p = finest.groupby("o_orderpriority", as_index=False)[
        ["revenue_cents", "n_orders"]
    ].sum()
    by_p["y"] = 0
    total = pd.DataFrame(
        {
            "y": [0],
            "o_orderpriority": ["ALL"],
            "revenue_cents": [finest["revenue_cents"].sum()],
            "n_orders": [finest["n_orders"].sum()],
        }
    )
    out = pd.concat([finest, by_y, by_p, total], ignore_index=True)[
        ["y", "o_orderpriority", "revenue_cents", "n_orders"]
    ]
    return out.astype(
        {"y": np.int64, "revenue_cents": np.int64, "n_orders": np.int64}
    )


SQL_CUBE = """
SELECT coalesce(y, 0) AS y,
       coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       cast(sum(cents) AS BIGINT) AS revenue_cents,
       cast(count(*) AS BIGINT)   AS n_orders
FROM (
  SELECT year(o_orderdate) AS y, o_orderpriority,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders
)
GROUP BY CUBE (y, o_orderpriority)
"""


# =====================================================================
# Month-over-month growth: LAG over the bounded monthly aggregate
# =====================================================================

def q_mom_growth(sf_dir: str):
    """Monthly revenue with the previous month's value and the exact
    integer growth rate (e6 grain) — the LAG window pattern. The only
    base-data pass is the monthly partial aggregate; the lag itself
    runs on the driver over the bounded (#months) table, which is the
    right altitude for a calendar-keyed window (at 100 TB the month
    table is still tiny). Growth uses TRUNCATING division mirroring
    DuckDB's integer ``//`` (toward zero — Python's floors, so the
    sign-split is explicit); first month emits sentinel 0s. cur-prev
    × 1e6 stays well inside int64 for cents-scale monthly sums (the
    int128 escape hatch is DuckDB-style HUGEINT partials, documented
    not needed at this grain)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def _part(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        t = pa.table(
            {
                "y": pc.cast(pc.year(d), pa.int64()),
                "m": pc.cast(pc.month(d), pa.int64()),
                "cents": _i64_away(batch.column("o_totalprice"), 100.0),
            }
        )
        return t.group_by(["y", "m"]).aggregate([("cents", "sum")])

    months = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby(["y", "m"])
        .aggregate(Sum("cents_sum"))
        .to_pandas()  # bounded: one row per calendar month
        .rename(columns={"sum(cents_sum)": "revenue_cents"})
        .sort_values(["y", "m"])
        .reset_index(drop=True)
    )
    cur = months["revenue_cents"].to_numpy(dtype=np.int64)
    prev = np.concatenate([[0], cur[:-1]])
    # Python-int arithmetic: 1e6 * monthly cents wraps numpy int64 at
    # ~9.2e12 cents/month (promo_e6 ADVICE r4); one row per month, so
    # exact bigints cost nothing. Truncation toward zero matches the
    # DuckDB // twin for signed diffs.
    growth = np.array(
        [
            (abs(1_000_000 * (int(c) - int(p))) // int(p))
            * (1 if c >= p else -1)
            if p > 0
            else 0
            for c, p in zip(cur, prev)
        ],
        np.int64,
    )
    months["prev_cents"] = prev
    months["growth_e6"] = growth.astype(np.int64)
    return months[["y", "m", "revenue_cents", "prev_cents", "growth_e6"]].astype(
        {"y": np.int64, "m": np.int64}
    )


SQL_MOM_GROWTH = """
WITH monthly AS (
  SELECT year(o_orderdate) AS y, month(o_orderdate) AS m,
         cast(sum(cast(round(o_totalprice * 100, 0) AS BIGINT)) AS BIGINT)
             AS revenue_cents
  FROM orders GROUP BY 1, 2),
lagged AS (
  SELECT y, m, revenue_cents,
         coalesce(lag(revenue_cents) OVER (ORDER BY y, m), 0) AS prev_cents
  FROM monthly)
SELECT y, m, revenue_cents, prev_cents,
       CASE WHEN prev_cents > 0
            THEN cast(((revenue_cents - prev_cents) * 1000000)
                      // prev_cents AS BIGINT)
            ELSE 0 END AS growth_e6
FROM lagged
"""


# =====================================================================
# Top-k WITH TIES (rank() <= k): threshold broadcast, two passes
# =====================================================================

_TIES_K = 10


def q_topk_with_ties(sf_dir: str):
    """Orders with ``rank() <= 10`` by price — top-k INCLUDING ties
    (``WITH TIES`` / rank semantics: a row qualifies iff fewer than k
    rows are strictly richer, i.e. cents >= the k-th largest value
    counting multiplicity). Distributed shape: per-batch partial top-k
    VALUES (k int64s per batch) → driver picks the global k-th →
    threshold broadcast → one streaming filter pass. No sort exchange,
    no limit-with-ties operator needed."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def _partial_top(batch: pa.Table) -> pa.Table:
        c = _i64_away_np(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False), 100.0
        )
        top = np.sort(c)[-_TIES_K:]
        return pa.table({"cents": pa.array(top, pa.int64())})

    cand = (
        ds.map_batches(_partial_top, batch_format="pyarrow")
        .to_pandas()["cents"]  # bounded: k per batch
        .to_numpy()
    )
    v_k = np.sort(cand)[-_TIES_K]  # k-th largest with multiplicity

    def _gate(batch: pa.Table, v=int(v_k)) -> pa.Table:
        c = _i64_away(batch.column("o_totalprice"), 100.0)
        keep = pc.greater_equal(c, v)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "cents": c,
            }
        ).filter(keep)

    return ds.map_batches(_gate, batch_format="pyarrow")


SQL_TOPK_TIES = f"""
WITH ranked AS (
  SELECT o_orderkey,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents,
         rank() OVER (ORDER BY cast(round(o_totalprice * 100, 0) AS BIGINT)
                      DESC) AS r
  FROM orders)
SELECT o_orderkey, cents FROM ranked WHERE r <= {_TIES_K}
"""


# =====================================================================
# Percent of total: two-level aggregate + scalar broadcast
# =====================================================================

def q_percent_of_total(sf_dir: str):
    """Revenue share per order priority (e6 grain) — the
    ``sum() OVER ()`` percent-of-total window as one grouped partial
    aggregate plus a broadcast scalar: the per-group sums ARE the
    total (summed on the driver over the bounded group table), so no
    second pass over base data exists. Shares use trunc-toward-zero
    integer division mirroring DuckDB ``//`` (all values positive
    here, so floor == trunc — noted because mom_growth's negatives
    need the explicit sign split)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def _part(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "cents": _i64_away(batch.column("o_totalprice"), 100.0),
            }
        )
        return t.group_by("o_orderpriority").aggregate([("cents", "sum")])

    g = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("cents_sum"))
        .to_pandas()  # bounded: one row per priority
        .rename(columns={"sum(cents_sum)": "revenue_cents"})
    )
    total = int(g["revenue_cents"].sum())
    # Python-int multiply: per-priority cents * 1e6 wraps numpy int64
    # at ~9.2e12 cents (promo_e6 ADVICE r4); one row per priority.
    g["share_e6"] = [
        (1_000_000 * int(c)) // total for c in g["revenue_cents"]
    ]
    return g[["o_orderpriority", "revenue_cents", "share_e6"]].astype(
        {"revenue_cents": np.int64, "share_e6": np.int64}
    )


SQL_PERCENT_TOTAL = """
WITH g AS (
  SELECT o_orderpriority,
         cast(sum(cast(round(o_totalprice * 100, 0) AS BIGINT)) AS BIGINT)
             AS revenue_cents
  FROM orders GROUP BY o_orderpriority)
SELECT o_orderpriority, revenue_cents,
       cast((revenue_cents * 1000000)
            // (SELECT sum(revenue_cents) FROM g) AS BIGINT) AS share_e6
FROM g
"""


# =====================================================================
# Gaps and islands: maximal runs of consecutive active days per user
# =====================================================================

def q_gap_islands(sf_dir: str):
    """Per-user activity ISLANDS — maximal runs of consecutive active
    days — via the classic ``day − dense-row-number`` grouping idiom
    (gaps-and-islands; public SQL folklore, Ben-Gan's formulation).
    Distributed shape: per-batch distinct (user, epoch-day) partials →
    ONE ``groupby(user_id)`` exchange carrying two int64s per active
    day → per-group vectorized island split (np.diff on the sorted
    unique days). Integer epoch days end-to-end."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def _days(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = us // 86_400_000_000
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        key = np.unique(uid * (1 << 20) | day)  # batch-local distinct
        return pa.table(
            {
                "user_id": pa.array(key >> 20, pa.int64()),
                "day": pa.array(key & ((1 << 20) - 1), pa.int64()),
            }
        )

    def _islands_shard(g: pd.DataFrame) -> pd.DataFrame:
        # ONE vectorized pass per SHARD: dedupe (user, day), sort, cut
        # where the user changes or a >1-day gap appears; islands are
        # the runs between cuts
        d = g.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], kind="mergesort"
        )
        u = d["user_id"].to_numpy(np.int64)
        days = d["day"].to_numpy(np.int64)
        if not len(d):
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "start_day": pd.Series([], dtype=np.int64),
                    "end_day": pd.Series([], dtype=np.int64),
                    "n_days": pd.Series([], dtype=np.int64),
                }
            )
        new = np.ones(len(d), dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | (days[1:] - days[:-1] > 1)
        last = np.flatnonzero(np.append(new[1:], True))
        starts = days[new]
        ends = days[last]
        return pd.DataFrame(
            {
                "user_id": u[new],
                "start_day": starts,
                "end_day": ends,
                "n_days": ends - starts + 1,
            }
        )

    from .relational import _schema_guard, _user_shard

    return _schema_guard(
        ds.map_batches(_days, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_islands_shard, batch_format="pandas"),
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("start_day", pa.int64()),
                ("end_day", pa.int64()),
                ("n_days", pa.int64()),
            ]
        ),
    )


SQL_GAP_ISLANDS = """
WITH d AS (
  SELECT DISTINCT user_id,
         epoch_us(cast(ts AS TIMESTAMP)) // 86400000000 AS day
  FROM events),
t AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day)
             AS grp
  FROM d)
SELECT user_id,
       cast(min(day) AS BIGINT) AS start_day,
       cast(max(day) AS BIGINT) AS end_day,
       cast(max(day) - min(day) + 1 AS BIGINT) AS n_days
FROM t GROUP BY user_id, grp
"""


# =====================================================================
# Pareto front: distributed 2-D maxima via local-prune + refine
# =====================================================================

def _pareto_2d(df: pd.DataFrame) -> pd.DataFrame:
    """Non-dominated rows of (cents, d) maximizing BOTH (dominance is
    >= on both with one strict; exact duplicates coexist). Classic 2-D
    maxima sweep: within a cents group only max-d rows can survive,
    and the group survives iff its max d exceeds the best d among all
    STRICTLY richer groups."""
    gs = df.groupby("cents")["d"].max().sort_index(ascending=False)
    best_higher = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(gs.to_numpy())[:-1]]
    )
    alive = gs[gs.to_numpy() > best_higher]  # cents → surviving max d
    md = df["cents"].map(alive)              # NaN where the group is dead
    keep = md.notna().to_numpy() & (df["d"].to_numpy() == md.to_numpy())
    return df[keep]


def q_pareto_front(sf_dir: str):
    """Orders on the (price, recency) Pareto front — the skyline /
    maxima operator (public idiom: Börzsönyi et al. ICDE'01 skyline;
    the distributed shape is LOCAL-PRUNE → REFINE: every globally
    non-dominated point is also non-dominated within its block, so a
    per-batch 2-D maxima sweep yields a bounded candidate superset
    — O(front size × #blocks) — and one driver-side sweep over the
    survivors is exact). No exchange at all: the wide work is the
    embarrassingly parallel local prune."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])

    def _local(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_orderkey": batch.column("o_orderkey").to_numpy(
                    zero_copy_only=False
                ),
                "cents": _i64_away_np(
                    batch.column("o_totalprice").to_numpy(zero_copy_only=False),
                    100.0,
                ),
                "d": pc.cast(batch.column("o_orderdate"), pa.int64())
                .to_numpy(zero_copy_only=False),  # epoch micros
            }
        )
        return pa.Table.from_pandas(_pareto_2d(df), preserve_index=False)

    cand = ds.map_batches(_local, batch_format="pyarrow").to_pandas()
    front = _pareto_2d(cand).sort_values("o_orderkey").reset_index(drop=True)
    front["o_orderdate"] = pd.to_datetime(front["d"], unit="us")
    return front[["o_orderkey", "cents", "o_orderdate"]].astype(
        {"o_orderkey": np.int64, "cents": np.int64}
    )


SQL_PARETO = """
WITH o AS (
  SELECT o_orderkey,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents,
         o_orderdate
  FROM orders)
SELECT a.o_orderkey, a.cents, a.o_orderdate
FROM o a
WHERE NOT EXISTS (
  SELECT 1 FROM o b
  WHERE b.cents >= a.cents AND b.o_orderdate >= a.o_orderdate
    AND (b.cents > a.cents OR b.o_orderdate > a.o_orderdate))
"""


# =====================================================================
# PIVOT: per-user event counts, one column per event_type
# =====================================================================

def _event_types(sf_dir: str) -> list[str]:
    """Distinct types from a pruned distributed pass (small result)."""
    from ray.data.aggregate import Count

    t = (
        _read(sf_dir, "events", ["event_type"])
        .groupby("event_type")
        .aggregate(Count())
        .to_pandas()
    )
    return sorted(t["event_type"])


def q_pivot_events(sf_dir: str):
    from ray.data.aggregate import Sum

    types = _event_types(sf_dir)
    cols = [f"n_{t}" for t in types]
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def _part(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["user_id"], df["event_type"])
        ct = ct.reindex(columns=types, fill_value=0)
        ct.columns = cols
        return ct.reset_index().astype(np.int64)

    partials = ds.map_batches(_part, batch_format="pandas")
    agg = partials.groupby("user_id").aggregate(*[Sum(c) for c in cols])

    def _fin(t: pa.Table) -> pa.Table:
        data = {"user_id": t.column("user_id")}
        total = None
        for c in cols:
            col = pc.cast(t.column(f"sum({c})"), pa.int64())
            data[c] = col
            total = col if total is None else pc.add(total, col)
        data["n_total"] = total
        return pa.table(data)

    return agg.map_batches(_fin, batch_format="pyarrow")


def sql_pivot(sf_dir: str) -> str:
    import duckdb

    con = duckdb.connect()
    types = sorted(
        r[0]
        for r in con.execute(
            f"SELECT DISTINCT event_type FROM read_parquet('{sf_dir}/events.parquet')"
        ).fetchall()
    )
    con.close()
    parts = ",\n       ".join(
        f"cast(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT) AS n_{t}"
        for t in types
    )
    return f"""
SELECT user_id,
       {parts},
       cast(count(*) AS BIGINT) AS n_total
FROM events GROUP BY user_id
"""


# =====================================================================
# Set operations: INTERSECT / EXCEPT as one flagged groupby
# =====================================================================

_SETOP_THRESHOLD = 200.0


def _setop_flags(sf_dir: str):
    """(user_id, has_a, has_b) — one shuffle serves both INTERSECT and
    EXCEPT. Side A: purchase > thr; side B: error > thr."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def _flags(df: pd.DataFrame) -> pd.DataFrame:
        hot = df[df["value"] > _SETOP_THRESHOLD]
        a = set(hot.loc[hot["event_type"] == "purchase", "user_id"])
        b = set(hot.loc[hot["event_type"] == "error", "user_id"])
        users = sorted(a | b)
        return pd.DataFrame(
            {
                "user_id": np.array(users, dtype=np.int64),
                "has_a": np.array([u in a for u in users], dtype=np.int64),
                "has_b": np.array([u in b for u in users], dtype=np.int64),
            }
        )

    return ds.map_batches(_flags, batch_format="pandas").groupby("user_id").aggregate(
        Max("has_a"), Max("has_b")
    )


def q_users_intersect(sf_dir: str):
    agg = _setop_flags(sf_dir)
    return agg.filter(
        lambda r: r["max(has_a)"] == 1 and r["max(has_b)"] == 1
    ).select_columns(["user_id"])


def q_users_except(sf_dir: str):
    agg = _setop_flags(sf_dir)
    return agg.filter(
        lambda r: r["max(has_a)"] == 1 and r["max(has_b)"] == 0
    ).select_columns(["user_id"])


SQL_USERS_INTERSECT = f"""
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > {_SETOP_THRESHOLD}
INTERSECT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'error' AND value > {_SETOP_THRESHOLD}
"""

SQL_USERS_EXCEPT = f"""
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > {_SETOP_THRESHOLD}
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'error' AND value > {_SETOP_THRESHOLD}
"""


# =====================================================================
# Full outer join: tagged union → one groupby cogroup
# =====================================================================

def q_full_outer_daily(sf_dir: str):
    """Daily order counts for URGENT vs HIGH priority, full-outer on
    the date: each side tagged with a sentinel for the other side's
    column, unioned, then ONE groupby(d) with Max folds rows — the
    big-big-safe full outer (no broadcast, no driver merge). Sides are
    pre-aggregated so keys are unique per side and Max(-1, n) = n."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def _part(batch: pa.Table) -> pa.Table:
        pri = batch.column("o_orderpriority")
        sel = pc.or_(pc.equal(pri, "1-URGENT"), pc.equal(pri, "2-HIGH"))
        t = batch.filter(sel)
        d = pc.strftime(t.column("o_orderdate"), format="%Y-%m-%d")
        urgent = pc.cast(pc.equal(t.column("o_orderpriority"), "1-URGENT"), pa.int64())
        tt = pa.table(
            {"d": d, "n_a": urgent, "n_b": pc.subtract(pa.scalar(1, pa.int64()), urgent)}
        )
        return tt.group_by("d").aggregate([("n_a", "sum"), ("n_b", "sum")])

    daily = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("d")
        .aggregate(Sum("n_a_sum"), Sum("n_b_sum"))
    )
    # tagged-union cogroup shape: re-tag each side with the other
    # side's sentinel, union, fold with Max. Here both sides came out
    # of one pass, so the union is expressed as the per-side sentinel
    # substitution (count 0 on a side means "absent from that side").
    def _fin(t: pa.Table) -> pa.Table:
        na = pc.cast(t.column("sum(n_a_sum)"), pa.int64())
        nb = pc.cast(t.column("sum(n_b_sum)"), pa.int64())
        return pa.table(
            {
                "d": t.column("d"),
                "n_urgent": pc.if_else(pc.equal(na, 0), pa.scalar(-1, pa.int64()), na),
                "n_high": pc.if_else(pc.equal(nb, 0), pa.scalar(-1, pa.int64()), nb),
            }
        )

    return daily.map_batches(_fin, batch_format="pyarrow")


SQL_FULL_OUTER = """
WITH a AS (
  SELECT strftime(o_orderdate, '%Y-%m-%d') AS d, cast(count(*) AS BIGINT) AS n
  FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY 1
),
b AS (
  SELECT strftime(o_orderdate, '%Y-%m-%d') AS d, cast(count(*) AS BIGINT) AS n
  FROM orders WHERE o_orderpriority = '2-HIGH' GROUP BY 1
)
SELECT coalesce(a.d, b.d) AS d,
       coalesce(a.n, -1) AS n_urgent,
       coalesce(b.n, -1) AS n_high
FROM a FULL OUTER JOIN b ON a.d = b.d
"""


# =====================================================================
# Interpolated percentiles (quantile_cont convention)
# =====================================================================

def q_percentile_value(sf_dir: str):
    """DuckDB quantile_cont: position p = q*(n-1), lower = floor(p),
    value = v[lo] + (p-lo)*(v[lo+1]-v[lo]) — mirrored on identical
    sorted doubles (probed formula; exact-equality covered by the
    driver hash at two sf tiers)."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _q(group: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(group["value"].to_numpy(dtype=np.float64))
        n = len(v)

        def cont(q: float) -> float:
            p = q * (n - 1)
            lo = int(math.floor(p))
            hi = min(lo + 1, n - 1)
            return v[lo] + (p - lo) * (v[hi] - v[lo])

        return pd.DataFrame(
            {
                "event_type": [group["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "p10_e4": _i64_away_np([cont(0.1)], scale=1e4),
                "p50_e4": _i64_away_np([cont(0.5)], scale=1e4),
                "p90_e4": _i64_away_np([cont(0.9)], scale=1e4),
            }
        )

    return ds.groupby("event_type").map_groups(_q, batch_format="pandas")


SQL_PERCENTILE = """
SELECT event_type,
       cast(count(*) AS BIGINT) AS n,
       cast(round(quantile_cont(value, 0.1) * 10000, 0) AS BIGINT) AS p10_e4,
       cast(round(quantile_cont(value, 0.5) * 10000, 0) AS BIGINT) AS p50_e4,
       cast(round(quantile_cont(value, 0.9) * 10000, 0) AS BIGINT) AS p90_e4
FROM events GROUP BY event_type
"""


# =====================================================================
# Bloom-prefiltered semi-join (sketch-based scale path for R6/R7)
# =====================================================================

_BLOOM_PSIZE = 48


def q_semi_join_bloom(sf_dir: str):
    """lineitem ⋉ part(p_size ≥ 48) with a Bloom prefilter: the build
    side reduces to a 128 KiB bit array (per-batch partials OR-merged,
    driver payload = #batches × 128 KiB), broadcast once; the probe
    side drops definite non-members vectorized, and only the ~1%-FP
    survivor stream is verified exactly. Here the exact verify is a
    broadcast key set (build side is small); at a scale where it
    isn't, the survivors go through the shuffle semi-join that
    ``hash_join`` demonstrates — the bloom stage still prunes ~94% of
    probe rows before that exchange."""
    from ..functions import sketch

    part = _read(sf_dir, "part", ["p_partkey", "p_size"]).filter(
        expr=f"p_size >= {_BLOOM_PSIZE}"
    )

    def _bloom_batch(batch: pa.Table) -> pa.Table:
        bits = sketch.bloom_partial(batch.column("p_partkey").to_numpy())
        return pa.table({"bits": pa.array([bits], pa.list_(pa.uint8(), len(bits)))})

    partials = part.map_batches(_bloom_batch, batch_format="pyarrow").take_all()
    bits = sketch.bloom_merge(
        [np.asarray(row["bits"], dtype=np.uint8) for row in partials]
    )
    keys = part.select_columns(["p_partkey"]).to_pandas()["p_partkey"].to_numpy()
    bits_ref = ray.put(bits)
    keys_ref = ray.put(np.sort(keys))

    def _probe(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        pk = batch.column("l_partkey").to_numpy()
        maybe = sketch.bloom_contains(b, pk)
        survivors = batch.filter(pa.array(maybe))
        ks = ray.get(keys_ref)
        exact = np.isin(survivors.column("l_partkey").to_numpy(), ks, assume_unique=False)
        return survivors.filter(pa.array(exact))

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_linenumber"])
    return ds.map_batches(_probe, batch_format="pyarrow")


SQL_SEMI_JOIN_BLOOM = f"""
SELECT l_orderkey, l_partkey, l_linenumber FROM lineitem
WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_size >= {_BLOOM_PSIZE})
"""


# =====================================================================
# Approximate quantiles via the mergeable log-binned histogram
# (rows-only: approximate by design; error bound asserted in tests)
# =====================================================================

def q_approx_quantiles(sf_dir: str):
    from ..functions import sketch

    ds = _read(sf_dir, "events", ["event_type", "value"])

    n_bins = sketch.QH_BINS + 1

    def _part(df: pd.DataFrame) -> pa.Table:
        rows = []
        for t, g in df.groupby("event_type", sort=False):
            rows.append((t, sketch.qh_partial(g["value"].to_numpy())))
        flat = (
            np.concatenate([r[1] for r in rows])
            if rows
            else np.zeros(0, dtype=np.int64)
        )
        return pa.table(
            {
                "event_type": pa.array([r[0] for r in rows], pa.string()),
                "counts": pa.FixedSizeListArray.from_arrays(
                    pa.array(flat, pa.int64()), n_bins
                ),
            }
        )

    def _fin(g: pd.DataFrame) -> pd.DataFrame:
        counts = sketch.qh_merge([np.asarray(c, dtype=np.int64) for c in g["counts"]])
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n": np.array([counts.sum()], dtype=np.int64),
                "p50_approx": [sketch.qh_quantile(counts, 0.5)],
                "p90_approx": [sketch.qh_quantile(counts, 0.9)],
                "p99_approx": [sketch.qh_quantile(counts, 0.99)],
            }
        )

    return (
        ds.map_batches(_part, batch_format="pandas")
        .groupby("event_type")
        .map_groups(_fin, batch_format="pandas")
    )


# =====================================================================
# Two-sample KS drift: distribution monitoring between event splits
# =====================================================================

_KS_SHARD_WIDTH = 8.0  # value units per range shard (monotone sharding)


def q_ks_drift(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov statistic between the ``value``
    distributions of two event populations (even vs odd event_id — the
    deterministic stand-in for "yesterday's traffic vs today's") — the
    drift monitor a production pipeline runs per batch of ingested
    data. Emits one row: (n_a, n_b, ks_e6).

    Distributed shape (the pack_budget ordered-scan pattern over a
    VALUE range): per-batch per-value count partials → one
    ``groupby(value)`` merge (ties must collapse before the CDF — KS
    evaluates the ECDF after all ties at a point) → range-shard by
    ``floor(value/width)`` (monotone, so shard order = value order);
    per-shard count totals reduce to driver prefix offsets (bounded by
    shard count) → broadcast → per-shard sorted cumsum gives exact
    global ECDFs, per-shard max |ΔECDF| → tiny final max. At scale the
    per-value table is bounded by value-space granularity; quantize
    values into fixed bins first when the domain is dense."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "value": batch.column("value").to_numpy(
                    zero_copy_only=False
                ),
                "ga": (
                    batch.column("event_id").to_numpy(zero_copy_only=False)
                    % 2
                    == 0
                ).astype("int64"),
            }
        )
        g = df.groupby("value", sort=False)["ga"].agg(["sum", "size"])
        na = g["sum"].to_numpy()
        return pa.table(
            {
                "value": pa.array(g.index.to_numpy(), pa.float64()),
                "na": pa.array(na, pa.int64()),
                "nb": pa.array(g["size"].to_numpy() - na, pa.int64()),
            }
        )

    merged = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("value")
        .aggregate(Sum("na", alias_name="na"), Sum("nb", alias_name="nb"))
        .materialize()  # bounded by distinct values; reused twice
    )

    def _shardify(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "shard", pa.array(np.floor(v / _KS_SHARD_WIDTH).astype("int64"))
        )

    sharded = merged.map_batches(_shardify, batch_format="pyarrow")
    shard_sums = (
        sharded.select_columns(["shard", "na", "nb"])
        .groupby("shard")
        .aggregate(Sum("na", alias_name="ta"), Sum("nb", alias_name="tb"))
        .take_all()
    )  # shard-count rows only
    offs: dict[int, tuple[int, int]] = {}
    ca = cb = 0
    for r in sorted(shard_sums, key=lambda r: r["shard"]):
        offs[r["shard"]] = (ca, cb)
        ca += r["ta"]
        cb += r["tb"]
    tot_a, tot_b = float(ca), float(cb)
    offs_ref = ray.put(offs)

    def _shard_max(group: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(offs_ref)
        g = group.sort_values("value")
        oa, ob = o[int(g["shard"].iloc[0])]
        cum_a = oa + g["na"].cumsum().to_numpy()
        cum_b = ob + g["nb"].cumsum().to_numpy()
        d = np.abs(cum_a / tot_a - cum_b / tot_b)
        return pd.DataFrame({"dmax": [float(d.max())]})

    shard_maxes = (
        sharded.groupby("shard")
        .map_groups(_shard_max, batch_format="pandas")
        .take_all()
    )  # shard-count rows only
    ks = max(r["dmax"] for r in shard_maxes)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_a": pa.array([int(tot_a)], pa.int64()),
                "n_b": pa.array([int(tot_b)], pa.int64()),
                "ks_e6": pa.array(
                    _i64_away_np(np.array([ks]), 1e6), pa.int64()
                ),
            }
        )
    )


SQL_KS_DRIFT = """
WITH pts AS (
    SELECT value, CASE WHEN event_id % 2 = 0 THEN 1 ELSE 0 END AS ga
    FROM events),
m AS (SELECT value,
             cast(sum(ga) AS BIGINT) AS na,
             cast(sum(1 - ga) AS BIGINT) AS nb
      FROM pts GROUP BY value),
tot AS (SELECT cast(sum(na) AS DOUBLE) AS ta,
               cast(sum(nb) AS DOUBLE) AS tb FROM m),
cum AS (SELECT value,
               sum(na) OVER (ORDER BY value) AS ca,
               sum(nb) OVER (ORDER BY value) AS cb
        FROM m)
SELECT cast(t.ta AS BIGINT) AS n_a,
       cast(t.tb AS BIGINT) AS n_b,
       cast(round(max(abs(cast(ca AS DOUBLE) / t.ta
                          - cast(cb AS DOUBLE) / t.tb)) * 1000000, 0)
            AS BIGINT) AS ks_e6
FROM cum CROSS JOIN tot t
GROUP BY t.ta, t.tb
"""


# =====================================================================
# First/last event per user (argmin + argmax in ONE exchange)
# =====================================================================


def _fl_encode(t: pa.Table) -> pa.Table:
    """Per-batch partial: one (user, min-key, max-key, count) row per
    user per batch. The composite key is fixed-width
    ``ts_us(20) | event_id(12) | event_type`` so LEXICOGRAPHIC
    min/max = (ts, event_id)-ordered argmin/argmax with a fully
    deterministic tie-break, and the payload (the type) rides along —
    the same composite-sort-key trick as ``training_prep``'s dedup
    keeper. All zero-padded formatting is C-level numpy, no per-row
    Python."""
    us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
    eid = t.column("event_id").to_numpy()
    et = t.column("event_type").to_numpy(zero_copy_only=False)
    key = (
        pd.Series(np.char.zfill(us.astype("U20"), 20))
        + "|"
        + pd.Series(np.char.zfill(eid.astype("U12"), 12))
        + "|"
        + pd.Series(et)
    )
    df = pd.DataFrame({"user_id": t.column("user_id").to_numpy(), "key": key})
    g = df.groupby("user_id", sort=False)["key"].agg(["min", "max", "size"]).reset_index()
    return pa.table(
        {
            "user_id": pa.array(g["user_id"].to_numpy(), pa.int64()),
            "kmin": pa.array(g["min"], pa.string()),
            "kmax": pa.array(g["max"], pa.string()),
            "n": pa.array(g["size"].to_numpy(), pa.int64()),
        }
    )


def q_first_last_events(sf_dir: str):
    """Each user's first and last event (timestamp, event id, type)
    plus their event count — the user-journey-endpoints query, and
    the single-exchange argmin+argmax pattern: per-batch partial
    min/max over a composite key, one ``groupby(user_id)`` carrying
    two short strings + a count per user per batch, vectorized decode
    after the exchange. No window functions, no sort, no second
    pass."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    agg = (
        ds.map_batches(_fl_encode, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("kmin"), Max("kmax"), Sum("n"))
    )

    def _decode(t: pa.Table) -> pa.Table:
        kmin = pd.Series(t.column("min(kmin)").to_numpy(zero_copy_only=False))
        kmax = pd.Series(t.column("max(kmax)").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "n_events": pc.cast(t.column("sum(n)"), pa.int64()),
                "first_ts_us": pa.array(
                    kmin.str.slice(0, 20).astype(np.int64), pa.int64()
                ),
                "first_event": pa.array(
                    kmin.str.slice(21, 33).astype(np.int64), pa.int64()
                ),
                "first_type": pa.array(kmin.str.slice(34), pa.string()),
                "last_ts_us": pa.array(
                    kmax.str.slice(0, 20).astype(np.int64), pa.int64()
                ),
                "last_event": pa.array(
                    kmax.str.slice(21, 33).astype(np.int64), pa.int64()
                ),
                "last_type": pa.array(kmax.str.slice(34), pa.string()),
            }
        )

    return agg.map_batches(_decode, batch_format="pyarrow")


SQL_FIRST_LAST = """
WITH k AS (
  SELECT user_id,
         printf('%020d|%012d|%s', epoch_us(ts), event_id, event_type) AS key
  FROM events
)
SELECT user_id,
       cast(count(*) AS BIGINT) AS n_events,
       cast(substr(min(key), 1, 20) AS BIGINT)  AS first_ts_us,
       cast(substr(min(key), 22, 12) AS BIGINT) AS first_event,
       substr(min(key), 35)                     AS first_type,
       cast(substr(max(key), 1, 20) AS BIGINT)  AS last_ts_us,
       cast(substr(max(key), 22, 12) AS BIGINT) AS last_event,
       substr(max(key), 35)                     AS last_type
FROM k GROUP BY user_id
"""


# =====================================================================
# Week-over-week user retention (cohort analytics over events)
# =====================================================================

_WEEK_US = 604_800_000_000  # 7 days in epoch micros


def _retention_tag(batch: pa.Table) -> pa.Table:
    """Per-batch tagged presence rows. Each distinct (user, week) in
    the batch emits TWO shuffle rows: (u, w, a=1, b=0) — "active in
    w" — and (u, w-1, a=0, b=1) — "this user is active in the week
    AFTER w-1". The downstream Max-aggregate collapses cross-batch
    duplicates, so the batch-local ``drop_duplicates`` is purely a
    payload cut (≤2 rows per (user, week) per batch, never the event
    stream)."""
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
    uw = pd.DataFrame(
        {"user_id": batch.column("user_id").to_numpy(), "week": us // _WEEK_US}
    ).drop_duplicates()
    n = len(uw)
    return pa.table(
        {
            "user_id": pa.array(np.tile(uw["user_id"].to_numpy(), 2), pa.int64()),
            "week": pa.array(
                np.concatenate([uw["week"].to_numpy(), uw["week"].to_numpy() - 1]),
                pa.int64(),
            ),
            "a": pa.array(np.repeat([1, 0], n), pa.int64()),
            "b": pa.array(np.repeat([0, 1], n), pa.int64()),
        }
    )


def q_retention_cohorts(sf_dir: str):
    """Classic cohort retention: for each epoch-week, how many users
    were active, and what fraction of them were also active the
    following week.

    Shape: ONE keyed exchange on (user_id, week) — the tagged-union
    trick turns the self-join ``uw JOIN uw ON week+1`` into a
    Max-aggregate (a row has a=1 if the user was active that week,
    b=1 if active the next), then per-batch partial sums reduce into
    a tiny ``groupby(week)``. Payload is (int64 ×4) per distinct
    (user, week); no event text or values move. The epoch-week is
    integer micros ``// 7 days`` — no calendar library on either
    side, so the oracle mirrors it exactly; the retention ratio is
    the integer half-away form ``(ret*2e6 + act) // (2*act)`` (repo
    rounding convention, ADVICE r2)."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    tagged = ds.map_batches(_retention_tag, batch_format="pyarrow")
    flags = tagged.groupby(["user_id", "week"]).aggregate(Max("a"), Max("b"))

    def _week_partial(t: pa.Table) -> pa.Table:
        a = t.column("max(a)").to_numpy()
        b = t.column("max(b)").to_numpy()
        df = pd.DataFrame(
            {"week": t.column("week").to_numpy(), "act": a, "ret": a & b}
        )
        g = df.groupby("week", sort=False).sum().reset_index()
        return pa.table(
            {
                "week": pa.array(g["week"].to_numpy(), pa.int64()),
                "act": pa.array(g["act"].to_numpy(), pa.int64()),
                "ret": pa.array(g["ret"].to_numpy(), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    weekly = (
        flags.map_batches(_week_partial, batch_format="pyarrow")
        .groupby("week")
        .aggregate(Sum("act"), Sum("ret"))
    )

    def _final(t: pa.Table) -> pa.Table:
        act = t.column("sum(act)").to_numpy()
        ret = t.column("sum(ret)").to_numpy()
        keep = act > 0  # weeks present only as someone's "next week"
        act, ret = act[keep], ret[keep]
        week = t.column("week").to_numpy()[keep]
        return pa.table(
            {
                "week": pa.array(week, pa.int64()),
                "active_users": pa.array(act, pa.int64()),
                "retained_users": pa.array(ret, pa.int64()),
                "retention_e6": pa.array(
                    (ret * 2_000_000 + act) // (2 * act), pa.int64()
                ),
            }
        )

    return weekly.map_batches(_final, batch_format="pyarrow")


SQL_RETENTION = """
WITH uw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week FROM events
),
r AS (
  SELECT a.week AS week,
         cast(count(*) AS BIGINT) AS active,
         cast(count(b.user_id) AS BIGINT) AS retained
  FROM uw a LEFT JOIN uw b
    ON b.user_id = a.user_id AND b.week = a.week + 1
  GROUP BY a.week
)
SELECT week, active AS active_users, retained AS retained_users,
       (retained * 2000000 + active) // (2 * active) AS retention_e6
FROM r
"""


# =====================================================================
# Per-type z-score outlier flagging (two-pass broadcast, integer-exact)
# =====================================================================


def q_anomaly_zscore(sf_dir: str):
    """Flag events whose value is >3 population standard deviations
    from their event_type's mean — the monitoring filter every
    ingestion pipeline runs before training-data admission.

    Two-pass broadcast shape (same as ``oov_rate``): pass 1 reduces
    per-batch integer partials (n, Σx, Σx²) over half-away cents to a
    per-type stats table combined with exact Python ints on the
    driver (bounded: one row per (type, batch)); pass 2 streams the
    events again and flags with NO exchange.

    Integer-exact |z| > 3 without floats: z² = (x·n − Σx)² /
    (n·Σx² − Σx²) so the flag is (x·n − Σx)² > 9·(n·Σx² − (Σx)²).
    The left side would overflow int64 vectorized, so compare
    |x·n − Σx| > isqrt(T) instead — exact because s = isqrt(T) has
    s² ≤ T < (s+1)². DuckDB's HUGEINT does the square directly.
    Scale note: x·n − Σx stays in int64 up to ~10¹² events per type
    at 10⁶-cent values; past that, promote the pass-2 compare to
    object-dtype Python ints (the partials already are)."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def _stat_partial(t: pa.Table) -> pa.Table:
        x = _i64_away_np(t.column("value").to_numpy())
        df = pd.DataFrame({"et": t.column("event_type").to_numpy(zero_copy_only=False)})
        df["n"] = 1
        df["sx"] = x
        df["sxx"] = x * x
        g = df.groupby("et", sort=False).sum().reset_index()
        return pa.table(
            {
                "et": pa.array(g["et"], pa.string()),
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
                "sx": pa.array(g["sx"].to_numpy(), pa.int64()),
                "sxx": pa.array(g["sxx"].to_numpy(), pa.int64()),
            }
        )

    parts = ds.map_batches(_stat_partial, batch_format="pyarrow").take_all()
    stats: dict[str, list[int]] = {}
    for r in parts:  # tiny: one row per (type, batch); Python ints are exact
        s = stats.setdefault(r["et"], [0, 0, 0])
        s[0] += int(r["n"]); s[1] += int(r["sx"]); s[2] += int(r["sxx"])
    thresholds = {}
    for et, (n, sx, sxx) in stats.items():
        t9 = 9 * (n * sxx - sx * sx)
        thresholds[et] = (n, sx, math.isqrt(t9) if t9 > 0 else 0)
    thr_ref = ray.put(thresholds)

    def _flag(t: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        x = _i64_away_np(t.column("value").to_numpy())
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        ns = np.empty(len(x), dtype=np.int64)
        sxs = np.empty(len(x), dtype=np.int64)
        ss = np.empty(len(x), dtype=np.int64)
        for k, (n, sx, s) in thr.items():  # loop over TYPES, not rows
            m = et == k
            ns[m], sxs[m], ss[m] = n, sx, s
        flag = np.abs(x * ns - sxs) > ss
        return pa.table(
            {
                "event_id": pa.array(t.column("event_id").to_numpy()[flag], pa.int64()),
                "event_type": pa.array(et[flag], pa.string()),
                "value_cents": pa.array(x[flag], pa.int64()),
            }
        )

    return ds.map_batches(_flag, batch_format="pyarrow")


SQL_ANOMALY = """
WITH c AS (
  SELECT event_id, event_type, cast(round(value * 100, 0) AS BIGINT) AS x
  FROM events
),
s AS (
  SELECT event_type, count(*) AS n, sum(x) AS sx, sum(x * x) AS sxx
  FROM c GROUP BY event_type
)
SELECT c.event_id, c.event_type, c.x AS value_cents
FROM c JOIN s USING (event_type)
WHERE (c.x * s.n - s.sx) * (c.x * s.n - s.sx) > 9 * (s.n * s.sxx - s.sx * s.sx)
"""


# =====================================================================
# Within-document repetition: top-bigram coverage (Gopher-style filter)
# =====================================================================


def _top_bigram_stats(batch: pa.Table) -> pa.Table:
    """Per-document most-frequent-bigram stats — documents are whole
    rows, so this is exact within the batch: NO exchange anywhere in
    the query."""
    txt = pc.replace_substring_regex(batch.column("text"), pattern=_TRIM, replacement="")
    keep = pc.and_(pc.is_valid(txt), pc.not_equal(txt, ""))
    t = batch.filter(keep)
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_bigrams": pa.array([], pa.int64()),
            "top_n": pa.array([], pa.int64()),
            "top_frac_e6": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    txt = pc.replace_substring_regex(t.column("text"), pattern=_TRIM, replacement="")
    toks = pc.split_pattern_regex(txt, pattern=_WS)
    la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    flat = la.flatten().to_pandas().to_numpy()
    offs = np.asarray(la.offsets)
    if len(flat) < 2:
        return empty
    n_toks = np.diff(offs)
    doc_ids = np.repeat(t.column("doc_id").to_numpy(), np.maximum(n_toks - 1, 0))
    valid = np.ones(len(flat) - 1, dtype=bool)
    valid[offs[1:-1] - 1] = False  # last token of a doc pairs into the next doc
    grams = pd.Series(flat[:-1])[valid] + " " + pd.Series(flat[1:])[valid]
    df = pd.DataFrame({"doc_id": doc_ids, "g": grams.to_numpy()})
    top = (
        df.groupby(["doc_id", "g"], sort=False)
        .size()
        .groupby(level=0)
        .max()
        .reset_index(name="top_n")
    )
    nb = pd.DataFrame(
        {"doc_id": t.column("doc_id").to_numpy(), "n_bigrams": n_toks - 1}
    )
    m = top.merge(nb, on="doc_id")
    tn = m["top_n"].to_numpy().astype(np.int64)
    b = m["n_bigrams"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(m["doc_id"].to_numpy(), pa.int64()),
            "n_bigrams": pa.array(b, pa.int64()),
            "top_n": pa.array(tn, pa.int64()),
            "top_frac_e6": pa.array((tn * 2_000_000 + b) // (2 * b), pa.int64()),
        }
    )


def q_top_ngram_fraction(sf_dir: str):
    """Gopher/MassiveText within-document repetition signal: the
    fraction (e6, integer half-away) of a document's bigrams covered
    by its single most frequent bigram. Documents with <2 tokens have
    no bigrams and are excluded (the SQL twin excludes them
    structurally — ``generate_series(1, 0)`` is empty). Fully
    streaming map-only query: the flattened-offsets bigram machinery
    is shared with ``q_bigram_topk`` above."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_top_bigram_stats, batch_format="pyarrow")


SQL_TOP_NGRAM = r"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'), '\S+') AS toks
  FROM documents
  WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
),
b AS (
  SELECT doc_id, toks[i] || ' ' || toks[i+1] AS g, len(toks) - 1 AS nb
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)
),
c AS (
  SELECT doc_id, nb, count(*) AS n FROM b GROUP BY doc_id, g, nb
)
SELECT doc_id,
       cast(nb AS BIGINT) AS n_bigrams,
       cast(max(n) AS BIGINT) AS top_n,
       cast((max(n) * 2000000 + nb) // (2 * nb) AS BIGINT) AS top_frac_e6
FROM c GROUP BY doc_id, nb
"""


# =====================================================================
# Last-touch attribution (purchase ← most recent prior click ≤ 7 d)
# =====================================================================

_ATTR_WINDOW_US = 7 * 86_400_000_000
_ATTR_SHARDS = 256


def q_attribution(sf_dir: str):
    """Last-touch marketing attribution: each purchase is credited to
    the same user's most recent click STRICTLY BEFORE it (ties at one
    microsecond: the click does not count; among equal-time clicks the
    max event_id wins) and within a 7-day lookback, else the −1
    sentinel — the temporal-credit join that asof_join's nearest-key
    semantics cannot express (it needs per-key running state, not one
    probe).  Users re-key onto a bounded shard (conv-complete per
    user); one sort + segment-cummax per shard does every user's
    forward fill vectorized."""
    from .relational import _read

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def _partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        t = batch.filter(pa.array(keep))
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "shard": pa.array(u % _ATTR_SHARDS),
                "user_id": pa.array(u),
                "us": pc.cast(t.column("ts"), pa.int64()),
                # purchase sorts FIRST at equal us → strict 'before'
                "k": pa.array((et == "click").astype(np.int64)),
                "event_id": pc.cast(t.column("event_id"), pa.int64()),
            }
        )

    def _attr(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(
            ["user_id", "us", "k", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        k = d["k"].to_numpy(np.int64)
        us = d["us"].to_numpy(np.int64)
        eid = d["event_id"].to_numpy(np.int64)
        marker = np.where(k == 1, np.arange(len(d), dtype=np.int64), -1)
        last = (
            pd.Series(marker).groupby(d["user_id"], sort=False).cummax().to_numpy()
        )
        p = np.flatnonzero(k == 0)
        m = last[p]
        ok = m >= 0
        lag_us = np.where(ok, us[p] - us[np.maximum(m, 0)], -1)
        ok &= lag_us <= _ATTR_WINDOW_US
        return pd.DataFrame(
            {
                "purchase_id": eid[p],
                "user_id": d["user_id"].to_numpy(np.int64)[p],
                "click_id": np.where(ok, eid[np.maximum(m, 0)], -1),
                "lag_seconds": np.where(ok, lag_us // 1_000_000, -1),
            }
        )

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_attr, batch_format="pandas")
    )


SQL_ATTRIBUTION = f"""
WITH e AS (
  SELECT cast(event_id AS BIGINT) AS event_id, user_id,
         epoch_us(cast(ts AS TIMESTAMP)) AS us,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS k
  FROM events WHERE event_type IN ('click', 'purchase')),
w AS (
  SELECT *,
    last_value(CASE WHEN k = 1 THEN event_id END IGNORE NULLS) OVER win AS c_id,
    last_value(CASE WHEN k = 1 THEN us END IGNORE NULLS) OVER win AS c_us
  FROM e WINDOW win AS (
    PARTITION BY user_id ORDER BY us, k, event_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
SELECT event_id AS purchase_id, user_id,
       CASE WHEN c_id IS NOT NULL AND us - c_us <= {_ATTR_WINDOW_US}
            THEN c_id ELSE -1 END AS click_id,
       CASE WHEN c_id IS NOT NULL AND us - c_us <= {_ATTR_WINDOW_US}
            THEN (us - c_us) // 1000000 ELSE -1 END AS lag_seconds
FROM w WHERE k = 0
"""


QUERIES = {
    "ks_drift": q_ks_drift,
    "attribution": q_attribution,
    "retention_cohorts": q_retention_cohorts,
    "anomaly_zscore": q_anomaly_zscore,
    "top_ngram_fraction": q_top_ngram_fraction,
    "first_last_events": q_first_last_events,
    "word_topk": q_word_topk,
    "semi_join_bloom": q_semi_join_bloom,
    "approx_quantiles_value": q_approx_quantiles,
    "bigram_topk": q_bigram_topk,
    "tfidf_topk": q_tfidf_topk,
    "corr_stats": q_corr_stats,
    "argmax_events": q_argmax_events,
    "rollup_revenue": q_rollup_revenue,
    "cube_revenue": q_cube_revenue,
    "mom_growth": q_mom_growth,
    "topk_with_ties": q_topk_with_ties,
    "percent_of_total": q_percent_of_total,
    "gap_islands": q_gap_islands,
    "pareto_front": q_pareto_front,
    "pivot_events": q_pivot_events,
    "users_intersect": q_users_intersect,
    "users_except": q_users_except,
    "full_outer_daily": q_full_outer_daily,
    "percentile_value": q_percentile_value,
}

ORACLE_SQL = {
    "ks_drift": SQL_KS_DRIFT,
    "attribution": SQL_ATTRIBUTION,
    "retention_cohorts": SQL_RETENTION,
    "anomaly_zscore": SQL_ANOMALY,
    "top_ngram_fraction": SQL_TOP_NGRAM,
    "first_last_events": SQL_FIRST_LAST,
    "word_topk": SQL_WORD_TOPK,
    "semi_join_bloom": SQL_SEMI_JOIN_BLOOM,
    "bigram_topk": SQL_BIGRAM_TOPK,
    "tfidf_topk": SQL_TFIDF,
    "corr_stats": SQL_CORR,
    "argmax_events": SQL_ARGMAX,
    "rollup_revenue": SQL_ROLLUP,
    "cube_revenue": SQL_CUBE,
    "mom_growth": SQL_MOM_GROWTH,
    "topk_with_ties": SQL_TOPK_TIES,
    "percent_of_total": SQL_PERCENT_TOTAL,
    "gap_islands": SQL_GAP_ISLANDS,
    "pareto_front": SQL_PARETO,
    "users_intersect": SQL_USERS_INTERSECT,
    "users_except": SQL_USERS_EXCEPT,
    "full_outer_daily": SQL_FULL_OUTER,
    "percentile_value": SQL_PERCENTILE,
}


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    """Twins that inspect the data (pivot column set)."""
    return {"pivot_events": sql_pivot(sf_dir)}
