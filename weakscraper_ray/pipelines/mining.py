"""Round-3 mining family: the multi-way join, co-occurrence and
corpus-diagnostic shapes a curation team runs AROUND the extraction
pipeline — each one exercises a composition the other families don't:

- ``regional_revenue``: a 6-table TPC-H-Q5-shape join (two distributed
  hash joins chained with broadcast dims and a same-nation semi
  filter) — the deepest join plan in the repo.
- ``char_stats``: per-document character-histogram quality signals
  (FineWeb-style "weird character" filters), integer-exact and fully
  vectorized via one codepoint pass per batch.
- ``event_pairs``: market-basket co-occurrence of event types within
  sessionized activity (the association-rule input shape).
- ``source_overlap``: cross-source distinct-5-gram overlap matrix —
  the corpus-level "how much do my crawls duplicate each other"
  diagnostic that decides which sources to dedup against which.
- ``event_funnel``: ordered multi-stage funnel (view → click →
  purchase with strictly increasing timestamps per user).
- ``minhash_against_index``: incremental near-dup of a new crawl
  against the corpus — ``dedup_minhash``'s candidate and verify stages
  restricted to cross-half pairs, all on stateless Ray Data tasks.

All six are exact (integer or count outputs; the one money column
follows the repo's `_i64_away` half-away-from-zero contract) and carry
full DuckDB oracle twins.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.exchange import by_shard
from . import relational as _rel
from .relational import (
    _i64_away,
    _minhash_candidates,
    _minhash_verify,
    _p,
    _read,
)

# =====================================================================
# TPC-H Q5 shape: revenue by nation for one region/year, customer and
# supplier required to be in the SAME nation
# =====================================================================

_Q5_REGION = "ASIA"
_Q5_LO = np.datetime64("1996-01-01", "us")
_Q5_HI = np.datetime64("1997-01-01", "us")


def q_regional_revenue(sf_dir: str):
    """Six-table join (region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem
    ⋈ supplier) with the Q5 twist that the supplier must sit in the
    customer's nation — the repo's deepest join plan, composed from
    the two join strategies the engine already proves out separately:

    - region/nation (25 rows) and supplier (10k × SF — small relative
      to lineitem's 6M × SF) ship ONCE as broadcast lookups; supplier
      becomes a dense int64 ``suppkey → nationkey`` array probed with
      one numpy take per batch. If supplier outgrew broadcast, the
      swap-in is a third ``Dataset.join`` — same pattern as below.
    - orders ⋈ customer and (that) ⋈ lineitem are distributed hash
      joins (``Dataset.join``), the large-large path ``hash_join``
      established. Orders are date-filtered and customers
      region-filtered BEFORE the shuffle, so the exchange only moves
      qualifying rows; both joins key on the same already-partitioned
      ``o_orderkey`` stream on the probe side.

    Revenue is summed as float64 partials and rounded once at the end
    (same contract as ``hash_join``/``pricing_summary``)."""
    from ray.data.aggregate import Sum

    nation = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(_p(sf_dir, "region"))
    rkeys = set(
        region.filter(pc.equal(region.column("r_name"), _Q5_REGION))
        .column("r_regionkey").to_pylist()
    )
    in_region = pc.is_in(
        nation.column("n_regionkey"),
        value_set=pa.array(sorted(rkeys), pa.int32()),
    )
    nat = nation.filter(in_region)
    nation_keys = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nation_names = nat.column("n_name").to_pylist()

    sup = pq.read_table(_p(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    s_keys = sup.column("s_suppkey").to_numpy()
    s_nat = np.full(int(s_keys.max()) + 1, -1, dtype=np.int64)
    s_nat[s_keys] = sup.column("s_nationkey").to_numpy()
    sup_ref = ray.put(s_nat)  # broadcast once, read per actor below

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def _ofilter(t: pa.Table) -> pa.Table:
        ts = t.column("o_orderdate")
        keep = pc.and_(
            pc.greater_equal(ts, pa.scalar(_Q5_LO.item(), pa.timestamp("us"))),
            pc.less(ts, pa.scalar(_Q5_HI.item(), pa.timestamp("us"))),
        )
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = orders.map_batches(_ofilter, batch_format="pyarrow")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nk_set = pa.array(sorted(nation_keys.tolist()), pa.int32())
    cust = cust.map_batches(
        lambda t: t.filter(pc.is_in(t.column("c_nationkey"), value_set=nk_set)),
        batch_format="pyarrow",
    )

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    nparts = max(2, ncpu // 2)
    oc = orders.join(
        cust,
        join_type="inner",
        num_partitions=nparts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    j = li.join(
        oc,
        join_type="inner",
        num_partitions=nparts,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    class _SameNationPartial:
        """Actor holding the broadcast supplier→nation array; per batch
        one numpy take + equality mask + Arrow partial aggregate."""

        def __init__(self, sup_ref):
            self.s_nat = ray.get(sup_ref) if isinstance(
                sup_ref, ray.ObjectRef) else sup_ref

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {"c_nationkey": pa.array([], pa.int64()),
                     "rev": pa.array([], pa.float64())}
                )
            sk = t.column("l_suppkey").to_numpy()
            snat = self.s_nat[sk]
            cnat = t.column("c_nationkey").to_numpy(zero_copy_only=False)
            keep = pa.array(snat == cnat.astype(np.int64))
            f = t.filter(keep)
            rev = pc.multiply(
                f.column("l_extendedprice"),
                pc.subtract(1.0, f.column("l_discount")),
            )
            part = pa.table(
                {"c_nationkey": pc.cast(f.column("c_nationkey"), pa.int64()),
                 "rev": rev}
            )
            return part.group_by("c_nationkey").aggregate(
                [("rev", "sum")]
            ).rename_columns(["c_nationkey", "rev"])

    partials = j.map_batches(
        _SameNationPartial,
        fn_constructor_kwargs=dict(sup_ref=sup_ref),
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    agg = partials.groupby("c_nationkey").aggregate(Sum("rev"))

    name_keys = pa.array(nation_keys, pa.int64())
    name_vals = pa.array(nation_names, pa.string())

    def _name(t: pa.Table) -> pa.Table:
        idx = pc.index_in(pc.cast(t.column("c_nationkey"), pa.int64()),
                          value_set=name_keys)
        return pa.table(
            {"n_name": pc.take(name_vals, idx),
             "revenue_cents": _i64_away(t.column("sum(rev)"))}
        )

    return agg.map_batches(_name, batch_format="pyarrow")


SQL_REGIONAL_REVENUE = f"""
SELECT n.n_name,
       cast(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100, 0)
            AS BIGINT) AS revenue_cents
FROM customer c
JOIN orders o    ON c.c_custkey = o.o_custkey
JOIN lineitem l  ON l.l_orderkey = o.o_orderkey
JOIN supplier s  ON l.l_suppkey = s.s_suppkey
                AND s.s_nationkey = c.c_nationkey
JOIN nation n    ON c.c_nationkey = n.n_nationkey
JOIN region r    ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = '{_Q5_REGION}'
  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n.n_name
"""


# =====================================================================
# Per-document character-histogram stats (integer-exact)
# =====================================================================

def _char_stats_batch(batch: pa.Table) -> pa.Table:
    """One vectorized codepoint pass per batch: texts are joined into a
    single buffer, decoded to uint32 codepoints via utf-32, and the
    per-(row, char) histogram comes from ONE ``np.unique`` over a
    composite ``row << 21 | codepoint`` key (codepoints < 0x110000 <
    2^21). No per-row Python beyond the join."""
    texts = pc.fill_null(batch.column("text"), "")
    n = batch.num_rows
    lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)
    joined = "".join(texts.to_pylist())
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    key = (rows << 21) | cp
    uk, cnt = np.unique(key, return_counts=True)
    urow = uk >> 21
    distinct = np.bincount(urow, minlength=n)
    top = np.zeros(n, dtype=np.int64)
    np.maximum.at(top, urow, cnt)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "total_chars": pa.array(lens, pa.int64()),
            "distinct_chars": pa.array(distinct.astype(np.int64), pa.int64()),
            "top_char_count": pa.array(top, pa.int64()),
        }
    )


def q_char_stats(sf_dir: str):
    """Character-level quality signals per document: total codepoints,
    distinct codepoints, and the modal character's count (the
    max-char-fraction numerator of FineWeb-style weird-text filters).
    Map-only — no exchange; all-integer outputs so the oracle is
    float-free."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_char_stats_batch, batch_format="pyarrow")


#: string_split(s, '') yields [''] (one empty element) for s = '', so
#: empty/NULL texts are excluded from the CTE and re-joined as zeros.
SQL_CHAR_STATS = """
WITH per AS (
    SELECT doc_id, c, count(*) AS n FROM (
        SELECT doc_id, unnest(string_split(text, '')) AS c
        FROM documents WHERE coalesce(text, '') <> ''
    ) GROUP BY doc_id, c
), agg AS (
    SELECT doc_id,
           cast(sum(n) AS BIGINT)   AS tot,
           cast(count(*) AS BIGINT) AS dc,
           cast(max(n) AS BIGINT)   AS mx
    FROM per GROUP BY doc_id
)
SELECT d.doc_id,
       cast(coalesce(a.tot, 0) AS BIGINT) AS total_chars,
       cast(coalesce(a.dc, 0) AS BIGINT)  AS distinct_chars,
       cast(coalesce(a.mx, 0) AS BIGINT)  AS top_char_count
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


# =====================================================================
# Market-basket: event-type co-occurrence within sessions
# =====================================================================

_SESSION_GAP_S = 1800


def q_event_pairs(sf_dir: str):
    """For every unordered pair of event types, in how many sessions do
    both occur? (The association-rule / co-occurrence input.) Sessions
    follow the repo's 30-minute-gap rule (``sessionize``).

    Shape: ONE ``by_shard`` exchange on user_id (the
    pack_conversations lesson — per-user groups are tiny, so the UDF
    runs once per shard and everything inside is C-level pandas), a
    per-shard distinct (session, type) self-merge bounded by the tiny
    type vocabulary, then a final groupby over ≤ |types|² rows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def _pairs(shard: pd.DataFrame) -> pd.DataFrame:
        g = shard.sort_values(["user_id", "ts", "event_id"])
        gap = g.groupby("user_id", sort=False)["ts"].diff().dt.total_seconds()
        new_sess = (gap > _SESSION_GAP_S) | gap.isna()
        g["sid"] = new_sess.cumsum()  # globally unique within the shard
        d = g[["sid", "event_type"]].drop_duplicates()
        m = d.merge(d, on="sid")
        m = m[m["event_type_x"] < m["event_type_y"]]
        out = (
            m.groupby(["event_type_x", "event_type_y"], sort=False)
            .size().reset_index(name="n")
        )
        return out.rename(
            columns={"event_type_x": "type_a", "event_type_y": "type_b"}
        )

    tagged = by_shard(
        ds, "user_id", _pairs,
        pa.schema(
            [("type_a", pa.string()), ("type_b", pa.string()), ("n", pa.int64())]
        ),
    )
    agg = tagged.groupby(["type_a", "type_b"]).aggregate(Sum("n"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "type_a": t.column("type_a"),
                "type_b": t.column("type_b"),
                "n_sessions": pc.cast(t.column("sum(n)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_EVENT_PAIRS = f"""
WITH s AS (
    SELECT user_id, event_type,
           sum(CASE WHEN gap > {_SESSION_GAP_S} THEN 1 ELSE 0 END) OVER (
               PARTITION BY user_id ORDER BY ts, event_id) AS sid
    FROM (
        SELECT user_id, event_type, ts, event_id,
               epoch(ts) - lag(epoch(ts)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id) AS gap
        FROM events)
), d AS (SELECT DISTINCT user_id, sid, event_type FROM s)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       cast(count(*) AS BIGINT) AS n_sessions
FROM d a JOIN d b
  ON a.user_id = b.user_id AND a.sid = b.sid
 AND a.event_type < b.event_type
GROUP BY 1, 2
"""


# =====================================================================
# Cross-source n-gram overlap matrix (corpus diagnostics)
# =====================================================================

_OVL_K = 5


def q_source_overlap(sf_dir: str):
    """For every pair of sources, how many distinct 5-grams occur in
    BOTH — the corpus-level duplication diagnostic that tells a
    curation team which crawls/snapshots overlap enough to dedup
    jointly. Gram construction is the same tokenizer as
    ``dup_ngram_fraction``/the MinHash CTE, so the SQL twin is exact.

    Shape: per-batch distinct (gram, source) pairs (a doc lives in one
    row, so batch-local distinct is a valid partial) → ONE
    ``by_shard`` exchange on the gram → per-shard global dedup + a
    self-merge per gram bounded by the source vocabulary (20 here;
    pairs/gram ≤ C(|sources|,2)) emitting per-shard pair counts →
    final groupby over ≤ |sources|² rows. At 100 TB the gram string
    would be a 64-bit hash (same scale note as dup_ngram_fraction —
    the string key keeps the oracle exact at test scale)."""
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    k = _OVL_K

    def _grams(batch: pa.Table) -> pa.Table:
        rows, toks = _explode_tokens(batch)
        src = batch.column("source").to_pandas().to_numpy()
        empty = pa.table(
            {
                "gram": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
            }
        )
        if len(toks) < k:
            return empty
        valid = rows[: -(k - 1)] == rows[k - 1 :]
        gram = toks[: -(k - 1)].astype(object)
        for j in range(1, k):
            gram = gram + " " + toks[j : len(toks) - (k - 1) + j].astype(object)
        df = pd.DataFrame(
            {"gram": gram[valid], "source": src[rows[: -(k - 1)][valid]]}
        ).drop_duplicates()
        if df.empty:
            return empty
        return pa.table(
            {
                "gram": pa.array(df["gram"].to_numpy(), pa.string()),
                "source": pa.array(df["source"].to_numpy(), pa.string()),
            }
        )

    def _pairs(shard: pd.DataFrame) -> pd.DataFrame:
        d = shard[["gram", "source"]].drop_duplicates()
        m = d.merge(d, on="gram")
        m = m[m["source_x"] < m["source_y"]]
        out = (
            m.groupby(["source_x", "source_y"], sort=False)
            .size().reset_index(name="n")
        )
        return out.rename(columns={"source_x": "src_a", "source_y": "src_b"})

    tagged = by_shard(
        ds.map_batches(_grams, batch_format="pyarrow"), "gram", _pairs,
        pa.schema(
            [("src_a", pa.string()), ("src_b", pa.string()), ("n", pa.int64())]
        ),
    )
    agg = tagged.groupby(["src_a", "src_b"]).aggregate(Sum("n"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "src_a": t.column("src_a"),
                "src_b": t.column("src_b"),
                "shared_grams": pc.cast(t.column("sum(n)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_SOURCE_OVERLAP = rf"""
WITH d AS (
    SELECT source,
           list_filter(
               string_split_regex(lower(coalesce(text, '')), '\s+'),
               x -> x <> '') AS ws
    FROM documents),
g AS (
    SELECT DISTINCT source,
           unnest(list_distinct(list_transform(
               range(1, len(ws) - {_OVL_K - 2}),
               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
                    ws[i+3] || ' ' || ws[i+4]))) AS gram
    FROM d)
SELECT a.source AS src_a, b.source AS src_b,
       cast(count(*) AS BIGINT) AS shared_grams
FROM g a JOIN g b ON a.gram = b.gram AND a.source < b.source
GROUP BY 1, 2
"""


# =====================================================================
# Ordered funnel: view → click → purchase, strictly increasing ts
# =====================================================================

def q_event_funnel(sf_dir: str):
    """Classic ordered funnel: per user, stage 1 is the first 'view',
    stage 2 the first 'click' strictly after it, stage 3 the first
    'purchase' strictly after that; output is users reached per stage.
    ONE ``by_shard`` exchange on user_id; within a shard the three
    stage times come from C-level pandas groupby-mins + merges (no
    per-user UDF), and each shard emits 3 partial-count rows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def _funnel(shard: pd.DataFrame) -> pd.DataFrame:
        t1 = (
            shard[shard["event_type"] == "view"]
            .groupby("user_id")["ts"].min().rename("t1").reset_index()
        )
        c = shard[shard["event_type"] == "click"].merge(t1, on="user_id")
        t2 = (
            c[c["ts"] > c["t1"]]
            .groupby("user_id")["ts"].min().rename("t2").reset_index()
        )
        p = shard[shard["event_type"] == "purchase"].merge(t2, on="user_id")
        n3 = p.loc[p["ts"] > p["t2"], "user_id"].nunique()
        return pd.DataFrame(
            {
                "stage": ["1_view", "2_click", "3_purchase"],
                "n": np.array([len(t1), len(t2), n3], dtype=np.int64),
            }
        )

    partials = by_shard(
        ds, "user_id", _funnel,
        pa.schema([("stage", pa.string()), ("n", pa.int64())]),
    )
    agg = partials.groupby("stage").aggregate(Sum("n"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "stage": t.column("stage"),
                "n_users": pc.cast(t.column("sum(n)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_EVENT_FUNNEL = """
WITH s1 AS (
    SELECT user_id, min(ts) AS t1 FROM events
    WHERE event_type = 'view' GROUP BY user_id
), s2 AS (
    SELECT e.user_id, min(e.ts) AS t2
    FROM events e JOIN s1 USING (user_id)
    WHERE e.event_type = 'click' AND e.ts > s1.t1
    GROUP BY e.user_id
), s3 AS (
    SELECT e.user_id FROM events e JOIN s2 USING (user_id)
    WHERE e.event_type = 'purchase' AND e.ts > s2.t2
    GROUP BY e.user_id
)
SELECT '1_view' AS stage, cast(count(*) AS BIGINT) AS n_users FROM s1
UNION ALL
SELECT '2_click', cast(count(*) AS BIGINT) FROM s2
UNION ALL
SELECT '3_purchase', cast(count(*) AS BIGINT) FROM s3
"""


# =====================================================================
# Predicate pushdown at the scan (row-group pruning)
# =====================================================================

_PUSH_LO = "1996-03-01"
_PUSH_HI = "1996-04-01"


def q_pushdown_scan(sf_dir: str):
    """Monthly shipping summary where the row filter is pushed INTO the
    parquet scan (``read_parquet(filter=...)`` → pyarrow dataset
    scanner): row groups whose ``l_shipdate`` statistics fall outside
    the month never leave storage, and non-qualifying rows inside
    surviving groups are dropped by the scanner before the block is
    even built — the "prune at the read" contract, demonstrated
    explicitly (every other query prunes columns; this one also prunes
    rows at the source). Downstream is one partial-agg exchange."""
    import datetime as _dt

    import pyarrow.dataset as pds
    from ray.data.aggregate import Sum

    lo = _dt.datetime.fromisoformat(_PUSH_LO)
    hi = _dt.datetime.fromisoformat(_PUSH_HI)
    flt = (pds.field("l_shipdate") >= pa.scalar(lo, pa.timestamp("us"))) & (
        pds.field("l_shipdate") < pa.scalar(hi, pa.timestamp("us"))
    )
    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice", "l_shipdate"],
        **{"filter": flt},
    )

    def _partial(t: pa.Table) -> pa.Table:
        part = pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "qty": t.column("l_quantity"),
                "price": t.column("l_extendedprice"),
            }
        )
        g = part.group_by("l_returnflag").aggregate(
            [("qty", "sum"), ("price", "sum"), ("qty", "count")]
        )
        return g.rename_columns(["l_returnflag", "qty_sum", "price_sum", "n"])

    agg = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "l_returnflag"
    ).aggregate(Sum("qty_sum"), Sum("price_sum"), Sum("n"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "sum_qty": _i64_away(t.column("sum(qty_sum)"), 1.0),
                "sum_price_cents": _i64_away(t.column("sum(price_sum)")),
                "n_items": pc.cast(t.column("sum(n)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_PUSHDOWN_SCAN = f"""
SELECT l_returnflag,
       cast(round(sum(l_quantity), 0) AS BIGINT)             AS sum_qty,
       cast(round(sum(l_extendedprice) * 100, 0) AS BIGINT)  AS sum_price_cents,
       cast(count(*) AS BIGINT)                              AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{_PUSH_LO}' AND l_shipdate < TIMESTAMP '{_PUSH_HI}'
GROUP BY l_returnflag
"""


# =====================================================================
# Composite curation pipeline: lang → quality → gate → exact dedup
# =====================================================================

_CUR_MIN_SCORE = 700_000
_CUR_MIN_TOKENS = 20


class _CurateStage:
    """Fused per-batch curation pass: language-ID + quality features +
    threshold gate + content hash, ONE streaming stage (the three
    stages share the batch instead of re-reading the corpus three
    times). Regexes/tables build once per actor. Emits only kept rows,
    already reduced to (content_hash, composite payload key) so the
    dedup exchange carries no text."""

    def __init__(self):
        from ..functions.text import LangId, QualityScore

        self.lang = LangId()
        self.qual = QualityScore()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.dedup import content_hash_batch

        lang_t = self.lang(batch)       # aligned: (doc_id, lang_pred)
        qual_t = self.qual(batch)       # aligned: (doc_id, ..., score)
        lang = lang_t.column("lang_pred")
        score = qual_t.column("quality_score_e6")
        ntok = qual_t.column("n_tokens")
        keep = pc.and_(
            pc.and_(
                pc.equal(lang, "en"),
                pc.greater_equal(score, _CUR_MIN_SCORE),
            ),
            pc.greater_equal(ntok, _CUR_MIN_TOKENS),
        )
        kept = batch.filter(keep)
        hashed = content_hash_batch(kept)
        doc = kept.column("doc_id").to_numpy()
        ntk = ntok.filter(keep).to_numpy()
        sc = score.filter(keep).to_numpy()
        lg = lang.filter(keep).to_pylist()
        # fixed-width composite key: doc_id(12) | n_tokens(10) |
        # score(10) | lang — Min over the string IS argmin by doc_id
        # with the payload riding along (first_last_events pattern)
        key = [
            f"{d:012d}{t:010d}{s:010d}{l}"
            for d, t, s, l in zip(doc, ntk, sc, lg)
        ]
        return pa.table(
            {
                "content_hash": hashed.column("content_hash"),
                "key": pa.array(key, pa.string()),
            }
        )


def q_curation_prep(sf_dir: str):
    """End-to-end curation composite over ``documents`` (the documents
    twin of the flagship's ``training_prep``): language-ID → quality
    scoring → fixed gates (en, score ≥ 0.7, ≥ 20 tokens) → exact dedup
    keeping the smallest doc_id per content hash. ONE streaming fused
    map stage + ONE groupby(content_hash) Min exchange carrying
    (md5, 35-byte key) per kept doc — the driver verifies the chain,
    not just each member."""
    from ray.data.aggregate import Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    kept = ds.map_batches(_CurateStage, batch_format="pyarrow",
                          concurrency=(1, 4))
    agg = kept.groupby("content_hash").aggregate(Min("key"))

    def _decode(t: pa.Table) -> pa.Table:
        k = t.column("min(key)")
        return pa.table(
            {
                "doc_id": pc.cast(
                    pc.utf8_slice_codeunits(k, 0, 12), pa.int64()
                ),
                "n_tokens": pc.cast(
                    pc.utf8_slice_codeunits(k, 12, 22), pa.int64()
                ),
                "quality_score_e6": pc.cast(
                    pc.utf8_slice_codeunits(k, 22, 32), pa.int64()
                ),
                "lang_pred": pc.utf8_slice_codeunits(k, 32, 99),
            }
        )

    return agg.map_batches(_decode, batch_format="pyarrow")


def _sql_curation_prep() -> str:
    from .relational import _sql_lang_id, _sql_quality

    return f"""
WITH l AS ({_sql_lang_id()}), q AS ({_sql_quality()}),
kept AS (
    SELECT d.doc_id, d.text, l.lang_pred, q.n_tokens, q.quality_score_e6
    FROM documents d JOIN l USING (doc_id) JOIN q USING (doc_id)
    WHERE l.lang_pred = 'en'
      AND q.quality_score_e6 >= {_CUR_MIN_SCORE}
      AND q.n_tokens >= {_CUR_MIN_TOKENS}
),
keepers AS (
    SELECT min(doc_id) AS doc_id FROM kept GROUP BY md5(coalesce(text, ''))
)
SELECT k.doc_id, cast(k.n_tokens AS BIGINT) AS n_tokens,
       k.quality_score_e6, k.lang_pred
FROM kept k JOIN keepers USING (doc_id)
"""


# =====================================================================
# Incremental near-dup: new crawl vs the corpus (cross-half LSH pairs)
# =====================================================================

def q_minhash_against_index(sf_dir: str, _chaos_hook=None):
    """Incremental NEAR-dup: today's crawl against yesterday's corpus —
    the near-dup sibling of ``dedup_against_index`` (which is
    exact-hash only).

    Same deterministic stand-in (corpus = even doc_ids, incoming =
    odd). The candidate stage is ``dedup_minhash``'s
    (:func:`~.relational._minhash_candidates`: minhash(64, 3-gram) →
    16-band explode → bucket pairs per band-hash shard → distinct
    pairs); this query keeps only the cross-half candidates, orients
    each as (old even, new odd) and verifies them with the same gated
    integer 3-gram-Jaccard rule (:func:`~.relational._minhash_verify`).
    So the result is exactly the cross-half subset of
    ``dedup_minhash``, and the oracle is the all-pairs cross-half
    Jaccard SQL. Every stage is a stateless Ray Data task, so worker
    loss is covered by task retries (lineage) and no index state exists
    to lose. ``_chaos_hook()`` is the fault-injection seam: it runs
    inside the cross-half UDF, in the worker."""

    def _cross_half(t: pa.Table) -> pa.Table:
        if _chaos_hook is not None:
            _chaos_hook()
        a = t.column("doc_a").combine_chunks().cast(pa.int64())
        b = t.column("doc_b").combine_chunks().cast(pa.int64())
        a_even = pc.equal(pc.bit_wise_and(a, 1), 0)
        cross = pc.xor(a_even, pc.equal(pc.bit_wise_and(b, 1), 0))
        return pa.table(
            {
                "doc_a": pc.if_else(a_even, a, b).filter(cross),
                "doc_b": pc.if_else(a_even, b, a).filter(cross),
            }
        )

    cand = _minhash_candidates(_read(sf_dir, "documents", ["doc_id", "text"]))
    return _minhash_verify(
        cand.map_batches(_cross_half, batch_format="pyarrow"), sf_dir
    )


def _sql_minhash_against_index() -> str:
    from .relational import _SQL_MINHASH_CTES

    return f"""
WITH {_SQL_MINHASH_CTES},
xp AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM sh a JOIN sh b
    ON a.doc_id % 2 = 0 AND b.doc_id % 2 = 1
  WHERE len(a.s) + len(b.s) > 0
    AND 3 * len(list_intersect(a.s, b.s)) >= len(a.s) + len(b.s)
)
SELECT doc_a, doc_b FROM xp
"""


# =====================================================================
# Salted join: skew-resilient large⋈small exchange join
# =====================================================================

#: salt fan-out (power of 2: the fact-side salt is a bit-mask, this
#: pyarrow has no pc.mod)
_SALT = 8


def q_salted_join(sf_dir: str):
    """lineitem ⋈ supplier with a SALTED key — the standard hot-key
    mitigation for shuffle joins (public idiom: "salting" / skew-join
    handling in every distributed SQL engine). A hot supplier key
    would put its entire fact partition on one aggregator; here the
    fact side gets ``salt = l_linenumber & (S-1)`` (deterministic, no
    RNG) and the SMALL side is replicated ×S with every salt value, so
    each hot key's rows spread over S partitions while the join result
    is IDENTICAL to the unsalted join — which is exactly what the
    DuckDB oracle computes (plain join, no salt): the salt must be
    invisible in the answer, and the hash check enforces that.

    Scale: replication cost is S × |small side| (suppliers are ~1e-4
    of lineitems in TPC-H-shape data); the post-join per-nation
    aggregate is partial-first, so the second exchange carries ≤
    |nations| × S rows."""
    from ray.data.aggregate import Sum

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    li = _read(
        sf_dir, "lineitem",
        ["l_suppkey", "l_linenumber", "l_extendedprice", "l_discount"],
    )

    def _replicate(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out = pa.concat_tables([t] * _SALT)
        salt = np.repeat(np.arange(_SALT, dtype=np.int64), n)
        return out.append_column("salt", pa.array(salt))

    sup_salted = sup.map_batches(_replicate, batch_format="pyarrow")

    def _salt_fact(t: pa.Table) -> pa.Table:
        salt = pc.bit_wise_and(
            pc.cast(t.column("l_linenumber"), pa.int64()), _SALT - 1
        )
        return pa.table(
            {
                "l_suppkey": t.column("l_suppkey"),
                "salt": salt,
                "l_extendedprice": t.column("l_extendedprice"),
                "l_discount": t.column("l_discount"),
            }
        )

    fact = li.map_batches(_salt_fact, batch_format="pyarrow")
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    j = fact.join(
        sup_salted,
        join_type="inner",
        num_partitions=max(2, ncpu // 2),
        on=("l_suppkey", "salt"),
        right_on=("s_suppkey", "salt"),
    )

    def _partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(1.0, batch.column("l_discount")),
        )
        t = pa.table({"s_nationkey": batch.column("s_nationkey"), "rev": rev})
        return t.group_by("s_nationkey").aggregate(
            [("rev", "sum"), ("rev", "count")]
        )

    agg = (
        j.map_batches(_partial, batch_format="pyarrow")
        .groupby("s_nationkey")
        .aggregate(Sum("rev_sum"), Sum("rev_count"))
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "s_nationkey": pc.cast(t.column("s_nationkey"), pa.int64()),
                "revenue_cents": _rel._i64_away(t.column("sum(rev_sum)")),
                "n_items": pc.cast(t.column("sum(rev_count)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_SALTED_JOIN = """
SELECT cast(s.s_nationkey AS BIGINT) AS s_nationkey,
       cast(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100, 0)
            AS BIGINT) AS revenue_cents,
       cast(count(*) AS BIGINT) AS n_items
FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
GROUP BY s.s_nationkey
"""


# =====================================================================
# Cross join: broadcast cartesian product (completes the join matrix)
# =====================================================================

def q_cross_join_regions(sf_dir: str):
    """nation × region cartesian product — CROSS JOIN as a broadcast
    flat-map: the small side (regions) is collected once (5 rows) and
    every nation batch emits |batch| × |regions| rows locally. No
    exchange: a cross join against a bounded side never needs one (the
    unbounded×unbounded case has no scalable answer by definition and
    is deliberately not offered)."""
    regions = (
        _read(sf_dir, "region", ["r_regionkey", "r_name"])
        .to_pandas()
        .sort_values("r_regionkey")
    )
    r_keys = regions["r_regionkey"].to_numpy(dtype=np.int64)
    r_names = regions["r_name"].to_numpy()
    nr = len(r_keys)

    ds = _read(sf_dir, "nation", ["n_nationkey", "n_name"])

    def _cross(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        nk = batch.column("n_nationkey").to_numpy(zero_copy_only=False)
        nn = batch.column("n_name").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_nationkey": pa.array(
                    np.repeat(nk.astype(np.int64), nr), pa.int64()
                ),
                "n_name": pa.array(np.repeat(nn, nr)),
                "r_regionkey": pa.array(np.tile(r_keys, n), pa.int64()),
                "r_name": pa.array(np.tile(r_names, n)),
            }
        )

    return ds.map_batches(_cross, batch_format="pyarrow")


SQL_CROSS_JOIN = """
SELECT cast(n.n_nationkey AS BIGINT) AS n_nationkey, n.n_name,
       cast(r.r_regionkey AS BIGINT) AS r_regionkey, r.r_name
FROM nation n CROSS JOIN region r
"""


# =====================================================================
# Hive-partitioned scan: directory-level partition pruning
# =====================================================================

_HIVE_LANG = "en"


def _hive_docs_dir(sf_dir: str) -> str:
    """One-time fixture prep: documents re-written hive-partitioned by
    ``lang`` (lang=en/, lang=de/, ... directories) via Ray's
    distributed ``write_parquet(partition_cols=...)``. Cached per sf
    tier under /tmp with a done-marker — the prep is plumbing, the
    OPERATOR under test is the pruned read below."""
    import os

    tag = os.path.basename(sf_dir.rstrip("/"))
    root = f"/tmp/ws_hive/documents-{tag}"
    marker = os.path.join(root, "_DONE")
    if not os.path.exists(marker):
        ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
        ds.write_parquet(root, partition_cols=["lang"])
        with open(marker, "w") as f:
            f.write("ok")
    return root


def q_hive_partition_scan(sf_dir: str):
    """Per-source doc counts within ONE language — read from a
    hive-partitioned layout with the partition filter applied at the
    PATH level (``PathPartitionFilter`` over ``lang=*/`` directories):
    only the matching partition's files are even opened — the other
    languages' bytes never leave storage. This is the layer ABOVE
    ``pushdown_scan``'s row-group pruning — at 100 TB, partition
    layout is the first and cheapest pruning lever (prune at the
    read, per the repo rule)."""
    from ray.data import read_parquet
    from ray.data.datasource.partitioning import PathPartitionFilter

    root = _hive_docs_dir(sf_dir)
    part_filter = PathPartitionFilter.of(
        lambda kv: kv.get("lang") == _HIVE_LANG, style="hive"
    )
    ds = read_parquet(
        root,
        columns=["doc_id", "source"],
        partition_filter=part_filter,
    )

    def _part(batch: pa.Table) -> pa.Table:
        return batch.group_by("source").aggregate([("doc_id", "count")])

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("doc_id_count"))
        .map_batches(
            lambda t: pa.table(
                {
                    "source": t.column("source"),
                    "n_docs": pc.cast(t.column("sum(doc_id_count)"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


SQL_HIVE_SCAN = f"""
SELECT source, cast(count(*) AS BIGINT) AS n_docs
FROM documents WHERE lang = '{_HIVE_LANG}'
GROUP BY source
"""


# =====================================================================
# UNPIVOT: wide → long (inverse of pivot_events)
# =====================================================================

def q_unpivot_orders(sf_dir: str):
    """orders' numeric measures melted to (o_orderkey, measure, value)
    long form — UNPIVOT as a map-only flat transform (each batch emits
    |batch| × |measures| rows locally; no exchange, the inverse of
    ``pivot_events``'s widen). Values are integer cents / raw ints so
    the melt is hash-exact."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def _melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        cents = _i64_away(batch.column("o_totalprice"), 100.0).to_numpy(
            zero_copy_only=False
        )
        day = (
            pc.cast(batch.column("o_orderdate"), pa.int64())
            .to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        return pa.table(
            {
                "o_orderkey": pa.array(
                    np.concatenate([keys, keys]), pa.int64()
                ),
                "measure": pa.array(
                    ["total_cents"] * n + ["order_day"] * n
                ),
                "value": pa.array(np.concatenate([cents, day])),
            }
        )

    return ds.map_batches(_melt, batch_format="pyarrow")


SQL_UNPIVOT = """
SELECT o_orderkey, measure, value FROM (
  SELECT cast(o_orderkey AS BIGINT) AS o_orderkey,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS total_cents,
         cast(epoch_us(cast(o_orderdate AS TIMESTAMP)) // 86400000000
              AS BIGINT) AS order_day
  FROM orders
) UNPIVOT (value FOR measure IN (total_cents, order_day))
"""


QUERIES = {
    "regional_revenue": q_regional_revenue,
    "salted_join": q_salted_join,
    "cross_join_regions": q_cross_join_regions,
    "hive_partition_scan": q_hive_partition_scan,
    "unpivot_orders": q_unpivot_orders,
    "pushdown_scan": q_pushdown_scan,
    "curation_prep": q_curation_prep,
    "minhash_against_index": q_minhash_against_index,
    "char_stats": q_char_stats,
    "event_pairs": q_event_pairs,
    "source_overlap": q_source_overlap,
    "event_funnel": q_event_funnel,
}

ORACLE_SQL = {
    "regional_revenue": SQL_REGIONAL_REVENUE,
    "salted_join": SQL_SALTED_JOIN,
    "cross_join_regions": SQL_CROSS_JOIN,
    "hive_partition_scan": SQL_HIVE_SCAN,
    "unpivot_orders": SQL_UNPIVOT,
    "pushdown_scan": SQL_PUSHDOWN_SCAN,
    "curation_prep": _sql_curation_prep(),
    "minhash_against_index": _sql_minhash_against_index(),
    "char_stats": SQL_CHAR_STATS,
    "event_pairs": SQL_EVENT_PAIRS,
    "source_overlap": SQL_SOURCE_OVERLAP,
    "event_funnel": SQL_EVENT_FUNNEL,
}
