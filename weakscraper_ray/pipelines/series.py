"""Round-3 continuation #8: interval algebra, regression, cross-doc
span dedup, audit checksums, and equal-frequency binning — each a
``queries()`` entry with a DuckDB oracle twin.

Scale notes (the patterns these queries demonstrate):
- interval coverage: the classic overlapping-interval union. Per-batch
  projection to integer (user, start, end) triples → ONE
  ``groupby(user_id)`` exchange → per-group vectorized sweep
  (lexsort + running max). Integer seconds end-to-end, so the result
  is partitioning-independent and hash-exact vs the window-function
  SQL twin.
- trend slope: grouped OLS (y = a·x + b) from the five classical
  partial sums — same exact-statistics scaffolding as
  ``analytics.q_corr_stats``: int64-safe per-batch partials, Python-int
  exact combine of the tiny partial table, then ONE IEEE-identical
  double expression mirrored op-for-op in SQL over HUGEINT sums.
- substring dedup (cross-document span level — the public Lee et al.
  2022 "Deduplicating Training Data Makes Language Models Better"
  concept, approximated at the k-token-window granularity): per-batch
  (gram, doc, positions) partials → ONE gram-hash shard exchange →
  per-shard C-level merge (pandas groupby, never per-gram Python) →
  ONE bounded ``groupby(doc_id)`` roll-up. At 100 TB the shuffle
  payload should be a uint64 gram hash instead of the gram string
  (same one-line swap as ``mining.source_overlap`` documents); the
  string is kept here so the SQL twin can mirror the decision exactly
  (no hash-collision divergence risk in the correctness gate).
- table checksum: the audit primitive for cross-run/cross-engine data
  validation at scale — an ORDER-INDEPENDENT corpus fingerprint
  (sum of per-row md5-derived uint64s mod a prime-ish modulus), so two
  runs with different partitioning/ordering produce the identical
  value. Map-only + a one-row-per-batch partial reduce; zero shuffle.
- ntile: equal-frequency binning (rank-based quartiles) with DuckDB's
  exact ntile() fill rule (first ``n % k`` buckets get the extra row)
  reproduced closed-form from the 0-indexed rank — deterministic
  (value, event_id) tie order on both sides.

All rounding follows the repo convention (``_i64_away``: DuckDB
``round()`` is half away from zero); integer division that mirrors
DuckDB ``//`` is only applied to non-negative operands here (where
truncation == floor on both sides).
"""

from __future__ import annotations

import hashlib
from zlib import crc32

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.checkpoint import _CHECKSUM_MOD, _checksum_key_partial
from .relational import _i64_away, _i64_away_np, _read, _schema_guard

_US_PER_S = 1_000_000
_US_PER_DAY = 86_400_000_000


# =====================================================================
# Interval coverage: per-user union length of overlapping event
# intervals [ts, ts + max(1, round(value)) seconds)
# =====================================================================

def _iv_partial(batch: pa.Table) -> pa.Table:
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    s = us // _US_PER_S
    dur = np.maximum(1, _i64_away_np(batch.column("value"), 1.0))
    return pa.table(
        {
            "user_id": batch.column("user_id"),
            "s": pa.array(s, pa.int64()),
            "e": pa.array(s + dur, pa.int64()),
        }
    )


def _iv_sweep_shard(g: pd.DataFrame) -> pd.DataFrame:
    # ONE vectorized sweep per SHARD: sort by (user, s, e), per-user
    # running max via C-level grouped cummax, span starts where the
    # user changes or the start lies strictly past every earlier end
    # (s == prev end merges: touching intervals coalesce — mirrors the
    # SQL twin), then per-user sums via one C groupby
    d = g.sort_values(["user_id", "s", "e"], kind="mergesort")
    u = d["user_id"].to_numpy(np.int64)
    s = d["s"].to_numpy(np.int64)
    run = d.groupby("user_id", sort=False)["e"].cummax().to_numpy(np.int64)
    new = np.ones(len(d), dtype=bool)
    if len(d) > 1:
        new[1:] = (u[1:] != u[:-1]) | (s[1:] > run[:-1])
    # span id → (start, end): end = running max at the span's last row
    last = np.flatnonzero(np.append(new[1:], True))
    span_user = u[new]
    span_len = run[last] - s[new]
    agg = pd.DataFrame(
        {"user_id": span_user, "len": span_len,
         "one": np.ones(len(span_user), np.int64)}
    ).groupby("user_id", sort=False).sum()
    return pd.DataFrame(
        {
            "user_id": agg.index.to_numpy(np.int64),
            "covered_s": agg["len"].to_numpy(np.int64),
            "n_spans": agg["one"].to_numpy(np.int64),
        }
    )


def q_interval_coverage(sf_dir: str):
    """Per-user total covered seconds + merged-span count over the
    union of (possibly overlapping) event intervals. One bounded-shard
    exchange carrying three int64s per event; the sweep is one
    vectorized running-max scan per SHARD (UDF calls scale with shard
    count, not user cardinality)."""
    from .relational import _schema_guard, _user_shard

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return _schema_guard(
        ds.map_batches(_iv_partial, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_iv_sweep_shard, batch_format="pandas"),
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("covered_s", pa.int64()),
                ("n_spans", pa.int64()),
            ]
        ),
    )


SQL_INTERVAL_COVERAGE = """
WITH iv AS (
  SELECT user_id,
         epoch_us(cast(ts AS TIMESTAMP)) // 1000000 AS s,
         epoch_us(cast(ts AS TIMESTAMP)) // 1000000
           + greatest(1, cast(round(value, 0) AS BIGINT)) AS e
  FROM events),
m AS (
  SELECT user_id, s, e,
         max(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             AS prev_max
  FROM iv),
g AS (
  SELECT user_id, s, e,
         sum(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY s, e
                   ROWS UNBOUNDED PRECEDING) AS grp
  FROM m),
sp AS (
  SELECT user_id, grp, min(s) AS ss, max(e) AS ee
  FROM g GROUP BY user_id, grp)
SELECT user_id,
       cast(sum(ee - ss) AS BIGINT) AS covered_s,
       cast(count(*) AS BIGINT)     AS n_spans
FROM sp GROUP BY user_id
"""


# =====================================================================
# Grouped OLS trend: value vs epoch-day, per event_type
# =====================================================================

def _ols_partial(batch: pa.Table) -> pa.Table:
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    x = us // _US_PER_DAY  # epoch day: keeps per-row products int64-safe
    y = _i64_away_np(batch.column("value"), 100.0)
    t = pa.table(
        {
            "event_type": batch.column("event_type"),
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "xx": pa.array(x * x, pa.int64()),
            "xy": pa.array(x * y, pa.int64()),
        }
    )
    return t.group_by("event_type").aggregate(
        [("x", "sum"), ("y", "sum"), ("xx", "sum"), ("xy", "sum"), ("x", "count")]
    )


def _ols_final(g: pd.DataFrame) -> pd.DataFrame:
    # Python-int exact combine (partials are int64-safe; their sum may
    # not be) — HUGEINT sums on the DuckDB side.
    n = sum(int(v) for v in g["x_count"])
    sx = sum(int(v) for v in g["x_sum"])
    sy = sum(int(v) for v in g["y_sum"])
    sxx = sum(int(v) for v in g["xx_sum"])
    sxy = sum(int(v) for v in g["xy_sum"])
    den = n * sxx - sx * sx
    if den == 0:  # all events of the type on one day — mirrored WHERE
        return pd.DataFrame(
            {"event_type": [], "n": [], "slope_e6": [], "intercept_e6": []}
        )
    # IEEE-identical mirror of the SQL final expression: int→double
    # conversions and op order match token-for-token.
    slope = float(n * sxy - sx * sy) / float(den)
    intercept = (float(sy) - slope * float(sx)) / float(n)
    return pd.DataFrame(
        {
            "event_type": [g["event_type"].iloc[0]],
            "n": np.array([n], dtype=np.int64),
            "slope_e6": _i64_away_np([slope], scale=1e6),
            "intercept_e6": _i64_away_np([intercept], scale=1e6),
        }
    )


def q_trend_slope(sf_dir: str):
    """Per-type least-squares trend of value-cents over epoch-days:
    the drift monitor next to ``ks_drift``/``anomaly_zscore``. One
    small exchange of 5 partial sums per (batch, type)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    partials = ds.map_batches(_ols_partial, batch_format="pyarrow")
    return partials.groupby("event_type").map_groups(
        _ols_final, batch_format="pandas"
    )


SQL_TREND_SLOPE = """
WITH c AS (
  SELECT event_type,
         epoch_us(cast(ts AS TIMESTAMP)) // 86400000000 AS x,
         cast(round(value * 100, 0) AS BIGINT)           AS y
  FROM events),
s AS (
  SELECT event_type, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*x) AS sxx, sum(x*y) AS sxy
  FROM c GROUP BY event_type)
SELECT event_type, cast(n AS BIGINT) AS n,
       cast(round(cast(n*sxy - sx*sy AS DOUBLE)
                  / cast(n*sxx - sx*sx AS DOUBLE) * 1000000, 0) AS BIGINT)
           AS slope_e6,
       cast(round((cast(sy AS DOUBLE)
                   - cast(n*sxy - sx*sy AS DOUBLE)
                     / cast(n*sxx - sx*sx AS DOUBLE) * cast(sx AS DOUBLE))
                  / cast(n AS DOUBLE) * 1000000, 0) AS BIGINT)
           AS intercept_e6
FROM s WHERE n*sxx - sx*sx <> 0
"""


# =====================================================================
# Cross-document substring (k-token window) dedup signal
# =====================================================================

_GRAM_K = 5
_GRAM_SHARDS = 64


def _gram_partial(batch: pa.Table) -> pa.Table:
    """Per-batch (gram, doc_id, pos) partials — pos is the number of
    window POSITIONS of that gram in that doc (position multiplicity is
    the Lee-et-al unit, so no distinct here). Docs are short (<=100
    words in the sf data), so the per-row window loop is bounded; the
    gram shard id rides along so the exchange needs no second pass."""
    ids, grams = [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        toks = (text or "").lower().split()
        for i in range(len(toks) - (_GRAM_K - 1)):
            ids.append(doc_id)
            grams.append(" ".join(toks[i : i + _GRAM_K]))
    t = pa.table(
        {"gram": pa.array(grams, pa.string()), "doc_id": pa.array(ids, pa.int64())}
    )
    part = t.group_by(["gram", "doc_id"]).aggregate([("doc_id", "count")])
    # no stable Arrow hash kernel in this pyarrow — crc32 is C-speed,
    # deterministic across workers, and 64-shard-balanced
    shard = pa.array(
        [crc32(s.encode()) & (_GRAM_SHARDS - 1) for s in
         part.column("gram").to_pylist()],
        pa.int64(),
    )
    return pa.table(
        {
            "shard": shard,
            "gram": part.column("gram"),
            "doc_id": part.column("doc_id"),
            "pos": pc.cast(part.column("doc_id_count"), pa.int64()),
        }
    )


def _gram_shard_merge(g: pd.DataFrame) -> pd.DataFrame:
    """Within one gram shard (all rows of a gram land together):
    re-merge cross-batch partials, mark grams seen in >=2 distinct
    docs, and roll up to per-doc partial (total, dup) window counts.
    All C-level pandas groupbys — never a per-gram Python loop."""
    m = g.groupby(["gram", "doc_id"], as_index=False)["pos"].sum()
    nd = m.groupby("gram")["doc_id"].transform("nunique")
    m["dup"] = np.where(nd.to_numpy() >= 2, m["pos"].to_numpy(), 0)
    out = m.groupby("doc_id", as_index=False)[["pos", "dup"]].sum()
    return pd.DataFrame(
        {
            "doc_id": out["doc_id"].to_numpy(dtype=np.int64),
            "pos": out["pos"].to_numpy(dtype=np.int64),
            "dup": out["dup"].to_numpy(dtype=np.int64),
        }
    )




def q_substring_dedup(sf_dir: str):
    """Per-document fraction of 5-token window positions whose window
    text also occurs in at least one OTHER document — the span-level
    dedup signal (docs under 5 tokens carry no windows and are
    excluded on both sides)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = ds.map_batches(_gram_partial, batch_format="pyarrow")
    # chained map_groups -> groupby: normalize possibly-schemaless empty
    # blocks between the two exchanges (see relational._schema_guard)
    per_doc = _schema_guard(
        partials.groupby("shard").map_groups(
            _gram_shard_merge, batch_format="pandas"
        ),
        pa.schema([("doc_id", pa.int64()), ("pos", pa.int64()),
                   ("dup", pa.int64())]),
    )
    # per-doc roll-up as a VECTORIZED hash aggregate (two Sums), not
    # one pandas UDF per document; the frac closes in one map
    from ray.data.aggregate import Sum

    agg = per_doc.groupby("doc_id").aggregate(
        Sum("pos", alias_name="n_windows"),
        Sum("dup", alias_name="dup_windows"),
    )

    def _fin(t: pa.Table) -> pa.Table:
        n = t.column("n_windows").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        d = t.column("dup_windows").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "n_windows": pa.array(n),
                "dup_windows": pa.array(d),
                # non-negative operands: trunc (DuckDB //) == floor
                "dup_frac_e6": pa.array((1_000_000 * d) // n),
            }
        )

    return agg.map_batches(_fin, batch_format="pyarrow")


SQL_SUBSTRING_DEDUP = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS w
  FROM documents),
g AS (
  SELECT doc_id,
         array_to_string(w[i : i + 4], ' ') AS gram
  FROM (SELECT doc_id, w, unnest(range(1, len(w) - 3)) AS i
        FROM toks WHERE len(w) >= 5)),
d AS (
  SELECT gram, count(DISTINCT doc_id) AS nd FROM g GROUP BY gram)
SELECT g.doc_id,
       cast(count(*) AS BIGINT) AS n_windows,
       cast(sum(CASE WHEN d.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS dup_windows,
       cast(1000000 * sum(CASE WHEN d.nd >= 2 THEN 1 ELSE 0 END)
            // count(*) AS BIGINT) AS dup_frac_e6
FROM g JOIN d USING (gram)
GROUP BY g.doc_id
"""


# =====================================================================
# Order-independent table checksum (cross-run / cross-engine audit)
# =====================================================================

def _checksum_partial(batch: pa.Table) -> pa.Table:
    key = pc.binary_join_element_wise(
        pc.cast(batch.column("o_orderkey"), pa.string()),
        pc.cast(batch.column("o_custkey"), pa.string()),
        pc.cast(_i64_away(batch.column("o_totalprice"), 100.0), pa.string()),
        "|",
    )
    return _checksum_key_partial(key, batch.num_rows)


def q_table_checksum(sf_dir: str):
    """One-row order-independent fingerprint of the orders table
    (row count + modular sum of per-row md5-derived uint64s over a
    canonical key projection). Two runs with different partitioning,
    block order, or engine produce the identical value — the audit
    primitive for validating a 100 TB copy/migration without a sort.
    Map-only; the partial table is one row per batch."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    pdf = ds.map_batches(_checksum_partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "n_rows": np.array([int(pdf["n"].sum())], dtype=np.int64),
            "checksum": np.array(
                [int(sum(int(v) for v in pdf["part"])) % _CHECKSUM_MOD],
                dtype=np.int64,
            ),
        }
    )


SQL_TABLE_CHECKSUM = """
SELECT cast(count(*) AS BIGINT) AS n_rows,
       cast(sum(cast(md5_number_lower(
                 printf('%d|%d|%d', o_orderkey, o_custkey,
                        cast(round(o_totalprice * 100, 0) AS BIGINT)))
               AS HUGEINT) % 9223372036854775807)
            % 9223372036854775807 AS BIGINT) AS checksum
FROM orders
"""


# =====================================================================
# ntile: equal-frequency quartile assignment per event_type
# =====================================================================

def _ntile_group(g: pd.DataFrame, k: int = 4) -> pd.DataFrame:
    d = g.sort_values(["value", "event_id"], kind="mergesort")
    n = len(d)
    base, rem = divmod(n, k)
    r = np.arange(n)
    cut = rem * (base + 1)
    # DuckDB ntile fill rule: first (n % k) buckets get base+1 rows
    bucket = np.where(
        r < cut, r // (base + 1), rem + (r - cut) // max(base, 1)
    ) + 1
    return pd.DataFrame(
        {
            "event_id": d["event_id"].to_numpy(dtype=np.int64),
            "event_type": d["event_type"].to_numpy(),
            "bucket": bucket.astype(np.int64),
        }
    )


def q_ntile_assign(sf_dir: str):
    """Equal-frequency quartiles of value within each event_type
    (deterministic (value, event_id) tie order). The per-type group is
    the partition unit — at a scale where one type outgrows a worker,
    swap in the exact-threshold gate ``quality_filter_global``
    demonstrates plus a rank exchange."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return ds.groupby("event_type").map_groups(
        _ntile_group, batch_format="pandas"
    )


SQL_NTILE = """
SELECT event_id, event_type,
       cast(ntile(4) OVER (PARTITION BY event_type
                           ORDER BY value, event_id) AS BIGINT) AS bucket
FROM events
"""


# =====================================================================
# Token entropy: Shannon entropy of the within-doc token distribution
# =====================================================================

def _entropy_batch(batch: pa.Table) -> pa.Table:
    """Per-document type-distribution entropy. Each TYPE's term
    −p·log2(p) is quantized to an e9 integer BEFORE the per-doc sum, so
    the sum is order-free on both engines (the float-sum-order hazard
    the quantize-then-sum convention exists for). Map-only."""
    from .curation import _explode_tokens

    rows, toks = _explode_tokens(batch)
    n_tok = np.bincount(rows, minlength=batch.num_rows)
    keep = n_tok > 0
    n_types = np.zeros(batch.num_rows, dtype=np.int64)
    ent = np.zeros(batch.num_rows, dtype=np.float64)
    if len(toks):
        c = (
            pd.DataFrame({"r": rows, "w": toks})
            .groupby(["r", "w"], sort=False)
            .size()
        )
        r_idx = c.index.get_level_values(0).to_numpy()
        cnt = c.to_numpy().astype(np.float64)
        p = cnt / n_tok[r_idx].astype(np.float64)
        term = _i64_away_np(-(p * np.log2(p)), 1e9)  # exact-int per type
        n_types = np.bincount(r_idx, minlength=batch.num_rows).astype(np.int64)
        # integer weights < 2^53: float64 accumulation is exact
        ent = np.bincount(r_idx, weights=term, minlength=batch.num_rows)
    mask = pa.array(keep)
    return pa.table(
        {
            "doc_id": batch.column("doc_id").combine_chunks().filter(mask),
            "n_tokens": pa.array(n_tok[keep].astype(np.int64)),
            "n_types": pa.array(n_types[keep]),
            "entropy_e9": pa.array(ent[keep].astype(np.int64)),
        }
    )


def q_token_entropy(sf_dir: str):
    """Vocabulary-entropy quality signal (low entropy = repetitive /
    template-like text — the information-theoretic sibling of
    ``word_diversity`` and ``compression_signal``). Zero shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_entropy_batch, batch_format="pyarrow")


SQL_TOKEN_ENTROPY = r"""
WITH toks AS (
    SELECT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
c AS (SELECT doc_id, w, count(*) AS c FROM t2 GROUP BY doc_id, w),
n AS (SELECT doc_id, count(*) AS n FROM t2 GROUP BY doc_id)
SELECT doc_id,
       cast(n AS BIGINT)        AS n_tokens,
       cast(count(*) AS BIGINT) AS n_types,
       cast(sum(cast(round(-(cast(c AS DOUBLE) / n
                             * log2(cast(c AS DOUBLE) / n))
                           * 1000000000, 0) AS BIGINT)) AS BIGINT)
           AS entropy_e9
FROM c JOIN n USING (doc_id)
GROUP BY doc_id, n
"""


# =====================================================================
# Key-skew diagnostic: Gini + top-key share of the per-key row counts
# =====================================================================

def q_key_skew(sf_dir: str):
    """Partition-skew diagnostic over events.user_id — the measurement
    that decides whether a key needs salting (``salted_join``) before a
    shuffle. One key-bounded ``groupby(user_id)`` count exchange; the
    Gini/top-share arithmetic runs on the bounded per-key count table
    with exact Python ints and ONE mirrored double division. Σ rank·c
    is invariant under tie permutations, so ordering by count alone is
    deterministic. Partitioning assumption: the KEY CARDINALITY fits
    the driver (events.user_id here). At a cardinality where it
    doesn't, compute the Gini from the quantile-histogram sketch of
    the count distribution instead (the ``approx_quantiles_value``
    machinery) — the diagnostic tolerates approximation; the exact
    path is kept because it is the oracle-checkable one."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["user_id"])
    counts = ds.groupby("user_id").aggregate(Count(alias_name="c")).to_pandas()
    c = np.sort(counts["c"].to_numpy(dtype=np.int64))
    n = len(c)
    tot = int(c.sum())
    s = int((np.arange(1, n + 1, dtype=np.int64) * c).sum())
    gini = float(2 * s - (n + 1) * tot) / float(n * tot)
    top = float(int(c[-1])) / float(tot)
    return pd.DataFrame(
        {
            "n_keys": np.array([n], dtype=np.int64),
            "total": np.array([tot], dtype=np.int64),
            "gini_e6": _i64_away_np([gini], scale=1e6),
            "top_share_e6": _i64_away_np([top], scale=1e6),
        }
    )


SQL_KEY_SKEW = """
WITH c AS (SELECT user_id, count(*) AS c FROM events GROUP BY user_id),
r AS (SELECT c, row_number() OVER (ORDER BY c, user_id) AS i FROM c),
s AS (SELECT count(*) AS n, sum(c) AS tot, sum(i * c) AS s, max(c) AS mx
      FROM r)
SELECT cast(n AS BIGINT)   AS n_keys,
       cast(tot AS BIGINT) AS total,
       cast(round(cast(2*s - (n+1)*tot AS DOUBLE)
                  / cast(n*tot AS DOUBLE) * 1000000, 0) AS BIGINT)
           AS gini_e6,
       cast(round(cast(mx AS DOUBLE) / cast(tot AS DOUBLE) * 1000000, 0)
            AS BIGINT) AS top_share_e6
FROM s
"""


# =====================================================================
# Time-weighted average: value weighted by dwell to the next event
# =====================================================================

def _twa_shard(g: pd.DataFrame) -> pd.DataFrame:
    # ONE vectorized pass per SHARD: sort by (user, us, event_id),
    # adjacent same-user pairs carry (cents·dwell, dwell, 1) partials,
    # per-user sums close with one C groupby; users with no pairs or
    # zero total dwell are excluded (mirrors the twin's WHERE den > 0)
    d = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
    u = d["user_id"].to_numpy(np.int64)
    us = d["us"].to_numpy(np.int64)
    cents = d["cents"].to_numpy(np.int64)
    if len(d) < 2:
        return pd.DataFrame(
            {
                "user_id": pd.Series([], dtype=np.int64),
                "n_gaps": pd.Series([], dtype=np.int64),
                "dwell_s": pd.Series([], dtype=np.int64),
                "twa_value_e6": pd.Series([], dtype=np.int64),
            }
        )
    same = u[1:] == u[:-1]
    dwell = (us[1:] - us[:-1]) // _US_PER_S
    agg = pd.DataFrame(
        {
            "user_id": u[1:][same],
            "num": cents[:-1][same] * dwell[same],
            "den": dwell[same],
            "one": np.ones(int(same.sum()), np.int64),
        }
    ).groupby("user_id", sort=False).sum()
    den = agg["den"].to_numpy(np.int64)
    keep = den > 0
    num = agg["num"].to_numpy(np.int64)[keep]
    twa = num.astype(np.float64) / den[keep].astype(np.float64)
    return pd.DataFrame(
        {
            "user_id": agg.index.to_numpy(np.int64)[keep],
            "n_gaps": agg["one"].to_numpy(np.int64)[keep],
            "dwell_s": den[keep],
            "twa_value_e6": _i64_away_np(twa, scale=1e4),
        }
    )


def q_time_weighted_avg(sf_dir: str):
    """Per-user time-weighted mean event value (each value weighted by
    the whole seconds until the user's next event — the metering /
    state-duration aggregate). One groupby(user_id) exchange of three
    int64s per event; integer numerator/denominator, one mirrored
    double division."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
                "cents": _i64_away(batch.column("value"), 100.0),
            }
        )

    from .relational import _schema_guard, _user_shard

    return _schema_guard(
        ds.map_batches(_proj, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_twa_shard, batch_format="pandas"),
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("n_gaps", pa.int64()),
                ("dwell_s", pa.int64()),
                ("twa_value_e6", pa.int64()),
            ]
        ),
    )


SQL_TIME_WEIGHTED_AVG = """
WITH e AS (
  SELECT user_id, event_id,
         epoch_us(cast(ts AS TIMESTAMP)) AS us,
         cast(round(value * 100, 0) AS BIGINT) AS cents
  FROM events),
l AS (
  SELECT user_id, cents,
         (lead(us) OVER (PARTITION BY user_id ORDER BY us, event_id) - us)
             // 1000000 AS dwell
  FROM e),
s AS (
  SELECT user_id, count(*) AS n, sum(cents * dwell) AS num,
         sum(dwell) AS den
  FROM l WHERE dwell IS NOT NULL GROUP BY user_id)
SELECT user_id, cast(n AS BIGINT) AS n_gaps, cast(den AS BIGINT) AS dwell_s,
       cast(round(cast(num AS DOUBLE) / cast(den AS DOUBLE) * 10000, 0)
            AS BIGINT) AS twa_value_e6
FROM s WHERE den > 0
"""


# =====================================================================
# Peak concurrency per day: two-phase distributed prefix scan
# =====================================================================

def _delta_partial(batch: pa.Table) -> pa.Table:
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    s = us // _US_PER_S
    e = s + np.maximum(1, _i64_away_np(batch.column("value"), 1.0))
    t = np.concatenate([s, e])
    d = np.concatenate(
        [np.ones(len(s), np.int64), np.full(len(e), -1, np.int64)]
    )
    return pa.table(
        {
            "day": pa.array(t // 86_400, pa.int64()),
            "t": pa.array(t, pa.int64()),
            "d": pa.array(d, pa.int64()),
        }
    )


def _day_scan(g: pd.DataFrame) -> pd.DataFrame:
    t = g["t"].to_numpy()
    d = g["d"].to_numpy()
    o = np.lexsort((d, t))  # ends (-1) before starts (+1) at equal t
    prefix = np.cumsum(d[o])
    return pd.DataFrame(
        {
            "day": np.array([g["day"].iloc[0]], dtype=np.int64),
            "local_max": np.array([int(prefix.max())], dtype=np.int64),
            "total": np.array([int(prefix[-1])], dtype=np.int64),
        }
    )


def q_peak_concurrency(sf_dir: str):
    """Max simultaneously-active event intervals per day — the global
    running-sum-over-time query, distributed as the classic TWO-PHASE
    PREFIX SCAN: ±1 boundary deltas → per-day local scans in parallel
    (one groupby(day) exchange of two int64s per boundary) → a driver
    cumsum over the bounded per-day (local_max, total) table supplies
    each day's carry-in. The intra-day running max is deterministic:
    equal (t, d) rows commute, and ends sort before starts at the same
    second (interval [s, e) semantics), matching the SQL ORDER BY t, d."""
    ds = _read(sf_dir, "events", ["ts", "value"])
    per_day = (
        ds.map_batches(_delta_partial, batch_format="pyarrow")
        .groupby("day")
        .map_groups(_day_scan, batch_format="pandas")
        .to_pandas()
    )
    per_day = per_day.sort_values("day").reset_index(drop=True)
    carry = per_day["total"].cumsum().shift(1, fill_value=0).to_numpy()
    return pd.DataFrame(
        {
            "day": per_day["day"].to_numpy(dtype=np.int64),
            "peak": (carry + per_day["local_max"].to_numpy()).astype(np.int64),
        }
    )


SQL_PEAK_CONCURRENCY = """
WITH iv AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // 1000000 AS s,
         epoch_us(cast(ts AS TIMESTAMP)) // 1000000
           + greatest(1, cast(round(value, 0) AS BIGINT)) AS e
  FROM events),
d AS (
  SELECT s AS t, 1 AS d FROM iv
  UNION ALL
  SELECT e AS t, -1 AS d FROM iv),
r AS (
  SELECT t // 86400 AS day,
         sum(d) OVER (ORDER BY t, d ROWS UNBOUNDED PRECEDING) AS cur
  FROM d)
SELECT cast(day AS BIGINT) AS day, cast(max(cur) AS BIGINT) AS peak
FROM r GROUP BY day
"""


# =====================================================================
# Debounce: drop rapid-fire repeats of the same (user, type)
# =====================================================================

_DEBOUNCE_US = 60 * 1_000_000  # 60 s


def _debounce_group(g: pd.DataFrame) -> pd.DataFrame:
    us = g["us"].to_numpy()
    eid = g["event_id"].to_numpy()
    o = np.lexsort((eid, us))
    us, eid = us[o], eid[o]
    gap = np.empty(len(us), dtype=np.int64)
    gap[0] = -1  # no predecessor (mirrors lag() IS NULL)
    gap[1:] = us[1:] - us[:-1]
    keep = (gap < 0) | (gap >= _DEBOUNCE_US)
    return pd.DataFrame(
        {
            "event_id": eid[keep],
            "user_id": np.full(int(keep.sum()), g["user_id"].iloc[0], np.int64),
            "event_type": [g["event_type"].iloc[0]] * int(keep.sum()),
            "gap_us": gap[keep],
        }
    )


def q_debounce(sf_dir: str):
    """Lag-based debounce: keep an event iff the same user's previous
    event of the same type is at least 60 s older (or absent) — the
    standard telemetry / click-stream cleaning stage. One
    groupby(user, type) exchange; per-group shifted-array compare (no
    per-row Python)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    return (
        ds.map_batches(_proj, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .map_groups(_debounce_group, batch_format="pandas")
    )


SQL_DEBOUNCE = """
WITH e AS (
  SELECT event_id, user_id, event_type,
         epoch_us(cast(ts AS TIMESTAMP)) AS us
  FROM events),
l AS (
  SELECT event_id, user_id, event_type,
         us - lag(us) OVER (PARTITION BY user_id, event_type
                            ORDER BY us, event_id) AS gap
  FROM e)
SELECT event_id, user_id, event_type,
       cast(coalesce(gap, -1) AS BIGINT) AS gap_us
FROM l WHERE gap IS NULL OR gap >= 60000000
"""


# =====================================================================
# Per-group quota cap (per-domain document caps, RefinedWeb-style)
# =====================================================================

_QUOTA_N = 20


def _quota_partial(batch: pa.Table) -> pa.Table:
    ids = batch.column("doc_id").to_pylist()
    # per-row md5 (no Arrow kernel; same justification as sample_hash)
    h = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
    df = pd.DataFrame({"source": batch.column("source").to_pandas(),
                       "doc_id": ids, "h": h})
    # batch-local prune: only the N smallest (h, doc_id) per source can
    # survive the global cut, so the exchange carries <= N×sources rows
    # per batch
    df = df.sort_values(["h", "doc_id"], kind="mergesort")
    return pa.Table.from_pandas(
        df.groupby("source", sort=False).head(_QUOTA_N), preserve_index=False
    )


def _quota_final(g: pd.DataFrame) -> pd.DataFrame:
    d = g.sort_values(["h", "doc_id"], kind="mergesort").head(_QUOTA_N)
    return pd.DataFrame(
        {
            "doc_id": d["doc_id"].to_numpy(dtype=np.int64),
            "source": d["source"].to_numpy(),
        }
    )


def q_group_quota(sf_dir: str):
    """Cap each source at 20 documents, chosen by deterministic hash
    order (md5 of doc_id) — the per-domain quota that keeps one crawl
    domain from dominating a training mix. Per-batch partial top-N →
    one bounded groupby(source) exchange (<= N×sources×batches rows)."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return (
        ds.map_batches(_quota_partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(_quota_final, batch_format="pandas")
    )


SQL_GROUP_QUOTA = """
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source
                            ORDER BY md5(cast(doc_id AS VARCHAR)), doc_id)
             AS rn
  FROM documents
) WHERE rn <= 20
"""


# =====================================================================
# Prioritized rule tagging (first-match regex router)
# =====================================================================

#: (tag, RE2 pattern) in priority order — both engines are RE2, so the
#: class semantics agree byte-for-byte (same rationale as tokenizer._WS)
_RULES = [
    ("digits", r"[0-9]"),
    ("shouting", r"[A-Z]{4}"),
    ("question", r"\?"),
]


def _rule_tag_batch(batch: pa.Table) -> pa.Table:
    text = batch.column("text")
    masks = [
        pc.match_substring_regex(text, pat).to_numpy(zero_copy_only=False)
        for _, pat in _RULES
    ]
    tags = np.select(masks, [t for t, _ in _RULES], default="none")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "tag": pa.array(tags, pa.string()),
        }
    )


def q_rule_tag(sf_dir: str):
    """First-match-wins regex classification (the C4/badwords-style
    rule router): vectorized RE2 matches per rule + one np.select —
    map-only, zero shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_rule_tag_batch, batch_format="pyarrow")


SQL_RULE_TAG = r"""
SELECT doc_id,
       CASE WHEN regexp_matches(text, '[0-9]')   THEN 'digits'
            WHEN regexp_matches(text, '[A-Z]{4}') THEN 'shouting'
            WHEN regexp_matches(text, '\?')      THEN 'question'
            ELSE 'none' END AS tag
FROM documents
"""


# =====================================================================
# Trending: top-3 event types per day
# =====================================================================

def _trend_partial(batch: pa.Table) -> pa.Table:
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    t = pa.table(
        {
            "day": pa.array(us // _US_PER_DAY, pa.int64()),
            "event_type": batch.column("event_type"),
        }
    )
    part = t.group_by(["day", "event_type"]).aggregate([("event_type", "count")])
    return pa.table(
        {
            "day": part.column("day"),
            "event_type": part.column("event_type"),
            "n": pc.cast(part.column("event_type_count"), pa.int64()),
        }
    )


def _trend_top(g: pd.DataFrame, k: int = 3) -> pd.DataFrame:
    m = g.groupby("event_type", as_index=False)["n"].sum()
    m = m.sort_values(["n", "event_type"], ascending=[False, True],
                      kind="mergesort").head(k)
    return pd.DataFrame(
        {
            "day": np.full(len(m), g["day"].iloc[0], np.int64),
            "event_type": m["event_type"].to_numpy(),
            "n": m["n"].to_numpy(dtype=np.int64),
            "rk": np.arange(1, len(m) + 1, dtype=np.int64),
        }
    )


def q_trending_terms(sf_dir: str):
    """Top-3 event types per day (count desc, type asc ties) — the
    windowed trending query. Per-batch (day, type) count partials →
    one groupby(day) exchange carrying the bounded (day × type)
    aggregate, never the event stream."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])
    return (
        ds.map_batches(_trend_partial, batch_format="pyarrow")
        .groupby("day")
        .map_groups(_trend_top, batch_format="pandas")
    )


SQL_TRENDING = """
WITH c AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // 86400000000 AS day,
         event_type, count(*) AS n
  FROM events GROUP BY day, event_type)
SELECT cast(day AS BIGINT) AS day, event_type, cast(n AS BIGINT) AS n,
       cast(rk AS BIGINT) AS rk
FROM (
  SELECT day, event_type, n,
         row_number() OVER (PARTITION BY day
                            ORDER BY n DESC, event_type) AS rk
  FROM c
) WHERE rk <= 3
"""


# =====================================================================
# Order/line reconciliation: the audit sibling of table_checksum
# =====================================================================

_REC_SHARDS = 64


def _rec_lines_partial(batch: pa.Table) -> pa.Table:
    ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
    tax = batch.column("l_tax").to_numpy(zero_copy_only=False)
    disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
    cents = _i64_away_np(ep * (1 + tax) * (1 - disc), 100.0)
    t = pa.table(
        {
            "k": batch.column("l_orderkey"),
            "cents": pa.array(cents, pa.int64()),
        }
    )
    part = t.group_by("k").aggregate([("cents", "sum")])
    k = part.column("k").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "shard": pa.array(k & (_REC_SHARDS - 1), pa.int64()),
            "k": part.column("k"),
            "cents": pc.cast(part.column("cents_sum"), pa.int64()),
            "side": pa.array(np.zeros(len(k), np.int64)),
        }
    )


def _rec_orders_partial(batch: pa.Table) -> pa.Table:
    k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "shard": pa.array(k & (_REC_SHARDS - 1), pa.int64()),
            "k": batch.column("o_orderkey"),
            "cents": _i64_away(batch.column("o_totalprice"), 100.0),
            "side": pa.array(np.ones(len(k), np.int64)),
        }
    )


def _rec_shard_classify(g: pd.DataFrame) -> pd.DataFrame:
    # cross-batch re-merge of the line partials, then a vectorized
    # full-outer classify within the shard (all rows of a key co-locate)
    p = g.pivot_table(index="k", columns="side", values="cents",
                      aggfunc="sum")  # col 0 = line sum, col 1 = header
    lc = p[0] if 0 in p.columns else pd.Series(np.nan, index=p.index)
    hc = p[1] if 1 in p.columns else pd.Series(np.nan, index=p.index)
    cls = np.select(
        [lc.isna().to_numpy(), hc.isna().to_numpy(),
         (lc == hc).to_numpy()],
        ["missing_lines", "orphan_lines", "match"],
        default="mismatch",
    )
    vc = pd.Series(cls).value_counts()
    return pd.DataFrame(
        {"class": vc.index.to_numpy(), "n": vc.to_numpy(dtype=np.int64)}
    )


def q_reconcile_orders(sf_dir: str):
    """Header-vs-detail reconciliation: does each order's stored total
    equal the sum of its line revenues (extprice·(1+tax)·(1−disc))?
    The data-quality audit every warehouse copy runs. Tagged union of
    per-batch partials from BOTH tables → ONE key-shard exchange
    carrying (shard, key, cents, side) int64s → vectorized full-outer
    classify per shard → tiny per-class roll-up."""
    from ray.data.aggregate import Sum

    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_extendedprice", "l_tax", "l_discount"])
    heads = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    tagged = lines.map_batches(
        _rec_lines_partial, batch_format="pyarrow"
    ).union(heads.map_batches(_rec_orders_partial, batch_format="pyarrow"))
    per_shard = _schema_guard(
        tagged.groupby("shard").map_groups(
            _rec_shard_classify, batch_format="pandas"
        ),
        pa.schema([("class", pa.string()), ("n", pa.int64())]),
    )
    out = per_shard.groupby("class").aggregate(Sum("n", alias_name="n"))
    pdf = out.to_pandas()
    return pd.DataFrame(
        {"class": pdf["class"].to_numpy(),
         "n": pdf["n"].to_numpy(dtype=np.int64)}
    )


SQL_RECONCILE = """
WITH lr AS (
  SELECT l_orderkey AS k,
         sum(cast(round(l_extendedprice * (1 + l_tax) * (1 - l_discount)
                        * 100, 0) AS BIGINT)) AS lc
  FROM lineitem GROUP BY k),
hd AS (
  SELECT o_orderkey AS k,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS hc
  FROM orders),
j AS (
  SELECT CASE WHEN lr.k IS NULL THEN 'missing_lines'
              WHEN hd.k IS NULL THEN 'orphan_lines'
              WHEN lc = hc THEN 'match'
              ELSE 'mismatch' END AS class
  FROM hd FULL OUTER JOIN lr ON hd.k = lr.k)
SELECT class, cast(count(*) AS BIGINT) AS n FROM j GROUP BY class
"""


# =====================================================================
# Cumulative distinct users per day (growth accounting)
# =====================================================================

def q_cumulative_users(sf_dir: str):
    """New + cumulative distinct users per first-seen day. Distinct
    accumulation without a running distinct state: min-day per user
    (one groupby(user) Min exchange of two int64s) → per-day counts →
    driver cumsum over the bounded day table."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def _days(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "day": pa.array(us // _US_PER_DAY, pa.int64()),
            }
        )
        return t.group_by("user_id").aggregate([("day", "min")])

    first = (
        ds.map_batches(_days, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("day_min", alias_name="d"))
    )
    per_day = (
        first.groupby("d").aggregate(Count(alias_name="n")).to_pandas()
    )
    per_day = per_day.sort_values("d").reset_index(drop=True)
    return pd.DataFrame(
        {
            "day": per_day["d"].to_numpy(dtype=np.int64),
            "new_users": per_day["n"].to_numpy(dtype=np.int64),
            "cum_users": per_day["n"].cumsum().to_numpy(dtype=np.int64),
        }
    )


SQL_CUMULATIVE_USERS = """
WITH f AS (
  SELECT user_id,
         min(epoch_us(cast(ts AS TIMESTAMP)) // 86400000000) AS d
  FROM events GROUP BY user_id),
c AS (SELECT d, count(*) AS n FROM f GROUP BY d)
SELECT cast(d AS BIGINT) AS day,
       cast(n AS BIGINT) AS new_users,
       cast(sum(n) OVER (ORDER BY d ROWS UNBOUNDED PRECEDING) AS BIGINT)
           AS cum_users
FROM c
"""


# =====================================================================
# Mode per group (most frequent value, deterministic tie-break)
# =====================================================================

def q_mode_value(sf_dir: str):
    """Modal value-cents per event_type (count desc, cents asc ties).
    Per-batch (type, cents) count partials → one exchange bounded by
    the distinct (type, cents) domain → per-type argmax."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _part(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": _i64_away(batch.column("value"), 100.0),
            }
        )
        part = t.group_by(["event_type", "cents"]).aggregate(
            [("cents", "count")]
        )
        return pa.table(
            {
                "event_type": part.column("event_type"),
                "cents": part.column("cents"),
                "n": pc.cast(part.column("cents_count"), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _argmax(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["n", "cents"], ascending=[False, True],
                          kind="mergesort").iloc[0]
        return pd.DataFrame(
            {
                "event_type": [d["event_type"]],
                "mode_cents": np.array([d["cents"]], dtype=np.int64),
                "n": np.array([d["n"]], dtype=np.int64),
            }
        )

    return counts.groupby("event_type").map_groups(
        _argmax, batch_format="pandas"
    )


SQL_MODE_VALUE = """
WITH c AS (
  SELECT event_type, cast(round(value * 100, 0) AS BIGINT) AS cents,
         count(*) AS n
  FROM events GROUP BY event_type, cents)
SELECT event_type, cents AS mode_cents, cast(n AS BIGINT) AS n FROM (
  SELECT *, row_number() OVER (PARTITION BY event_type
                               ORDER BY n DESC, cents) AS rn
  FROM c) WHERE rn = 1
"""


# =====================================================================
# PMI collocations: top bigrams by pointwise mutual information
# =====================================================================

_PMI_MIN_COUNT = 5
_PMI_TOPK = 20


def q_pmi_bigrams(sf_dir: str):
    """Collocation mining: top-20 bigrams by PMI among bigrams with
    count >= 5 — the lexicon-induction statistic (Church & Hanks 1990).
    Reuses the vocabulary-bounded unigram/bigram count exchanges
    (shuffle payload = vocabulary, Heaps' law); the candidate set
    (count floor applied) is bounded, so the PMI arithmetic and final
    ordering run driver-side with ONE mirrored double expression per
    candidate, quantized to e6 integers before the deterministic
    (pmi desc, bigram asc) cut."""
    import math

    from ray.data.aggregate import Sum

    from .tokenizer import _bigram_partial, _term_partial

    ds = _read(sf_dir, "documents", ["text"])
    uni = (
        ds.map_batches(_term_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )  # vocabulary-bounded
    bi = (
        ds.map_batches(_bigram_partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    nu = float(int(uni["n"].sum()))
    nb = float(int(bi["n"].sum()))
    cand = bi[bi["n"] >= _PMI_MIN_COUNT].copy()
    ucnt = dict(zip(uni["term"], uni["n"].astype(np.int64)))
    parts = cand["bigram"].str.split(" ", n=1, expand=True)
    ca = parts[0].map(ucnt).to_numpy(dtype=np.float64)
    cb = parts[1].map(ucnt).to_numpy(dtype=np.float64)
    cab = cand["n"].to_numpy(dtype=np.float64)
    # token-for-token mirror of the SQL: ln((cab/nb) / (ca/nu * (cb/nu)))
    pmi = np.log((cab / nb) / (ca / nu * (cb / nu)))
    cand["pmi_e6"] = _i64_away_np(pmi, scale=1e6)
    out = cand.sort_values(["pmi_e6", "bigram"], ascending=[False, True],
                           kind="mergesort").head(_PMI_TOPK)
    return pd.DataFrame(
        {
            "bigram": out["bigram"].to_numpy(),
            "n": out["n"].to_numpy(dtype=np.int64),
            "pmi_e6": out["pmi_e6"].to_numpy(dtype=np.int64),
        }
    )


SQL_PMI_BIGRAMS = r"""
WITH l AS (
  SELECT regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''),
b AS (
  SELECT toks[i] AS a, toks[i+1] AS bb,
         toks[i] || ' ' || toks[i+1] AS bigram
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)),
u AS (
  SELECT unnest(toks) AS term FROM l),
uc AS (SELECT term, count(*) AS n FROM u GROUP BY term),
bc AS (SELECT bigram, min(a) AS a, min(bb) AS bb, count(*) AS n
       FROM b GROUP BY bigram),
tot AS (SELECT (SELECT cast(count(*) AS DOUBLE) FROM u)  AS nu,
               (SELECT cast(count(*) AS DOUBLE) FROM b) AS nb)
SELECT bigram, cast(bc.n AS BIGINT) AS n,
       cast(round(ln((cast(bc.n AS DOUBLE) / nb)
                     / (cast(ua.n AS DOUBLE) / nu
                        * (cast(ub.n AS DOUBLE) / nu))) * 1000000, 0)
            AS BIGINT) AS pmi_e6
FROM bc
JOIN uc ua ON ua.term = bc.a
JOIN uc ub ON ub.term = bc.bb
CROSS JOIN tot
WHERE bc.n >= 5
ORDER BY pmi_e6 DESC, bigram LIMIT 20
"""


# =====================================================================
# Rolling 7-day active users (WAU) via distinct-expansion
# =====================================================================

def _wau_days(batch: pa.Table) -> pa.Table:
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    day = us // _US_PER_DAY
    uid = batch.column("user_id").to_numpy(zero_copy_only=False)
    key = np.unique(uid * (1 << 20) | day)  # batch-local distinct
    return pa.table(
        {
            "user_id": pa.array(key >> 20, pa.int64()),
            "day": pa.array(key & ((1 << 20) - 1), pa.int64()),
        }
    )


def _user_windows_shard(g: pd.DataFrame) -> pd.DataFrame:
    # a user active on day d is window-active for report days d..d+6;
    # union across the user's active days BEFORE counting (a user with
    # two active days in one window must count once). ONE vectorized
    # expansion + two C dedupe/count passes per SHARD — never a pandas
    # UDF per user (each user lives wholly in one shard, so per-shard
    # distinct-user window counts Sum exactly)
    d = g.drop_duplicates(["user_id", "day"])
    u = np.repeat(d["user_id"].to_numpy(np.int64), 7)
    w = (
        d["day"].to_numpy(np.int64)[:, None] + np.arange(7, dtype=np.int64)
    ).ravel()
    uw = pd.DataFrame({"u": u, "w": w}).drop_duplicates()
    c = uw.groupby("w", sort=False).size()
    return pd.DataFrame(
        {
            "w": c.index.to_numpy(np.int64),
            "n": c.to_numpy(np.int64),
        }
    )


def q_wau_rolling(sf_dir: str):
    """Rolling 7-day distinct active users per report day — the
    DAU/WAU/MAU family — WITHOUT a running-distinct state: distinct
    (user, day) partials → per-user window expansion (the
    distinct-expansion idiom: each active day covers report days
    d..d+6, unioned per user) → one vocabulary-bounded groupby(day)
    count. Two exchanges, both carrying int64 pairs only."""
    from ray.data.aggregate import Sum

    from .relational import _user_shard

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    per_user = _schema_guard(
        ds.map_batches(_wau_days, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_user_windows_shard, batch_format="pandas"),
        pa.schema([("w", pa.int64()), ("n", pa.int64())]),
    )
    out = per_user.groupby("w").aggregate(Sum("n", alias_name="wau"))
    pdf = out.to_pandas()
    return pd.DataFrame(
        {
            "day": pdf["w"].to_numpy(dtype=np.int64),
            "wau": pdf["wau"].to_numpy(dtype=np.int64),
        }
    )


SQL_WAU = """
WITH d AS (
  SELECT DISTINCT user_id,
         epoch_us(cast(ts AS TIMESTAMP)) // 86400000000 AS day
  FROM events),
e AS (
  SELECT DISTINCT user_id, day + i AS w
  FROM d, unnest(generate_series(0, 6)) AS t(i))
SELECT cast(w AS BIGINT) AS day, cast(count(*) AS BIGINT) AS wau
FROM e GROUP BY w
"""


# =====================================================================
# IQR outlier trim: exact per-group quartile gates
# =====================================================================

def q_iqr_trim(sf_dir: str):
    """Tukey-fence outlier trim per event_type: keep rows within
    [Q1 − 1.5·IQR, Q3 + 1.5·IQR], quartiles as exact type-1 discrete
    picks over integer cents (the quantiles_by_type convention). Both
    fences are doubled on both sides (2·cents vs 2·Q1 − 3·IQR) so the
    arithmetic stays integer-exact — no 1.5 float. Stats pass → tiny
    per-type threshold broadcast → streaming gate (the
    compute-then-gate chain quality_filter_global demonstrates)."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "cents": _i64_away(batch.column("value"), 100.0),
            }
        )

    cents_ds = ds.map_batches(_proj, batch_format="pyarrow")

    def _qpick(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["cents"].to_numpy())
        n = len(v)
        pick = lambda q: int(v[max(0, int(np.ceil(q * n)) - 1)])
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "q1": np.array([pick(0.25)], dtype=np.int64),
                "q3": np.array([pick(0.75)], dtype=np.int64),
            }
        )

    th = (
        cents_ds.groupby("event_type")
        .map_groups(_qpick, batch_format="pandas")
        .to_pandas()
    )  # bounded: one row per type
    lo = {
        t: 2 * q1 - 3 * (q3 - q1)
        for t, q1, q3 in zip(th["event_type"], th["q1"], th["q3"])
    }
    hi = {
        t: 2 * q3 + 3 * (q3 - q1)
        for t, q1, q3 in zip(th["event_type"], th["q1"], th["q3"])
    }

    def _gate(df: pd.DataFrame) -> pd.DataFrame:
        c2 = 2 * df["cents"].to_numpy()
        lo_v = df["event_type"].map(lo).to_numpy(dtype=np.int64)
        hi_v = df["event_type"].map(hi).to_numpy(dtype=np.int64)
        return df[(c2 >= lo_v) & (c2 <= hi_v)]

    return cents_ds.map_batches(_gate, batch_format="pandas")


SQL_IQR_TRIM = """
WITH c AS (
  SELECT event_id, event_type,
         cast(round(value * 100, 0) AS BIGINT) AS cents
  FROM events),
q AS (
  SELECT event_type, quantile_disc(cents, 0.25) AS q1,
         quantile_disc(cents, 0.75) AS q3
  FROM c GROUP BY event_type)
SELECT event_id, event_type, cents
FROM c JOIN q USING (event_type)
WHERE 2*cents >= 2*q1 - 3*(q3 - q1)
  AND 2*cents <= 2*q3 + 3*(q3 - q1)
"""


# =====================================================================
# Embedding standardization: per-dim z-scores (PCA/quantizer prep)
# =====================================================================

_NORM_DIMS = 8  # bounded output slice (mirrored WHERE in the SQL twin)


def q_embedding_normalize(sf_dir: str):
    """Per-dimension standardization z = (x − μ)/σ of the embedding
    table (population σ), emitted flattened for the first 8 dims —
    the feature-scaling pass before PCA / scalar quantization. Stats
    pass = one 64-row-per-batch moment exchange (the
    ``embedding_dim_stats`` shape); transform pass is an
    embarrassingly parallel broadcast map. e4 quantization: both sides
    accumulate float64 sums whose order-divergence (~1e-13 relative)
    sits far below the e4 grain."""
    import ray
    from ray.data.aggregate import Sum

    from ..functions.embed import fixed_list_to_numpy

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _moments(batch: pa.Table) -> pa.Table:
        x = fixed_list_to_numpy(batch.column("embedding"), np.float64)
        d = x.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64)),
                "n_part": pa.array(np.full(d, len(x), dtype=np.int64)),
                "s": pa.array(x.sum(axis=0)),
                "ss": pa.array((x * x).sum(axis=0)),
            }
        )

    agg = (
        ds.map_batches(_moments, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(Sum("n_part", alias_name="n"),
                   Sum("s", alias_name="s"),
                   Sum("ss", alias_name="ss"))
        .to_pandas()
        .sort_values("dim")
    )  # bounded: one row per dimension
    n = agg["n"].to_numpy(dtype=np.float64)
    m = agg["s"].to_numpy() / n
    v = agg["ss"].to_numpy() / n - m * m  # op-order mirror of the SQL
    stats_ref = ray.put((m, v))

    def _transform(batch: pa.Table) -> pa.Table:
        mu, var = ray.get(stats_ref)
        x = fixed_list_to_numpy(batch.column("embedding"), np.float64)
        x = x[:, :_NORM_DIMS]
        z = (x - mu[:_NORM_DIMS]) / np.sqrt(var[:_NORM_DIMS])
        rows = len(x)
        return pa.table(
            {
                "vec_id": pa.array(
                    np.repeat(
                        batch.column("vec_id").to_numpy(zero_copy_only=False),
                        _NORM_DIMS,
                    ),
                    pa.int64(),
                ),
                "dim": pa.array(
                    np.tile(np.arange(_NORM_DIMS, dtype=np.int64), rows)
                ),
                "z_e4": pa.array(_i64_away_np(z.ravel(), 1e4)),
            }
        )

    return ds.map_batches(_transform, batch_format="pyarrow")


SQL_EMBEDDING_NORMALIZE = f"""
WITH u AS (
  SELECT vec_id, i, cast(embedding[i] AS DOUBLE) AS x
  FROM embeddings, range(1, 65) t(i)),
s AS (
  SELECT i, sum(x) / count(*) AS m,
         sum(x*x) / count(*) - pow(sum(x) / count(*), 2) AS v
  FROM u GROUP BY i)
SELECT vec_id, cast(i - 1 AS BIGINT) AS dim,
       cast(round((x - m) / sqrt(v) * 10000, 0) AS BIGINT) AS z_e4
FROM u JOIN s USING (i)
WHERE i <= {_NORM_DIMS}
"""


# =====================================================================
# Sentence statistics (C4/Gopher "min 3 sentences" family)
# =====================================================================

def _sentence_batch(batch: pa.Table) -> pa.Table:
    # RE2 split on both sides ('[.!?]+'); a segment counts as a
    # sentence iff it is non-empty after stripping SPACES (DuckDB
    # trim() strips spaces only — Python .strip() would also strip
    # \xa0 etc. and diverge)
    segs = pc.split_pattern_regex(batch.column("text"), pattern=r"[.!?]+")
    words = pc.split_pattern_regex(batch.column("text"), pattern=r"\s+")
    n_sent, n_words = [], []
    for seg_list, word_list in zip(segs.to_pylist(), words.to_pylist()):
        n_sent.append(sum(1 for s in seg_list if s.strip(" ") != ""))
        n_words.append(sum(1 for w in word_list if w != ""))
    ns = np.asarray(n_sent, dtype=np.int64)
    nw = np.asarray(n_words, dtype=np.int64)
    wps = np.where(ns > 0, 100 * nw // np.maximum(ns, 1), -1)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_sentences": pa.array(ns),
            "n_words": pa.array(nw),
            "words_per_sentence_e2": pa.array(wps.astype(np.int64)),
        }
    )


def q_sentence_stats(sf_dir: str):
    """Sentence segmentation statistics per document — the C4-family
    'enough complete sentences' quality gate input. Map-only; RE2
    sentence/word splits on both engines."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_sentence_batch, batch_format="pyarrow")


SQL_SENTENCE_STATS = r"""
WITH s AS (
  SELECT doc_id,
         regexp_split_to_array(text, '[.!?]+') AS parts,
         regexp_extract_all(text, '\S+') AS words
  FROM documents),
p AS (
  SELECT doc_id,
         len(list_filter(parts, x -> trim(x) <> '')) AS ns,
         len(words) AS nw
  FROM s)
SELECT doc_id,
       cast(ns AS BIGINT) AS n_sentences,
       cast(nw AS BIGINT) AS n_words,
       cast(CASE WHEN ns > 0 THEN 100 * nw // ns ELSE -1 END AS BIGINT)
           AS words_per_sentence_e2
FROM p
"""


# =====================================================================
# Geometric mean per group (quantize-then-sum ln terms)
# =====================================================================

def q_geo_mean_value(sf_dir: str):
    """Per-type geometric mean of value-cents (positive rows only) —
    the log-domain aggregate: each row's ln(cents) is quantized to an
    e9 integer BEFORE the sum (order-free on both engines), then ONE
    mirrored exp over the exact integer total."""
    import math

    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _part(batch: pa.Table) -> pa.Table:
        cents = _i64_away_np(batch.column("value"), 100.0)
        keep = cents > 0
        t = pa.table(
            {
                "event_type": batch.column("event_type").combine_chunks().filter(
                    pa.array(keep)
                ),
                "term": pa.array(
                    _i64_away_np(np.log(cents[keep].astype(np.float64)), 1e9)
                ),
            }
        )
        part = t.group_by("event_type").aggregate(
            [("term", "sum"), ("term", "count")]
        )
        return pa.table(
            {
                "event_type": part.column("event_type"),
                "t": pc.cast(part.column("term_sum"), pa.int64()),
                "n": pc.cast(part.column("term_count"), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("t", alias_name="t"), Sum("n", alias_name="n"))
    )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        t = int(g["t"].iloc[0])
        n = int(g["n"].iloc[0])
        # token-for-token mirror: exp(cast(t AS DOUBLE)/1e9/n) * 100
        gm = math.exp(float(t) / 1_000_000_000 / n) * 100
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "geo_mean_e2": _i64_away_np([gm], scale=1.0),
            }
        )

    return agg.groupby("event_type").map_groups(_final, batch_format="pandas")


SQL_GEO_MEAN = """
WITH c AS (
  SELECT event_type, cast(round(value * 100, 0) AS BIGINT) AS cents
  FROM events WHERE round(value * 100, 0) > 0),
s AS (
  SELECT event_type, count(*) AS n,
         sum(cast(round(ln(cast(cents AS DOUBLE)) * 1000000000, 0)
                  AS BIGINT)) AS t
  FROM c GROUP BY event_type)
SELECT event_type, cast(n AS BIGINT) AS n,
       cast(round(exp(cast(t AS DOUBLE) / 1000000000 / n) * 100, 0)
            AS BIGINT) AS geo_mean_e2
FROM s
"""


# =====================================================================
# Contrastive negative sampling (training-pair mining)
# =====================================================================

_NEG_K = 4


def q_negative_sampling(sf_dir: str):
    """(query, positive, negatives) triplet mining for contrastive
    training: positive = nearest non-self cosine neighbor (the green
    ``knn_cosine`` machinery and tie rule), negatives = the 4
    hash-smallest candidates per query (deterministic md5 order,
    excluding the query and its positive) — per-batch partial top-4 →
    bounded driver reduce, so the negative pick streams the id column
    only (pruned read)."""
    from .relational import q_knn_cosine

    knn = q_knn_cosine(sf_dir)
    kdf = knn.to_pandas() if hasattr(knn, "to_pandas") else knn
    kdf = kdf[kdf["vec_id"] != kdf["query_id"]].sort_values(
        ["query_id", "score_e4", "vec_id"], ascending=[True, False, True],
        kind="mergesort",
    )
    pos = kdf.drop_duplicates("query_id")[["query_id", "vec_id"]]
    pos_map = dict(zip(pos["query_id"].astype(int), pos["vec_id"].astype(int)))
    queries = sorted(pos_map)

    def _neg_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        qs, hs, vs = [], [], []
        for q in queries:
            p = pos_map[q]
            for v in ids:
                v = int(v)
                if v == q or v == p:
                    continue
                qs.append(q)
                hs.append(hashlib.md5(f"{q}|{v}".encode()).hexdigest())
                vs.append(v)
        df = pd.DataFrame({"query_id": qs, "h": hs, "neg_id": vs})
        df = df.sort_values(["h", "neg_id"], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("query_id", sort=False).head(_NEG_K),
            preserve_index=False,
        )

    parts = (
        _read(sf_dir, "embeddings", ["vec_id"])
        .map_batches(_neg_partial, batch_format="pyarrow")
        .to_pandas()
    )  # bounded: <= queries × 4 × batches rows
    out_rows = []
    for q in queries:
        cand = parts[parts["query_id"] == q].sort_values(
            ["h", "neg_id"], kind="mergesort"
        ).head(_NEG_K)
        for rk, neg in enumerate(cand["neg_id"].astype(int), start=1):
            out_rows.append((q, pos_map[q], neg, rk))
    return pd.DataFrame(
        out_rows, columns=["query_id", "pos_id", "neg_id", "neg_rank"]
    ).astype(np.int64)


SQL_NEGATIVE_SAMPLING = """
WITH sc AS (
  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY round(list_cosine_similarity(q.embedding, e.embedding)
                          * 10000, 0) DESC,
                    e.vec_id ASC
         ) AS rn
  FROM embeddings q CROSS JOIN embeddings e
  WHERE q.vec_id < 4 AND e.vec_id <> q.vec_id),
pos AS (SELECT query_id, vec_id AS pos_id FROM sc WHERE rn = 1),
negs AS (
  SELECT p.query_id, p.pos_id, e.vec_id AS neg_id,
         row_number() OVER (
           PARTITION BY p.query_id
           ORDER BY md5(printf('%d|%d', p.query_id, e.vec_id)), e.vec_id
         ) AS neg_rank
  FROM pos p JOIN embeddings e
    ON e.vec_id <> p.query_id AND e.vec_id <> p.pos_id)
SELECT query_id, pos_id, neg_id, cast(neg_rank AS BIGINT) AS neg_rank
FROM negs WHERE neg_rank <= 4
"""


# =====================================================================
# Ordered string_agg: per-user event-type journey strings
# =====================================================================

def _path_shard(g: pd.DataFrame) -> pd.DataFrame:
    # ONE sorted pass per SHARD; the per-user string joins run as a
    # single C-dispatched groupby agg over the pre-sorted frame (the
    # join itself is inherent — the OUTPUT is one string per user —
    # but no per-user DataFrame construction / UDF dispatch remains)
    d = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
    gb = d.groupby("user_id", sort=False)["event_type"]
    path = gb.agg("|".join)
    n = gb.size()
    return pd.DataFrame(
        {
            "user_id": path.index.to_numpy(np.int64),
            "n_events": n.to_numpy(np.int64),
            "path": path.to_numpy(),
        }
    )


def q_event_path(sf_dir: str):
    """Per-user ordered journey string (event types joined in (ts,
    event_id) order) — the ordered-list_agg primitive behind funnel
    mining AND the chat→flat-text render step of a training pipeline
    (same shape as pack_conversations, emitting a string instead of a
    packed list). One groupby(user) exchange; per-group lexsort +
    C-level join."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    from .relational import _schema_guard, _user_shard

    return _schema_guard(
        ds.map_batches(_proj, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_path_shard, batch_format="pandas"),
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("n_events", pa.int64()),
                ("path", pa.string()),
            ]
        ),
    )


SQL_EVENT_PATH = """
SELECT user_id,
       cast(count(*) AS BIGINT) AS n_events,
       string_agg(event_type, '|'
                  ORDER BY epoch_us(cast(ts AS TIMESTAMP)), event_id)
           AS path
FROM events GROUP BY user_id
"""


# =====================================================================
# Inter-arrival histogram: log2-bucketed gap distribution
# =====================================================================

def _gap_hist_shard(g: pd.DataFrame) -> pd.DataFrame:
    # ONE sorted pass per SHARD: same-user adjacent gaps only
    d = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
    u = d["user_id"].to_numpy(np.int64)
    us = d["us"].to_numpy(np.int64)
    if len(d) < 2:
        return pd.DataFrame({"bucket": [], "n": []})
    same = u[1:] == u[:-1]
    gap = (us[1:] - us[:-1])[same] // _US_PER_S  # whole seconds
    bucket = np.full(len(gap), -1, dtype=np.int64)
    pos = gap > 0
    # floor(log2) is IEEE-exact at powers of two on both engines
    bucket[pos] = np.floor(np.log2(gap[pos].astype(np.float64))).astype(
        np.int64
    )
    b, n = np.unique(bucket, return_counts=True)
    return pd.DataFrame({"bucket": b, "n": n.astype(np.int64)})


def q_interarrival_hist(sf_dir: str):
    """Corpus-wide inter-arrival-time distribution (per-user
    consecutive-event gaps, log2-second buckets; same-second gaps →
    bucket −1) — the latency/burstiness profile. One groupby(user)
    exchange → per-group diffs + local histogram → one
    bucket-vocabulary-bounded roll-up."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    from .relational import _user_shard

    partials = _schema_guard(
        ds.map_batches(_proj, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_gap_hist_shard, batch_format="pandas"),
        pa.schema([("bucket", pa.int64()), ("n", pa.int64())]),
    )
    out = partials.groupby("bucket").aggregate(Sum("n", alias_name="n"))
    pdf = out.to_pandas()
    return pd.DataFrame(
        {
            "bucket": pdf["bucket"].to_numpy(dtype=np.int64),
            "n": pdf["n"].to_numpy(dtype=np.int64),
        }
    )


SQL_INTERARRIVAL_HIST = """
WITH e AS (
  SELECT user_id, epoch_us(cast(ts AS TIMESTAMP)) AS us, event_id
  FROM events),
l AS (
  SELECT (us - lag(us) OVER (PARTITION BY user_id
                             ORDER BY us, event_id)) // 1000000 AS gap
  FROM e),
b AS (
  SELECT CASE WHEN gap > 0
              THEN cast(floor(log2(cast(gap AS DOUBLE))) AS BIGINT)
              ELSE -1 END AS bucket
  FROM l WHERE gap IS NOT NULL)
SELECT bucket, cast(count(*) AS BIGINT) AS n FROM b GROUP BY bucket
"""


# =====================================================================
# Column profiler: per-column n / nulls / min / max in one pass
# =====================================================================

_PROFILE_COLS = [
    "o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority",
    "o_orderdate",
]


def _profile_partial(batch: pa.Table) -> pa.Table:
    rows = []
    for c in _PROFILE_COLS:
        col = batch.column(c)
        n_null = int(pc.sum(pc.is_null(col).cast(pa.int64())).as_py() or 0)
        # typed min/max (string min would misorder numbers), stringified
        # for the uniform output schema
        mn = pc.min(col).as_py()
        mx = pc.max(col).as_py()
        rows.append((c, batch.num_rows, n_null, str(mn), str(mx)))
    return pa.table(
        {
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "n_null": pa.array([r[2] for r in rows], pa.int64()),
            "min_s": pa.array([r[3] for r in rows], pa.string()),
            "max_s": pa.array([r[4] for r in rows], pa.string()),
        }
    )


def _profile_merge(g: pd.DataFrame) -> pd.DataFrame:
    c = g["column"].iloc[0]
    # stringified partials re-compare TYPED: numeric columns must merge
    # numerically, not lexicographically ('10' < '9')
    if c in ("o_orderkey", "o_custkey"):
        mn = str(min(int(v) for v in g["min_s"]))
        mx = str(max(int(v) for v in g["max_s"]))
    else:  # dates (ISO) and strings order identically as text
        mn = min(g["min_s"])
        mx = max(g["max_s"])
    return pd.DataFrame(
        {
            "column": [c],
            "n": np.array([int(g["n"].sum())], dtype=np.int64),
            "n_null": np.array([int(g["n_null"].sum())], dtype=np.int64),
            "min_s": [mn],
            "max_s": [mx],
        }
    )


def q_profile_orders(sf_dir: str):
    """One-pass column profiler (n, nulls, typed min/max) over orders —
    the schema-inspection utility run before any migration. Per-batch
    partials are 5 rows regardless of batch size; one tiny
    groupby(column) merge."""
    ds = _read(sf_dir, "orders", _PROFILE_COLS)
    return (
        ds.map_batches(_profile_partial, batch_format="pyarrow")
        .groupby("column")
        .map_groups(_profile_merge, batch_format="pandas")
    )


SQL_PROFILE = """
SELECT 'o_orderkey' AS column, cast(count(*) AS BIGINT) AS n,
       cast(count(*) - count(o_orderkey) AS BIGINT) AS n_null,
       cast(min(o_orderkey) AS VARCHAR) AS min_s,
       cast(max(o_orderkey) AS VARCHAR) AS max_s FROM orders
UNION ALL
SELECT 'o_custkey', cast(count(*) AS BIGINT),
       cast(count(*) - count(o_custkey) AS BIGINT),
       cast(min(o_custkey) AS VARCHAR), cast(max(o_custkey) AS VARCHAR)
FROM orders
UNION ALL
SELECT 'o_orderstatus', cast(count(*) AS BIGINT),
       cast(count(*) - count(o_orderstatus) AS BIGINT),
       min(o_orderstatus), max(o_orderstatus) FROM orders
UNION ALL
SELECT 'o_orderpriority', cast(count(*) AS BIGINT),
       cast(count(*) - count(o_orderpriority) AS BIGINT),
       min(o_orderpriority), max(o_orderpriority) FROM orders
UNION ALL
SELECT 'o_orderdate', cast(count(*) AS BIGINT),
       cast(count(*) - count(o_orderdate) AS BIGINT),
       cast(min(o_orderdate) AS VARCHAR), cast(max(o_orderdate) AS VARCHAR)
FROM orders
"""


# =====================================================================
# Schema evolution: union of parquet generations with differing schemas
# =====================================================================

def _evolve_files(sf_dir: str) -> tuple[str, str]:
    """Deterministic two-generation input derived from documents:
    v1 (even doc_id) lacks the ``source`` column that v2 (odd doc_id)
    added — the schema-evolution shape every long-lived dataset hits.
    Built once per sf_dir (atomic rename), read by BOTH engines."""
    import os

    import pyarrow.parquet as pq

    tag = sf_dir.rstrip("/").split("/")[-1]
    base = f"/tmp/weakscraper_ray_evolve_{tag}"
    f1, f2 = f"{base}/v1.parquet", f"{base}/v2.parquet"
    if not (os.path.exists(f1) and os.path.exists(f2)):
        os.makedirs(base, exist_ok=True)
        t = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "lang", "source"])
        even = pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0)
        v1 = t.filter(even).select(["doc_id", "lang"])
        v2 = t.filter(pc.invert(even))
        for tbl, path in ((v1, f1), (v2, f2)):
            tmp = path + ".tmp"
            pq.write_table(tbl, tmp)
            os.replace(tmp, path)  # atomic under parallel tests
    return f1, f2


def q_schema_evolve_scan(sf_dir: str):
    """Read two parquet generations whose schemas differ (a column
    added in v2) as ONE dataset — Ray unifies by name, null-filling
    the missing column — then a per-lang roll-up splitting rows by
    new-column presence. The migration-audit query for evolving
    datasets; DuckDB mirrors via ``union_by_name``."""
    import ray.data

    f1, f2 = _evolve_files(sf_dir)
    ds = ray.data.read_parquet([f1, f2])

    def _part(batch: pa.Table) -> pa.Table:
        # blocks keep their SOURCE FILE's physical schema — a v1 block
        # has no `source` column at all (dataset-level unification
        # happens downstream); treat absent column as all-null
        if "source" in batch.schema.names:
            has = pc.cast(pc.is_valid(batch.column("source")), pa.int64())
        else:
            has = pa.array(np.zeros(batch.num_rows, np.int64))
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
                "with_source": has,
            }
        )
        return t.group_by("lang").aggregate(
            [("one", "sum"), ("with_source", "sum")]
        )

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("one_sum", alias_name="n_docs"),
                   Sum("with_source_sum", alias_name="n_with_source"))
    )
    pdf = out.to_pandas()
    return pd.DataFrame(
        {
            "lang": pdf["lang"].to_numpy(),
            "n_docs": pdf["n_docs"].to_numpy(dtype=np.int64),
            "n_with_source": pdf["n_with_source"].to_numpy(dtype=np.int64),
        }
    )


def sql_schema_evolve(sf_dir: str) -> str:
    f1, f2 = _evolve_files(sf_dir)
    return f"""
SELECT lang, cast(count(*) AS BIGINT) AS n_docs,
       cast(sum(CASE WHEN source IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_with_source
FROM read_parquet(['{f1}', '{f2}'], union_by_name=true)
GROUP BY lang
"""


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    """Twins whose SQL embeds data-dependent paths (merged by
    registry.oracle_sql)."""
    return {"schema_evolve_scan": sql_schema_evolve(sf_dir)}


# =====================================================================
# DSIR-style importance selection (Xie et al. 2023, public)
# =====================================================================

_DSIR_TOPK = 50


def q_dsir_select(sf_dir: str):
    """Data Selection via Importance Resampling (public: Xie et al.
    2023, 'Data Selection for Language Models via Importance
    Resampling'), at unigram-LM granularity: score every RAW document
    by its log importance ratio under a TARGET-domain unigram LM vs
    the raw-corpus LM (add-1 smoothing over the raw vocabulary), keep
    the top 50. Target here = the lang='en' slice (stand-in for 'the
    distribution you want more of').

    Shape: two vocabulary-bounded count exchanges (Heaps' law bound,
    the unigram_logprob machinery) → both count tables broadcast once
    via ``ray.put`` → ONE streaming scoring pass (C-level Series.map,
    per-token ratio terms quantized to e9 integers BEFORE the per-doc
    sum — order-free) → per-batch partial top-k → bounded driver cut."""
    import ray
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def _vocab_partial(batch: pa.Table) -> pa.Table:
        en = pc.equal(batch.column("lang"), "en").to_numpy(
            zero_copy_only=False
        )
        rows, toks_all = _explode_tokens(batch)
        t = pa.table(
            {
                "w": pa.array(toks_all, pa.string()),
                "one": pa.array(np.ones(len(toks_all), np.int64)),
                "tgt": pa.array(en[rows].astype(np.int64)),
            }
        )
        part = t.group_by("w").aggregate([("one", "sum"), ("tgt", "sum")])
        return pa.table(
            {
                "w": part.column("w"),
                "raw_n": pc.cast(part.column("one_sum"), pa.int64()),
                "tgt_n": pc.cast(part.column("tgt_sum"), pa.int64()),
            }
        )

    vocab = (
        ds.map_batches(_vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("raw_n", alias_name="raw_n"),
                   Sum("tgt_n", alias_name="tgt_n"))
        .to_pandas()
    )  # vocabulary-bounded
    v = len(vocab)
    raw_tot = int(vocab["raw_n"].sum())
    tgt_tot = int(vocab["tgt_n"].sum())
    raw_map = dict(zip(vocab["w"], vocab["raw_n"].astype(np.int64)))
    tgt_map = dict(zip(vocab["w"], vocab["tgt_n"].astype(np.int64)))
    model = ray.put((raw_map, tgt_map, float(raw_tot + v), float(tgt_tot + v)))

    def _score(batch: pa.Table) -> pa.Table:
        raw_c, tgt_c, raw_den, tgt_den = ray.get(model)
        rows, toks = _explode_tokens(batch)
        n_tok = np.bincount(rows, minlength=batch.num_rows)
        keep = n_tok > 0
        score = np.zeros(batch.num_rows, dtype=np.float64)
        if len(toks):
            s = pd.Series(toks)
            rn = s.map(raw_c).to_numpy(dtype=np.float64)
            tn = s.map(tgt_c).to_numpy(dtype=np.float64)
            # token-for-token mirror of the SQL term, e9-quantized
            # before the sum (order-free)
            term = _i64_away_np(
                np.log((tn + 1) / tgt_den) - np.log((rn + 1) / raw_den), 1e9
            )
            score = np.bincount(rows, weights=term,
                                minlength=batch.num_rows)
        out = pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().filter(
                    pa.array(keep)
                ),
                "n_tokens": pa.array(n_tok[keep].astype(np.int64)),
                "logratio_e9": pa.array(score[keep].astype(np.int64)),
            }
        )
        # batch-local prune: only the local top-k can reach the global cut
        df = out.to_pandas().sort_values(
            ["logratio_e9", "doc_id"], ascending=[False, True],
            kind="mergesort",
        )
        return pa.Table.from_pandas(df.head(_DSIR_TOPK),
                                    preserve_index=False)

    parts = (
        ds.map_batches(_score, batch_format="pyarrow").to_pandas()
    )  # bounded: <= topk × batches rows
    out = parts.sort_values(["logratio_e9", "doc_id"],
                            ascending=[False, True],
                            kind="mergesort").head(_DSIR_TOPK)
    return pd.DataFrame(
        {
            "doc_id": out["doc_id"].to_numpy(dtype=np.int64),
            "n_tokens": out["n_tokens"].to_numpy(dtype=np.int64),
            "logratio_e9": out["logratio_e9"].to_numpy(dtype=np.int64),
        }
    )


SQL_DSIR = r"""
WITH toks AS (
    SELECT doc_id, lang,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
cnt AS (
    SELECT w, count(*) AS raw_n,
           sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS tgt_n
    FROM t2 GROUP BY w),
tot AS (
    SELECT cast(sum(raw_n) + count(*) AS DOUBLE) AS raw_den,
           cast(sum(tgt_n) + count(*) AS DOUBLE) AS tgt_den
    FROM cnt),
sc AS (
    SELECT t2.doc_id,
           count(*) AS n_tokens,
           sum(cast(round((ln((cast(tgt_n AS DOUBLE) + 1) / tgt_den)
                           - ln((cast(raw_n AS DOUBLE) + 1) / raw_den))
                          * 1000000000, 0) AS BIGINT)) AS logratio_e9
    FROM t2 JOIN cnt USING (w) CROSS JOIN tot
    GROUP BY t2.doc_id)
SELECT doc_id, cast(n_tokens AS BIGINT) AS n_tokens,
       cast(logratio_e9 AS BIGINT) AS logratio_e9
FROM sc ORDER BY logratio_e9 DESC, doc_id LIMIT 50
"""


# =====================================================================
# Corpus divergence: Jensen-Shannon distance between two language
# slices' unigram distributions
# =====================================================================

def q_lang_divergence(sf_dir: str):
    """Jensen-Shannon divergence between the 'en' and 'de' slices'
    unigram distributions (add-1 smoothing over the union vocabulary) —
    the corpus-drift / source-comparison statistic. One
    vocabulary-bounded count exchange; the JSD arithmetic runs on the
    bounded vocab table with per-word terms quantized to e9 integers
    before the sum (order-free), then ONE mirrored final division."""
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def _part(batch: pa.Table) -> pa.Table:
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        rows, toks = _explode_tokens(batch)
        rl = lang[rows]
        mask = (rl == "en") | (rl == "de")
        t = pa.table(
            {
                "w": pa.array(toks[mask], pa.string()),
                "p_n": pa.array((rl[mask] == "en").astype(np.int64)),
                "q_n": pa.array((rl[mask] == "de").astype(np.int64)),
            }
        )
        part = t.group_by("w").aggregate([("p_n", "sum"), ("q_n", "sum")])
        return pa.table(
            {
                "w": part.column("w"),
                "p_n": pc.cast(part.column("p_n_sum"), pa.int64()),
                "q_n": pc.cast(part.column("q_n_sum"), pa.int64()),
            }
        )

    vocab = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("p_n", alias_name="p_n"), Sum("q_n", alias_name="q_n"))
        .to_pandas()
    )  # union-vocabulary-bounded
    v = len(vocab)
    p_tot = int(vocab["p_n"].sum())
    q_tot = int(vocab["q_n"].sum())
    p = (vocab["p_n"].to_numpy(dtype=np.float64) + 1) / float(p_tot + v)
    q = (vocab["q_n"].to_numpy(dtype=np.float64) + 1) / float(q_tot + v)
    m = (p + q) / 2
    # per-word terms quantized before the sum (mirrors the SQL)
    term = _i64_away_np(p * np.log(p / m) + q * np.log(q / m), 1e9)
    jsd = float(int(term.sum())) / 1_000_000_000 / 2
    return pd.DataFrame(
        {
            "n_vocab": np.array([v], dtype=np.int64),
            "en_tokens": np.array([p_tot], dtype=np.int64),
            "de_tokens": np.array([q_tot], dtype=np.int64),
            "jsd_e9": _i64_away_np([jsd], scale=1e9),
        }
    )


SQL_LANG_DIVERGENCE = r"""
WITH toks AS (
    SELECT lang,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents WHERE lang IN ('en', 'de')),
t2 AS (SELECT * FROM toks WHERE w <> ''),
cnt AS (
    SELECT w, sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS p_n,
           sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END) AS q_n
    FROM t2 GROUP BY w),
tot AS (
    SELECT count(*) AS v, sum(p_n) AS p_tot, sum(q_n) AS q_tot FROM cnt),
pq AS (
    SELECT (cast(p_n AS DOUBLE) + 1) / cast(p_tot + v AS DOUBLE) AS p,
           (cast(q_n AS DOUBLE) + 1) / cast(q_tot + v AS DOUBLE) AS q
    FROM cnt CROSS JOIN tot),
terms AS (
    SELECT cast(round((p * ln(p / ((p + q) / 2))
                       + q * ln(q / ((p + q) / 2))) * 1000000000, 0)
                AS BIGINT) AS term
    FROM pq)
SELECT (SELECT cast(v AS BIGINT) FROM tot)      AS n_vocab,
       (SELECT cast(p_tot AS BIGINT) FROM tot)  AS en_tokens,
       (SELECT cast(q_tot AS BIGINT) FROM tot)  AS de_tokens,
       cast(round(cast(sum(term) AS DOUBLE) / 1000000000 / 2
                  * 1000000000, 0) AS BIGINT)   AS jsd_e9
FROM terms
"""


# =====================================================================
# Grouped vocabulary ranking: top-5 terms per language
# =====================================================================

def q_lang_word_topk(sf_dir: str):
    """Top-5 terms per language (count desc, term asc ties) — the
    grouped variant of word_topk. Per-batch (lang, term) count
    partials → one vocabulary×languages-bounded exchange → per-lang
    rank."""
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def _part(batch: pa.Table) -> pa.Table:
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        rows, toks = _explode_tokens(batch)
        t = pa.table(
            {
                "lang": pa.array(lang[rows], pa.string()),
                "term": pa.array(toks, pa.string()),
            }
        )
        part = t.group_by(["lang", "term"]).aggregate([("term", "count")])
        return pa.table(
            {
                "lang": part.column("lang"),
                "term": part.column("term"),
                "n": pc.cast(part.column("term_count"), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _top(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["n", "term"], ascending=[False, True],
                          kind="mergesort").head(5)
        return pd.DataFrame(
            {
                "lang": d["lang"].to_numpy(),
                "term": d["term"].to_numpy(),
                "n": d["n"].to_numpy(dtype=np.int64),
                "rk": np.arange(1, len(d) + 1, dtype=np.int64),
            }
        )

    return counts.groupby("lang").map_groups(_top, batch_format="pandas")


SQL_LANG_WORD_TOPK = r"""
WITH toks AS (
    SELECT lang,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
c AS (SELECT lang, w AS term, count(*) AS n FROM t2 GROUP BY lang, w)
SELECT lang, term, cast(n AS BIGINT) AS n, cast(rk AS BIGINT) AS rk FROM (
  SELECT lang, term, n,
         row_number() OVER (PARTITION BY lang ORDER BY n DESC, term) AS rk
  FROM c) WHERE rk <= 5
"""


# =====================================================================
# Activity heatmap: day-of-week × hour counts (calendar bucketing)
# =====================================================================

def q_activity_heatmap(sf_dir: str):
    """(day-of-week, hour) event counts — the usage-heatmap query.
    Calendar buckets computed as INTEGER EPOCH ARITHMETIC on both
    engines (dow = (epoch_day + 4) % 7, 0 = Sunday; 1970-01-01 was a
    Thursday) rather than engine calendar functions, whose week-start
    conventions differ. Per-batch partials; one 7×24-bounded exchange."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["ts"])

    def _part(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        dow = (us // _US_PER_DAY + 4) % 7
        hour = (us // 3_600_000_000) % 24
        t = pa.table(
            {
                "dow": pa.array(dow, pa.int64()),
                "hour": pa.array(hour, pa.int64()),
                "one": pa.array(np.ones(len(us), np.int64)),
            }
        )
        return t.group_by(["dow", "hour"]).aggregate([("one", "sum")])

    out = (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby(["dow", "hour"])
        .aggregate(Sum("one_sum", alias_name="n"))
    )
    pdf = out.to_pandas()
    return pd.DataFrame(
        {
            "dow": pdf["dow"].to_numpy(dtype=np.int64),
            "hour": pdf["hour"].to_numpy(dtype=np.int64),
            "n": pdf["n"].to_numpy(dtype=np.int64),
        }
    )


SQL_ACTIVITY_HEATMAP = """
WITH e AS (SELECT epoch_us(cast(ts AS TIMESTAMP)) AS us FROM events)
SELECT (us // 86400000000 + 4) % 7 AS dow,
       (us // 3600000000) % 24     AS hour,
       cast(count(*) AS BIGINT)    AS n
FROM e GROUP BY dow, hour
"""


# =====================================================================
# Sorted-neighborhood dedup (Hernandez & Stolfo 1995, public) —
# the sort-based blocking family, complementing LSH/SimHash
# =====================================================================

_SNM_WINDOW = 2


def _snm_shingles(text: str) -> set:
    w = (text or "").lower().split()
    return set(" ".join(w[i : i + 3]) for i in range(len(w) - 2))


def _snm_block(g: pd.DataFrame) -> pd.DataFrame:
    d = g.sort_values(["k", "doc_id"], kind="mergesort")
    ids = d["doc_id"].to_numpy()
    texts = d["text"].to_numpy()
    sh = [_snm_shingles(t) for t in texts]
    a_out, b_out = [], []
    for off in range(1, _SNM_WINDOW + 1):
        for i in range(len(ids) - off):
            sa, sb = sh[i], sh[i + off]
            # same integer Jaccard>=0.5 rule + empty-evidence guard as
            # the minhash verify (ADVICE r2)
            if (sa or sb) and 3 * len(sa & sb) >= len(sa) + len(sb):
                a_out.append(int(ids[i]))
                b_out.append(int(ids[i + off]))
    return pd.DataFrame(
        {
            "doc_a": np.asarray(a_out, dtype=np.int64),
            "doc_b": np.asarray(b_out, dtype=np.int64),
        }
    )


def q_dedup_snm(sf_dir: str):
    """Sorted-neighborhood near-dup candidates (public: Hernandez &
    Stolfo 1995 'merge/purge'): normalize text, block on the 4-char
    key prefix, sort each block by the 12-char key, pair each row with
    its next 2 neighbors, verify with the exact integer 3-gram-Jaccard
    rule. The sort-based blocking family — a third discovery mechanism
    next to MinHash-LSH (hash-based) and SimHash (bit-based); the
    deployed multi-pass/blocked variant (pure SNM's single global rank
    would use the pack_budget prefix-scan). One groupby(block)
    exchange; the in-block window join is O(w·n) vectorized-adjacent,
    never all-pairs."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _proj(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(
            pc.coalesce(batch.column("text"), pa.scalar("", pa.string()))
        )
        norm = pc.utf8_trim(
            pc.replace_substring_regex(low, pattern=r"\s+", replacement=" "),
            characters=" ",
        )
        return pa.table(
            {
                "blk": pc.utf8_slice_codeunits(norm, 0, 4),
                "k": pc.utf8_slice_codeunits(norm, 0, 12),
                "doc_id": batch.column("doc_id"),
                "text": batch.column("text"),
            }
        )

    return (
        ds.map_batches(_proj, batch_format="pyarrow")
        .groupby("blk")
        .map_groups(_snm_block, batch_format="pandas")
    )


SQL_DEDUP_SNM = r"""
WITH n AS (
  SELECT doc_id, text,
         trim(regexp_replace(lower(coalesce(text, '')), '\s+', ' ', 'g'),
              ' ') AS norm
  FROM documents),
r AS (
  SELECT doc_id, substr(norm, 1, 12) AS k, substr(norm, 1, 4) AS blk,
         row_number() OVER (PARTITION BY substr(norm, 1, 4)
                            ORDER BY substr(norm, 1, 12), doc_id) AS rn
  FROM n),
cand AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM r a JOIN r b ON a.blk = b.blk AND b.rn - a.rn BETWEEN 1 AND 2),
sh AS (
  SELECT doc_id,
         list_distinct(
           list_transform(range(1, len(w) - 1),
                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
         ) AS s
  FROM (SELECT doc_id,
               regexp_split_to_array(trim(lower(coalesce(text, ''))),
                                     '\s+') AS w
        FROM documents))
SELECT doc_a, doc_b
FROM cand
JOIN sh a ON a.doc_id = cand.doc_a
JOIN sh b ON b.doc_id = cand.doc_b
WHERE len(a.s) + len(b.s) > 0
  AND 3 * len(list_intersect(a.s, b.s)) >= len(a.s) + len(b.s)
"""


# =====================================================================
# Max burst: sliding 60-second RANGE-frame count per user
# =====================================================================

def _burst_shard(g: pd.DataFrame) -> pd.DataFrame:
    # RANGE-frame semantics: for each row, count rows with value in
    # [us, us + 60 s) — includes value-peers on both sides, exactly
    # DuckDB's RANGE BETWEEN CURRENT ROW AND 59999999 FOLLOWING.
    # ONE searchsorted pass per SHARD over a composite (user-code,
    # rebased-us) key: a 60 s window cannot cross users because each
    # user's code block is separated by more than the shard's whole
    # time range. Overflow bound: codes·(range+60s) < 2^63 ⇒ ~3.5M
    # users per shard at a 30-day range — raise the shard count before
    # that (the _RUN_SHARDS knob), as the docstring notes.
    d = g.sort_values(["user_id", "us"], kind="mergesort")
    u = d["user_id"].to_numpy(np.int64)
    us = d["us"].to_numpy(np.int64)
    codes = np.cumsum(np.r_[0, (u[1:] != u[:-1]).astype(np.int64)])
    base = us.min() if len(us) else 0
    span = (us.max() - base + 61_000_000) if len(us) else 1
    key = codes * span + (us - base)
    lo = np.searchsorted(key, key, side="left")
    hi = np.searchsorted(key, key + 59_999_999, side="right")
    agg = pd.DataFrame({"user_id": u, "b": hi - lo}).groupby(
        "user_id", sort=False
    )["b"].max()
    return pd.DataFrame(
        {
            "user_id": agg.index.to_numpy(np.int64),
            "max_burst": agg.to_numpy(np.int64),
        }
    )


def q_max_burst(sf_dir: str):
    """Peak 60-second event burst per user — the VALUE-RANGE window
    frame (vs the ROWS frame of moving_avg and the bucketed frames of
    window_tumbling/hopping), distributed as one groupby(user)
    exchange + a per-group double binary search (O(n log n), no
    per-row rescan)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def _proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    from .relational import _schema_guard, _user_shard

    return _schema_guard(
        ds.map_batches(_proj, batch_format="pyarrow")
        .map_batches(_user_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_burst_shard, batch_format="pandas"),
        pa.schema([("user_id", pa.int64()), ("max_burst", pa.int64())]),
    )


SQL_MAX_BURST = """
WITH e AS (
  SELECT user_id, epoch_us(cast(ts AS TIMESTAMP)) AS us FROM events),
w AS (
  SELECT user_id,
         count(*) OVER (PARTITION BY user_id ORDER BY us
                        RANGE BETWEEN CURRENT ROW AND 59999999 FOLLOWING)
             AS c
  FROM e)
SELECT user_id, cast(max(c) AS BIGINT) AS max_burst
FROM w GROUP BY user_id
"""


# =====================================================================
# Dedup-method evaluation: SNM candidates vs the exact pair truth
# =====================================================================

def q_dedup_eval(sf_dir: str):
    """Precision/recall of the sorted-neighborhood discovery against
    the exact all-pairs 3-gram-Jaccard truth set — the evaluation
    harness a dedup-method choice needs. Both pair sets come from the
    engine's own operators (truth = the LSH pipeline's verified pairs,
    measured full-recall on this corpus; candidate = dedup_snm);
    orientation-normalized before comparison. The pair sets are
    LSH/window-bounded, so the set algebra runs driver-side; at a
    scale where they aren't, it becomes one groupby((min,max)) cogroup."""
    from .relational import q_dedup_minhash

    def _pairs(query):
        r = query(sf_dir)
        df = r.to_pandas() if hasattr(r, "to_pandas") else r
        a = df["doc_a"].to_numpy(dtype=np.int64)
        b = df["doc_b"].to_numpy(dtype=np.int64)
        return set(zip(np.minimum(a, b), np.maximum(a, b)))

    truth = _pairs(q_dedup_minhash)
    cand = _pairs(q_dedup_snm)
    hit = len(truth & cand)
    # mirrored doubles: cast(hit AS DOUBLE) / n * 1e6, half-away
    prec = float(hit) / len(cand) * 1e6 if cand else 0.0
    rec = float(hit) / len(truth) * 1e6 if truth else 0.0
    return pd.DataFrame(
        {
            "n_truth": np.array([len(truth)], dtype=np.int64),
            "n_candidates": np.array([len(cand)], dtype=np.int64),
            "n_hit": np.array([hit], dtype=np.int64),
            "precision_e6": _i64_away_np([prec], scale=1.0),
            "recall_e6": _i64_away_np([rec], scale=1.0),
        }
    )


SQL_DEDUP_EVAL = r"""
WITH n AS (
  SELECT doc_id, text,
         trim(regexp_replace(lower(coalesce(text, '')), '\s+', ' ', 'g'),
              ' ') AS norm
  FROM documents),
r AS (
  SELECT doc_id, substr(norm, 1, 12) AS k, substr(norm, 1, 4) AS blk,
         row_number() OVER (PARTITION BY substr(norm, 1, 4)
                            ORDER BY substr(norm, 1, 12), doc_id) AS rn
  FROM n),
sh AS (
  SELECT doc_id,
         list_distinct(
           list_transform(range(1, len(w) - 1),
                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
         ) AS s
  FROM (SELECT doc_id,
               regexp_split_to_array(trim(lower(coalesce(text, ''))),
                                     '\s+') AS w
        FROM documents)),
truth AS (
  SELECT a.doc_id AS pa, b.doc_id AS pb
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE len(a.s) + len(b.s) > 0
    AND 3 * len(list_intersect(a.s, b.s)) >= len(a.s) + len(b.s)),
cand AS (
  SELECT DISTINCT least(a.doc_id, b.doc_id) AS pa,
         greatest(a.doc_id, b.doc_id) AS pb
  FROM r a JOIN r b ON a.blk = b.blk AND b.rn - a.rn BETWEEN 1 AND 2
  JOIN sh x ON x.doc_id = a.doc_id
  JOIN sh y ON y.doc_id = b.doc_id
  WHERE len(x.s) + len(y.s) > 0
    AND 3 * len(list_intersect(x.s, y.s)) >= len(x.s) + len(y.s)),
m AS (
  SELECT (SELECT count(*) FROM truth) AS n_truth,
         (SELECT count(*) FROM cand)  AS n_candidates,
         (SELECT count(*) FROM truth JOIN cand USING (pa, pb)) AS n_hit)
SELECT cast(n_truth AS BIGINT) AS n_truth,
       cast(n_candidates AS BIGINT) AS n_candidates,
       cast(n_hit AS BIGINT) AS n_hit,
       cast(round(CASE WHEN n_candidates > 0
                       THEN cast(n_hit AS DOUBLE) / n_candidates * 1000000
                       ELSE 0 END, 0) AS BIGINT) AS precision_e6,
       cast(round(CASE WHEN n_truth > 0
                       THEN cast(n_hit AS DOUBLE) / n_truth * 1000000
                       ELSE 0 END, 0) AS BIGINT) AS recall_e6
FROM m
"""


# =====================================================================
# Watermark lateness accounting (streaming allowed-lateness read-out)
# =====================================================================

_LATE_CHUNK = 2_097_152  # arrival-key span per scan chunk; at 100 TB
                         # the carry table is keyspace/chunk rows —
                         # move to a two-level (chunk-of-chunks) scan
_LATE_SEC = 60
_SENTINEL = np.iinfo(np.int64).min
# Arrival order = a deterministic LCG scramble of event_id (odd
# multiplier → bijective mod 2^31, so the order is total with no
# ties). The raw data is time-sorted by event_id, which would make
# every watermark comparison vacuously on-time; the scramble models a
# realistically out-of-order arrival stream while staying exactly
# SQL-mirrorable (no seeded RNG).
_LCG_A, _LCG_C, _LCG_M = 1_664_525, 1_013_904_223, 1 << 31


def _akey(eid: np.ndarray) -> np.ndarray:
    return (eid * _LCG_A + _LCG_C) & (_LCG_M - 1)


def _late_chunk_max(batch: pa.Table) -> pa.Table:
    eid = batch.column("event_id").to_numpy(zero_copy_only=False)
    s = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
        zero_copy_only=False
    ) // _US_PER_S
    df = pd.DataFrame({"chunk": _akey(eid) // _LATE_CHUNK, "m": s})
    g = df.groupby("chunk", sort=False)["m"].max()
    return pa.table(
        {
            "chunk": pa.array(g.index.to_numpy(np.int64)),
            "m": pa.array(g.to_numpy(np.int64)),
        }
    )


def q_late_events(sf_dir: str):
    """Streaming watermark / allowed-lateness accounting: with arrival
    order = an LCG scramble of event_id (see _akey), the watermark
    before event i is the running max of prior timestamps; an event is
    late when it trails the watermark by > 60 s.
    Distributed as the textbook two-phase PREFIX-MAX scan:
    a cheap stats pass computes per-chunk max timestamps (bounded
    carry table), the driver's exclusive running max supplies each
    chunk's carry-in, and phase 2 co-locates each chunk once
    (groupby(chunk)) for the vectorized within-chunk exclusive
    cummax + lateness tag, reduced to per-day counts in place."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])
    # phase-1 carry table: per-batch chunk maxima are already bounded
    # scan metadata (<= #chunks rows per batch), so the keyed exchange
    # the groupby(chunk).Max form paid (~2 s operator startup) is pure
    # overhead — Max is associative; fold the partials on the driver.
    stats = (
        ds.map_batches(_late_chunk_max, batch_format="pyarrow")
        .to_pandas()  # per-batch chunk maxima — bounded scan metadata
        .groupby("chunk", sort=True)["m"]
        .max()
        .reset_index()
        .sort_values("chunk")
    )
    run = np.maximum.accumulate(stats["m"].to_numpy(np.int64))
    carry = dict(
        zip(
            stats["chunk"].to_numpy(np.int64).tolist(),
            np.concatenate(([_SENTINEL], run[:-1])).tolist(),
        )
    )

    def _tag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("akey")
        s = g["ts"].to_numpy(np.int64) // _US_PER_S  # _chunked emits int64 us
        c = carry.get(int(g["chunk"].iloc[0]), _SENTINEL)
        prev = np.concatenate(([_SENTINEL], np.maximum.accumulate(s)[:-1]))
        wm = np.maximum(prev, c)
        late = (wm != _SENTINEL) & (wm - s > _LATE_SEC)
        df = pd.DataFrame({"day": s // 86_400, "late": late.astype(np.int64)})
        r = df.groupby("day")["late"].agg(["sum", "size"])
        return pd.DataFrame(
            {
                "day": r.index.to_numpy(np.int64),
                "n_late": r["sum"].to_numpy(np.int64),
                "n_events": r["size"].to_numpy(np.int64),
            }
        )

    def _chunked(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        ak = _akey(eid)
        return pa.table(
            {
                "chunk": pa.array(ak // _LATE_CHUNK, pa.int64()),
                "akey": pa.array(ak, pa.int64()),
                "ts": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    # each chunk group already reduced to per-day counts (day domain
    # is fixed by the dataset's time span), so the final Sum is a
    # driver fold, not a second keyed exchange.
    parts = (
        ds.map_batches(_chunked, batch_format="pyarrow")
        .groupby("chunk")
        .map_groups(_tag, batch_format="pandas")
        .to_pandas()
        .groupby("day", sort=True)[["n_late", "n_events"]]
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "day": pa.array(parts["day"].to_numpy(np.int64)),
            "n_late": pa.array(parts["n_late"].to_numpy(np.int64)),
            "n_events": pa.array(parts["n_events"].to_numpy(np.int64)),
        }
    )


SQL_LATE_EVENTS = f"""
WITH c AS (
  SELECT (event_id * {_LCG_A} + {_LCG_C}) % {_LCG_M} AS akey,
         epoch_us(cast(ts AS TIMESTAMP)) // 1000000 AS s
  FROM events),
w AS (
  SELECT s,
         max(s) OVER (ORDER BY akey
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             AS wm
  FROM c)
SELECT cast(s // 86400 AS BIGINT) AS day,
       cast(count_if(wm - s > {_LATE_SEC}) AS BIGINT) AS n_late,
       cast(count(*) AS BIGINT) AS n_events
FROM w GROUP BY 1
"""


QUERIES = {
    "late_events": q_late_events,
    "interval_coverage": q_interval_coverage,
    "trend_slope": q_trend_slope,
    "substring_dedup": q_substring_dedup,
    "table_checksum": q_table_checksum,
    "ntile_assign": q_ntile_assign,
    "token_entropy": q_token_entropy,
    "key_skew": q_key_skew,
    "time_weighted_avg": q_time_weighted_avg,
    "peak_concurrency": q_peak_concurrency,
    "debounce": q_debounce,
    "group_quota": q_group_quota,
    "rule_tag": q_rule_tag,
    "trending_terms": q_trending_terms,
    "reconcile_orders": q_reconcile_orders,
    "cumulative_users": q_cumulative_users,
    "mode_value": q_mode_value,
    "pmi_bigrams": q_pmi_bigrams,
    "wau_rolling": q_wau_rolling,
    "iqr_trim": q_iqr_trim,
    "embedding_normalize": q_embedding_normalize,
    "sentence_stats": q_sentence_stats,
    "geo_mean_value": q_geo_mean_value,
    "negative_sampling": q_negative_sampling,
    "event_path": q_event_path,
    "interarrival_hist": q_interarrival_hist,
    "profile_orders": q_profile_orders,
    "schema_evolve_scan": q_schema_evolve_scan,
    "dsir_select": q_dsir_select,
    "lang_divergence": q_lang_divergence,
    "lang_word_topk": q_lang_word_topk,
    "activity_heatmap": q_activity_heatmap,
    "dedup_snm": q_dedup_snm,
    "max_burst": q_max_burst,
    "dedup_eval": q_dedup_eval,
}

ORACLE_SQL = {
    "late_events": SQL_LATE_EVENTS,
    "interval_coverage": SQL_INTERVAL_COVERAGE,
    "trend_slope": SQL_TREND_SLOPE,
    "substring_dedup": SQL_SUBSTRING_DEDUP,
    "table_checksum": SQL_TABLE_CHECKSUM,
    "ntile_assign": SQL_NTILE,
    "token_entropy": SQL_TOKEN_ENTROPY,
    "key_skew": SQL_KEY_SKEW,
    "time_weighted_avg": SQL_TIME_WEIGHTED_AVG,
    "peak_concurrency": SQL_PEAK_CONCURRENCY,
    "debounce": SQL_DEBOUNCE,
    "group_quota": SQL_GROUP_QUOTA,
    "rule_tag": SQL_RULE_TAG,
    "trending_terms": SQL_TRENDING,
    "reconcile_orders": SQL_RECONCILE,
    "cumulative_users": SQL_CUMULATIVE_USERS,
    "mode_value": SQL_MODE_VALUE,
    "pmi_bigrams": SQL_PMI_BIGRAMS,
    "wau_rolling": SQL_WAU,
    "iqr_trim": SQL_IQR_TRIM,
    "embedding_normalize": SQL_EMBEDDING_NORMALIZE,
    "sentence_stats": SQL_SENTENCE_STATS,
    "geo_mean_value": SQL_GEO_MEAN,
    "negative_sampling": SQL_NEGATIVE_SAMPLING,
    "event_path": SQL_EVENT_PATH,
    "interarrival_hist": SQL_INTERARRIVAL_HIST,
    "profile_orders": SQL_PROFILE,
    "dsir_select": SQL_DSIR,
    "lang_divergence": SQL_LANG_DIVERGENCE,
    "lang_word_topk": SQL_LANG_WORD_TOPK,
    "activity_heatmap": SQL_ACTIVITY_HEATMAP,
    "dedup_snm": SQL_DEDUP_SNM,
    "max_burst": SQL_MAX_BURST,
    "dedup_eval": SQL_DEDUP_EVAL,
}
