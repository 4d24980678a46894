"""Round-3 continuation #9 (batch 2): corpus/experiment statistics —
Zipf rank-frequency fit and a Welch two-sample experiment read-out.
Each is a ``queries()`` entry with a DuckDB oracle twin.

Exactness strategy (the repo's quantize-then-sum convention, see
``series.q_token_entropy`` / ``q_trend_slope``): every logarithm is
quantized to an e6 integer FIRST (DuckDB ``ln`` and Python
``math.log`` are the same libm call — verified bit-identical over the
full count range in tests), all sums then run in exact integer
arithmetic, and the single final double expression is mirrored
op-for-op — so the result is partitioning- and order-independent and
hash-exact against SQL.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away, _read

_ZIPF_TOPK = 200


def _q_e6(v: float) -> int:
    """round(v * 1e6) half away from zero (DuckDB round), exact for
    the non-negative ln values used here."""
    return int(math.floor(abs(v) * 1e6 + 0.5)) * (1 if v >= 0 else -1)


def _away(v: float) -> int:
    return int(math.floor(abs(v) + 0.5)) * (1 if v >= 0 else -1)


# =====================================================================
# Zipf rank-frequency slope over the corpus vocabulary
# =====================================================================

def q_zipf_slope(sf_dir: str):
    """Fit ln(count) = slope·ln(rank) + intercept over the top-200
    corpus terms — the Zipf's-law read-out used to sanity-check a
    training corpus's token distribution (natural text ≈ −1; templated
    or synthetic text drifts toward 0). The heavy part reuses the
    vocabulary-bounded term-count reduction (shuffle payload = batch
    vocabulary, never the token stream); the regression itself runs on
    ≤200 (rank, count) integers via quantized-log OLS."""
    from .tokenizer import _term_partial, _topk_terms

    ds = _read(sf_dir, "documents", ["text"])
    top = _topk_terms(
        ds.map_batches(_term_partial, batch_format="pyarrow"), "term", _ZIPF_TOPK
    ).to_pandas()  # ordered (n desc, term asc); bounded at 200 rows
    k = len(top)
    lx = [_q_e6(math.log(r)) for r in range(1, k + 1)]
    ly = [_q_e6(math.log(int(n))) for n in top["n"]]
    sx, sy = sum(lx), sum(ly)
    sxx = sum(v * v for v in lx)
    sxy = sum(a * b for a, b in zip(lx, ly))
    den = float(k * sxx - sx * sx)
    slope = float(k * sxy - sx * sy) / den
    intercept = (float(sy) - slope * float(sx)) / float(k)
    return pd.DataFrame(
        {
            "n_terms": pd.array([k], dtype="int64"),
            "slope_e6": pd.array([_away(slope * 1e6)], dtype="int64"),
            "intercept_e6": pd.array([_away(intercept)], dtype="int64"),
        }
    )


SQL_ZIPF = rf"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS term FROM documents),
wc AS (
  SELECT term, cast(count(*) AS BIGINT) AS n
  FROM toks GROUP BY term ORDER BY n DESC, term LIMIT {_ZIPF_TOPK}),
rk AS (
  SELECT cast(round(ln(cast(row_number() OVER (ORDER BY n DESC, term)
                            AS DOUBLE)) * 1000000, 0) AS BIGINT) AS lx,
         cast(round(ln(cast(n AS DOUBLE)) * 1000000, 0) AS BIGINT) AS ly
  FROM wc),
s AS (
  SELECT cast(count(*) AS BIGINT) AS k, sum(lx) AS sx, sum(ly) AS sy,
         sum(lx*lx) AS sxx, sum(lx*ly) AS sxy
  FROM rk)
SELECT k AS n_terms,
       cast(round(cast(k*sxy - sx*sy AS DOUBLE)
                  / cast(k*sxx - sx*sx AS DOUBLE) * 1000000, 0) AS BIGINT)
           AS slope_e6,
       cast(round((cast(sy AS DOUBLE)
                   - cast(k*sxy - sx*sy AS DOUBLE)
                     / cast(k*sxx - sx*sx AS DOUBLE) * cast(sx AS DOUBLE))
                  / cast(k AS DOUBLE), 0) AS BIGINT)
           AS intercept_e6
FROM s
"""


# =====================================================================
# Welch two-sample experiment read-out (A/B by user_id parity)
# =====================================================================

def _ab_partial(batch: pa.Table) -> pa.Table:
    u = batch.column("user_id").to_numpy(zero_copy_only=False)
    y = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
    out = {"variant": [], "n": [], "sy": [], "syy": []}
    for v in (0, 1):
        m = (u % 2) == v
        out["variant"].append(v)
        out["n"].append(int(m.sum()))
        out["sy"].append(int(y[m].sum()))
        out["syy"].append(int((y[m] * y[m]).sum()))
    return pa.table(
        {
            "variant": pa.array(out["variant"], pa.int64()),
            "n": pa.array(out["n"], pa.int64()),
            "sy": pa.array(out["sy"], pa.int64()),
            "syy": pa.array(out["syy"], pa.int64()),
        }
    )


def q_ab_test(sf_dir: str):
    """Welch's t read-out of a (deterministic, user-parity) A/B
    assignment over event value-cents: the experiment-analysis
    primitive. The scan reduces to 2×(n, Σy, Σy²) int64 partials per
    batch — map-only, constant-size exchange — and the final t
    statistic is ONE double expression from exact integer sums,
    mirrored op-for-op in SQL. (Σy² stays int64-exact here; at larger
    value scales the partial would move to HUGEINT/float128 the same
    way ``analytics.q_corr_stats`` documents.)"""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "value"])
    agg = (
        ds.map_batches(_ab_partial, batch_format="pyarrow")
        .groupby("variant")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sy", alias_name="sy"),
            Sum("syy", alias_name="syy"),
        )
        .to_pandas()  # 2 rows
        .set_index("variant")
    )
    res = {}
    for v in (0, 1):
        n = int(agg.loc[v, "n"])
        sy = int(agg.loc[v, "sy"])
        syy = int(agg.loc[v, "syy"])
        m = float(sy) / float(n)
        var = (float(syy) - float(sy) * float(sy) / float(n)) / float(n - 1)
        res[v] = (n, m, var)
    (na, ma, va), (nb, mb, vb) = res[0], res[1]
    t = (mb - ma) / math.sqrt(va / float(na) + vb / float(nb))
    return pd.DataFrame(
        {
            "n_a": pd.array([na], dtype="int64"),
            "n_b": pd.array([nb], dtype="int64"),
            "mean_diff_e6": pd.array([_away((mb - ma) * 1e6)], dtype="int64"),
            "t_e6": pd.array([_away(t * 1e6)], dtype="int64"),
        }
    )


SQL_AB = """
WITH c AS (
  SELECT user_id % 2 AS variant,
         cast(round(value * 100, 0) AS BIGINT) AS y
  FROM events),
s AS (
  SELECT variant, cast(count(*) AS BIGINT) AS n,
         cast(sum(y) AS BIGINT) AS sy, cast(sum(y*y) AS BIGINT) AS syy
  FROM c GROUP BY variant),
p AS (
  SELECT max(CASE WHEN variant = 0 THEN n END)  AS na,
         max(CASE WHEN variant = 0 THEN sy END) AS sya,
         max(CASE WHEN variant = 0 THEN syy END) AS syya,
         max(CASE WHEN variant = 1 THEN n END)  AS nb,
         max(CASE WHEN variant = 1 THEN sy END) AS syb,
         max(CASE WHEN variant = 1 THEN syy END) AS syyb
  FROM s),
f AS (
  SELECT na, nb,
         cast(sya AS DOUBLE)/cast(na AS DOUBLE) AS ma,
         cast(syb AS DOUBLE)/cast(nb AS DOUBLE) AS mb,
         (cast(syya AS DOUBLE)
          - cast(sya AS DOUBLE)*cast(sya AS DOUBLE)/cast(na AS DOUBLE))
           / cast(na - 1 AS DOUBLE) AS va,
         (cast(syyb AS DOUBLE)
          - cast(syb AS DOUBLE)*cast(syb AS DOUBLE)/cast(nb AS DOUBLE))
           / cast(nb - 1 AS DOUBLE) AS vb
  FROM p)
SELECT na AS n_a, nb AS n_b,
       cast(round((mb - ma) * 1000000, 0) AS BIGINT) AS mean_diff_e6,
       cast(round((mb - ma)
                  / sqrt(va / cast(na AS DOUBLE) + vb / cast(nb AS DOUBLE))
                  * 1000000, 0) AS BIGINT) AS t_e6
FROM f
"""


# =====================================================================
# Rolling 7-day correlation between two metric streams
# =====================================================================

_US_PER_DAY = 86_400_000_000
_CORR_W = 7
_CORR_A, _CORR_B = "click", "view"


def _daily_partial(batch: pa.Table) -> pa.Table:
    et = batch.column("event_type").to_numpy(zero_copy_only=False)
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    y = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
    day = us // _US_PER_DAY
    df = pd.DataFrame(
        {
            "day": day,
            "x": np.where(et == _CORR_A, y, 0),
            "y": np.where(et == _CORR_B, y, 0),
        }
    )
    g = df.groupby("day", sort=False).sum()
    return pa.table(
        {
            "day": pa.array(g.index.to_numpy(np.int64)),
            "x": pa.array(g["x"].to_numpy(np.int64)),
            "y": pa.array(g["y"].to_numpy(np.int64)),
        }
    )


def q_rolling_corr(sf_dir: str):
    """Trailing-7-row Pearson correlation between the daily cents
    totals of two event streams (the 'do these metrics co-move' ops
    read-out). The scan reduces to day-bounded (day, Σx, Σy) int64
    partials — one constant-size exchange; the window pass runs over
    one row per day (bounded metadata) with exact integer window sums
    and ONE mirrored double expression per output row. Window is
    row-based over the ordered daily series (frames shorter than 7
    are not emitted), matching the SQL ROWS frame exactly."""
    from ray.data.aggregate import Sum

    daily = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_daily_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("x", alias_name="x"), Sum("y", alias_name="y"))
        .to_pandas()  # one row per day
        .sort_values("day")
        .reset_index(drop=True)
    )
    x = daily["x"].astype("int64").tolist()  # Python ints: exact products
    y = daily["y"].astype("int64").tolist()
    days = daily["day"].tolist()
    out_day, out_corr = [], []
    w = _CORR_W
    for i in range(w - 1, len(daily)):
        xs, ys = x[i - w + 1: i + 1], y[i - w + 1: i + 1]
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        num = float(w * sxy - sx * sy)
        den = math.sqrt(float(w * sxx - sx * sx)) * math.sqrt(
            float(w * syy - sy * sy)
        )
        out_day.append(int(days[i]))
        out_corr.append(_away(num / den * 1e6))
    return pd.DataFrame(
        {
            "day": pd.array(out_day, dtype="int64"),
            "corr_e6": pd.array(out_corr, dtype="int64"),
        }
    )


SQL_ROLLING_CORR = f"""
WITH c AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(sum(CASE WHEN event_type = '{_CORR_A}'
                       THEN cast(round(value * 100, 0) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS x,
         cast(sum(CASE WHEN event_type = '{_CORR_B}'
                       THEN cast(round(value * 100, 0) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS y
  FROM events GROUP BY 1),
w AS (
  SELECT day,
         row_number() OVER (ORDER BY day) AS rn,
         sum(x)   OVER win AS sx,  sum(y)   OVER win AS sy,
         sum(x*x) OVER win AS sxx, sum(y*y) OVER win AS syy,
         sum(x*y) OVER win AS sxy
  FROM c
  WINDOW win AS (ORDER BY day ROWS BETWEEN {_CORR_W - 1} PRECEDING
                 AND CURRENT ROW))
SELECT day,
       cast(round(cast({_CORR_W}*sxy - sx*sy AS DOUBLE)
                  / (sqrt(cast({_CORR_W}*sxx - sx*sx AS DOUBLE))
                     * sqrt(cast({_CORR_W}*syy - sy*sy AS DOUBLE)))
                  * 1000000, 0) AS BIGINT) AS corr_e6
FROM w WHERE rn >= {_CORR_W}
"""


# =====================================================================
# Time-series densification (fill missing days with zeros)
# =====================================================================

def _day_count_partial(batch: pa.Table) -> pa.Table:
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    day, cnt = np.unique(us // _US_PER_DAY, return_counts=True)
    return pa.table(
        {"day": pa.array(day, pa.int64()), "n": pa.array(cnt.astype(np.int64))}
    )


def q_fill_days(sf_dir: str):
    """Calendar densification: daily event counts re-indexed onto the
    full [min_day, max_day] range with explicit zeros — the
    completeness pass every downstream window/rolling computation
    assumes (a missing day silently shifts a ROWS frame). Day-bounded
    count exchange; the densify runs over one row per day."""
    from ray.data.aggregate import Sum

    d = (
        _read(sf_dir, "events", ["ts"])
        .map_batches(_day_count_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # one row per observed day
    )
    full = np.arange(int(d["day"].min()), int(d["day"].max()) + 1, dtype=np.int64)
    n = (
        d.set_index("day")["n"]
        .reindex(full, fill_value=0)
        .to_numpy(np.int64)
    )
    return pd.DataFrame({"day": full, "n": n})


SQL_FILL_DAYS = """
WITH d AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // 86400000000 AS day,
         cast(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
s AS (
  SELECT unnest(generate_series((SELECT min(day) FROM d),
                                (SELECT max(day) FROM d))) AS day)
SELECT s.day, coalesce(d.n, 0) AS n
FROM s LEFT JOIN d USING (day)
"""


# =====================================================================
# Theil–Sen robust slope over the daily click series
# =====================================================================

def q_theil_sen(sf_dir: str):
    """Theil–Sen estimator (median of all pairwise slopes) over the
    daily click-cents series — the robust companion to the OLS
    trend_slope: a corrupted day shifts OLS arbitrarily but moves the
    pairwise-slope median by at most one rank. The distributed part is
    the day-bounded total reduction; the O(days²) pair enumeration
    runs on bounded per-day metadata (30 days → 435 pairs; at larger
    horizons the public randomized-median variant applies). Each
    slope is ONE double division of exact integer diffs, and the
    median of an even count averages two doubles — both mirrored
    op-for-op in SQL."""
    from ray.data.aggregate import Sum

    daily = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_daily_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("x", alias_name="x"), Sum("y", alias_name="y"))
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    days = daily["day"].astype("int64").tolist()
    xs = daily["x"].astype("int64").tolist()
    slopes = []
    for i in range(len(days)):
        for j in range(i + 1, len(days)):
            slopes.append(float(xs[j] - xs[i]) / float(days[j] - days[i]))
    slopes.sort()
    m = len(slopes)
    med = (
        slopes[m // 2]
        if m % 2
        else (slopes[m // 2 - 1] + slopes[m // 2]) / 2.0
    )
    return pd.DataFrame(
        {
            "n_days": pd.array([len(days)], dtype="int64"),
            "n_pairs": pd.array([m], dtype="int64"),
            "slope_e6": pd.array([_away(med * 1e6)], dtype="int64"),
        }
    )


SQL_THEIL_SEN = f"""
WITH c AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(sum(CASE WHEN event_type = '{_CORR_A}'
                       THEN cast(round(value * 100, 0) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS x
  FROM events GROUP BY 1),
p AS (
  SELECT cast(b.x - a.x AS DOUBLE) / cast(b.day - a.day AS DOUBLE) AS sl
  FROM c a JOIN c b ON b.day > a.day)
SELECT (SELECT cast(count(*) AS BIGINT) FROM c) AS n_days,
       cast(count(*) AS BIGINT) AS n_pairs,
       cast(round(median(sl) * 1000000, 0) AS BIGINT) AS slope_e6
FROM p
"""


# =====================================================================
# Mann-Whitney U (rank-based two-sample test, exact midranks)
# =====================================================================

def q_mannwhitney_u(sf_dir: str):
    """Rank-based companion to the Welch ``ab_test``: the Mann-Whitney
    U statistic between the user-parity variants over value cents —
    the non-parametric read-out that survives the heavy-tailed revenue
    distributions Welch assumes away.  Ranks never materialize:
    because midranks depend only on per-distinct-value counts, the
    scan reduces to (value, variant) count partials → one bounded
    groupby(value) exchange → a prefix-scan over the distinct-value
    table (driver-side here; a 100 TB run replaces it with the
    repo's sort + two-phase prefix-scan, ``running_sum`` shape).
    Everything stays integer: per-element 2×midrank at value v is
    ``2·count(<v) + count(=v) + 1``, so ``u2_a = Σ_A 2·midrank −
    n_a(n_a+1)`` is exact (the tie-midrank sum is always integral),
    and the identity u2_a + u2_b = 2·n_a·n_b is asserted by the
    oracle comparison for free."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        v = _i64_away(batch.column("value"), 100.0).to_numpy(
            zero_copy_only=False
        )
        df = pd.DataFrame({"v": v, "variant": (u % 2).astype(np.int64)})
        g = df.groupby(["v", "variant"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "v": pa.array(g["v"].to_numpy(np.int64)),
                "variant": pa.array(g["variant"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    counts = (
        _read(sf_dir, "events", ["user_id", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["v", "variant"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded by distinct cents values
    )
    piv = (
        counts.pivot_table(index="v", columns="variant", values="n", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    na_v = piv[0].to_numpy(np.int64)
    nb_v = piv[1].to_numpy(np.int64)
    cnt = na_v + nb_v
    lo = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    mid2 = 2 * lo + cnt + 1  # 2× midrank of every element at this value
    n_a, n_b = int(na_v.sum()), int(nb_v.sum())
    sum2_a = int((na_v * mid2).sum())
    u2_a = sum2_a - n_a * (n_a + 1)
    u2_b = 2 * n_a * n_b - u2_a
    return pd.DataFrame(
        {
            "n_a": pd.array([n_a], dtype="int64"),
            "n_b": pd.array([n_b], dtype="int64"),
            "u2_a": pd.array([u2_a], dtype="int64"),
            "u2_b": pd.array([u2_b], dtype="int64"),
        }
    )


SQL_MANNWHITNEY = """
WITH c AS (
  SELECT cast(round(value * 100, 0) AS BIGINT) AS v,
         cast(user_id % 2 AS BIGINT) AS variant
  FROM events),
g AS (
  SELECT v,
         cast(sum(CASE WHEN variant = 0 THEN 1 ELSE 0 END) AS BIGINT) AS na,
         cast(count(*) AS BIGINT) AS cnt
  FROM c GROUP BY v),
o AS (
  SELECT v, na, cnt,
         cast(sum(cnt) OVER (ORDER BY v) - cnt AS BIGINT) AS lo
  FROM g),
s AS (
  SELECT cast(sum(na) AS BIGINT) AS n_a,
         cast(sum(cnt - na) AS BIGINT) AS n_b,
         cast(sum(na * (2 * lo + cnt + 1)) AS BIGINT) AS sum2_a
  FROM o)
SELECT n_a, n_b,
       cast(sum2_a - n_a * (n_a + 1) AS BIGINT) AS u2_a,
       cast(2 * n_a * n_b - (sum2_a - n_a * (n_a + 1)) AS BIGINT) AS u2_b
FROM s
"""


# =====================================================================
# Leave-one-out target encoding (categorical → numeric feature)
# =====================================================================

def q_target_encode_loo(sf_dir: str):
    """Leave-one-out target encoding of event_type against value
    cents: each event's feature is the mean of the OTHER events of its
    category, (S_t − v) / (n_t − 1) — the standard leakage-free
    categorical encoder for tree/linear models.  Two-phase: a tiny
    per-type (S, n) aggregate broadcasts via closure, then one
    streaming map emits the per-event encodings — no second exchange,
    no per-row Python.  The division is the one mirrored double op
    (e6-quantized, half away from zero)."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        v = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"event_type": et, "s": v})
            .groupby("event_type", sort=False)
            .agg(s=("s", "sum"), n=("s", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"]),
                "s": pa.array(g["s"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    stats = (
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        .to_pandas()  # one row per type
    )
    sn = {
        r.event_type: (int(r.s), int(r.n)) for r in stats.itertuples()
    }

    def _encode(batch: pa.Table, sn=sn) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        v = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
        s = np.array([sn[t][0] for t in et], dtype=np.int64)
        n = np.array([sn[t][1] for t in et], dtype=np.int64)
        enc = 1e6 * (s - v) / (n - 1)
        out = (np.sign(enc) * np.floor(np.abs(enc) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
                "event_type": batch.column("event_type"),
                "v_cents": pa.array(v),
                "loo_mean_e6": pa.array(out),
            }
        )

    return _read(
        sf_dir, "events", ["event_id", "event_type", "value"]
    ).map_batches(_encode, batch_format="pyarrow")


SQL_TARGET_ENCODE = """
WITH c AS (
  SELECT cast(event_id AS BIGINT) AS event_id, event_type,
         cast(round(value * 100, 0) AS BIGINT) AS v
  FROM events),
t AS (
  SELECT event_type, cast(sum(v) AS BIGINT) AS s,
         cast(count(*) AS BIGINT) AS n
  FROM c GROUP BY event_type)
SELECT c.event_id, c.event_type, c.v AS v_cents,
       cast(round(1000000.0 * (t.s - c.v) / (t.n - 1), 0) AS BIGINT)
           AS loo_mean_e6
FROM c JOIN t USING (event_type)
"""


# =====================================================================
# Chi-square test of independence (lang × source contingency)
# =====================================================================

def q_chisq_independence(sf_dir: str):
    """Pearson chi-square test of independence over the documents
    lang × source contingency table — the corpus-composition audit
    ("is language mix independent of source?") run before fixing
    sampling weights.  The ONLY distributed work is a bounded partial
    count per batch keyed on (lang, source) followed by one tiny
    groupby-sum exchange (payload = observed vocabulary of the cross
    product, never the documents); the statistic itself runs on the
    driver over the full grid INCLUDING zero cells (O=0, E>0 cells
    contribute E — textbook definition).  Per-cell terms are e6-
    quantized then integer-summed (the psi_drift convention), so the
    result is partitioning-independent and hash-exact vs SQL."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["lang", "source"])

    def _partial(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {
                    "lang": t.column("lang").to_numpy(zero_copy_only=False),
                    "source": t.column("source").to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["lang", "source"], sort=False)
            .size()
            .reset_index(name="o")
        )
        return pa.table(
            {
                "key": pa.array(g["lang"] + "\x1f" + g["source"]),
                "o": pa.array(g["o"].to_numpy(np.int64)),
            }
        )

    cnt = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("o", alias_name="o"))
        .to_pandas()
    )
    obs: dict[tuple[str, str], int] = {}
    for k, o in zip(cnt["key"], cnt["o"]):
        lang, source = k.split("\x1f")
        obs[(lang, source)] = int(o)
    langs = sorted({l for l, _ in obs})
    sources = sorted({s for _, s in obs})
    rt = {l: sum(obs.get((l, s), 0) for s in sources) for l in langs}
    ct = {s: sum(obs.get((l, s), 0) for l in langs) for s in sources}
    n = sum(rt.values())
    chi2_e6 = 0
    for l in langs:
        for s in sources:
            e = float(rt[l] * ct[s]) / float(n)
            d = float(obs.get((l, s), 0)) - e
            chi2_e6 += _q_e6(d * d / e)
    return pd.DataFrame(
        {
            "n": pd.array([n], dtype="int64"),
            "n_lang": pd.array([len(langs)], dtype="int64"),
            "n_source": pd.array([len(sources)], dtype="int64"),
            "dof": pd.array(
                [(len(langs) - 1) * (len(sources) - 1)], dtype="int64"
            ),
            "chi2_e6": pd.array([chi2_e6], dtype="int64"),
        }
    )


SQL_CHISQ = """
WITH o AS (
  SELECT lang, source, cast(count(*) AS BIGINT) AS o
  FROM documents GROUP BY 1, 2),
rt AS (SELECT lang, cast(sum(o) AS BIGINT) AS rt FROM o GROUP BY 1),
ct AS (SELECT source, cast(sum(o) AS BIGINT) AS ct FROM o GROUP BY 1),
t AS (SELECT cast(sum(o) AS BIGINT) AS n FROM o),
grid AS (
  SELECT rt.lang, ct.source, rt.rt, ct.ct, coalesce(o.o, 0) AS o
  FROM rt CROSS JOIN ct
  LEFT JOIN o ON o.lang = rt.lang AND o.source = ct.source),
terms AS (
  SELECT cast(round(
           (cast(o AS DOUBLE) - cast(rt * ct AS DOUBLE) / cast(t.n AS DOUBLE))
           * (cast(o AS DOUBLE) - cast(rt * ct AS DOUBLE) / cast(t.n AS DOUBLE))
           / (cast(rt * ct AS DOUBLE) / cast(t.n AS DOUBLE))
           * 1000000, 0) AS BIGINT) AS term
  FROM grid, t)
SELECT t.n,
       (SELECT cast(count(*) AS BIGINT) FROM rt) AS n_lang,
       (SELECT cast(count(*) AS BIGINT) FROM ct) AS n_source,
       ((SELECT count(*) FROM rt) - 1) * ((SELECT count(*) FROM ct) - 1) AS dof,
       (SELECT cast(sum(term) AS BIGINT) FROM terms) AS chi2_e6
FROM t
"""


# =====================================================================
# cuped_adjust — CUPED pre-period variance reduction (pure integer)
# =====================================================================

_CUPED_SPLIT_DAYS = 15  #: pre-period = first 15 observed days


def q_cuped_adjust(sf_dir: str):
    """CUPED covariate adjustment (Deng, Xu, Kohavi & Walker 2013) of
    per-user event value: pre-period X = cents in the first 15
    observed days, post-period Y = cents after; θ = cov(X,Y)/var(X)
    and the variance-reduction factor ρ² = cov²/(var·var) are PURE
    integer rationals from six exact bigint moment scalars —

        θ_e6  = e6( (nΣxy − SxSy) / (nΣxx − Sx²) )
        rho2_e6 = e6( (nΣxy − SxSy)² / ((nΣxx − Sx²)(nΣyy − Sy²)) )

    — no double anywhere.  The experimentation read-out that says how
    much pre-period data shrinks an A/B test's CI (the adjusted-metric
    companion of ``ab_test``).

    Shape (nothing grows-with-data ever lands on the driver): pass 1
    is the ``_global_day_min`` scalar fold over a ts-only pruned read;
    pass 2 buckets each batch's cents into (x=pre, y=post) per user
    and exchanges ONLY ``(u, x, y)`` keyed on the grows-with-data user
    domain; a third ``map_batches`` over the per-user aggregate emits
    one 6-scalar moment row per batch (decimal128 cells — per-user
    cent sums square past int64 at scale, matching the HUGEINT twin),
    folded driver-side as Python bigints, bounded by #batches.
    Output: one row ``(n_users, theta_e6, rho2_e6)``."""
    from ray.data.aggregate import Sum
    from .engagement import _global_day_min
    from .patterns import _ols_e6
    from .relational import _i64_away_np

    split = (
        _global_day_min(_read(sf_dir, "events", ["ts"]))
        + _CUPED_SPLIT_DAYS
    )
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        pre = (us // 86_400_000_000) < split
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        c = _i64_away_np(
            t.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        g = (
            pd.DataFrame(
                {
                    "u": u,
                    "x": np.where(pre, c, 0),
                    "y": np.where(pre, 0, c),
                }
            )
            .groupby("u", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "u": pa.array(g["u"].to_numpy(np.int64)),
                "x": pa.array(g["x"].to_numpy(np.int64)),
                "y": pa.array(g["y"].to_numpy(np.int64)),
            }
        )

    per_user = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("u")
        .aggregate(Sum("x", alias_name="x"), Sum("y", alias_name="y"))
    )

    _DEC = pa.decimal128(38, 0)

    def _moments(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False).astype(object)
        y = t.column("y").to_numpy(zero_copy_only=False).astype(object)
        vals = [
            int((x * x).sum()) if len(x) else 0,
            int((y * y).sum()) if len(y) else 0,
            int((x * y).sum()) if len(x) else 0,
            int(x.sum()) if len(x) else 0,
            int(y.sum()) if len(y) else 0,
        ]
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "m": pa.array([vals], pa.list_(_DEC)),
            }
        )

    n, sxx, syy, sxy, sx, sy = 0, 0, 0, 0, 0, 0
    for t in per_user.map_batches(
        _moments, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        for bn, m in zip(
            t.column("n").to_pylist(), t.column("m").to_pylist()
        ):
            n += int(bn)
            sxx += int(m[0])
            syy += int(m[1])
            sxy += int(m[2])
            sx += int(m[3])
            sy += int(m[4])
    cov = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    theta_e6 = _ols_e6(cov, vx)
    rho2_e6 = _ols_e6(cov * cov, vx * vy)
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "theta_e6": pa.array([theta_e6], pa.int64()),
            "rho2_e6": pa.array([rho2_e6], pa.int64()),
        }
    )


SQL_CUPED = f"""
WITH e AS (
  SELECT user_id AS u,
         epoch_us(cast(ts AS TIMESTAMP)) // 86400000000 AS d,
         cast(round(value * 100, 0) AS BIGINT) AS c
  FROM events),
lim AS (SELECT min(d) + {_CUPED_SPLIT_DAYS} AS split FROM e),
uw AS (SELECT u,
              cast(sum(CASE WHEN d < lim.split THEN c ELSE 0 END)
                   AS BIGINT) AS x,
              cast(sum(CASE WHEN d >= lim.split THEN c ELSE 0 END)
                   AS BIGINT) AS y
       FROM e, lim GROUP BY u),
m AS (SELECT cast(count(*) AS BIGINT) AS n,
             cast(sum(x) AS HUGEINT) AS sx,
             cast(sum(y) AS HUGEINT) AS sy,
             cast(sum(cast(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
             cast(sum(cast(y AS HUGEINT) * y) AS HUGEINT) AS syy,
             cast(sum(cast(x AS HUGEINT) * y) AS HUGEINT) AS sxy
      FROM uw),
f AS (SELECT n, n * sxy - sx * sy AS cov,
             n * sxx - sx * sx AS vx,
             n * syy - sy * sy AS vy
      FROM m)
SELECT n AS n_users,
       cast(CASE WHEN cov >= 0 THEN (2000000 * cov + vx) // (2 * vx)
                 ELSE -((2000000 * (-cov) + vx) // (2 * vx))
            END AS BIGINT) AS theta_e6,
       cast((2000000 * (cov * cov) + vx * vy) // (2 * (vx * vy))
            AS BIGINT) AS rho2_e6
FROM f
"""


# =====================================================================
# mantel_haenszel — stratified pooled odds ratio (pure integer)
# =====================================================================


def q_mantel_haenszel(sf_dir: str):
    """Mantel–Haenszel pooled odds ratio (Mantel & Haenszel 1959) of
    the two ``mcnemar_test`` document predictors (A: length ≥ 300,
    B: spaces ≥ 55) STRATIFIED BY LANGUAGE — the confounder-adjusted
    association read-out (language drives both predictors, so the
    crude OR is biased; MH reweights per stratum).  With per-stratum
    2×2 cells (a,b,c,d) and n_i = their sum,

        OR_MH = Σᵢ aᵢdᵢ/nᵢ  /  Σᵢ bᵢcᵢ/nᵢ

    becomes PURE integer after clearing by Πn (bounded strata —
    ≤ |langs| terms, HUGEINT): num = Σ aᵢdᵢ·Π_{j≠i}nⱼ, den =
    Σ bᵢcᵢ·Π_{j≠i}nⱼ, or_e6 the shared half-away division (pinned 0
    when den = 0).  Output: one row ``(n_strata, n_docs, or_e6)``.
    Zero keyed exchange (|langs|×4-cell census fold)."""
    from .patterns import _ols_e6

    ds = _read(sf_dir, "documents", ["text", "lang"])

    def _partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column("text"), "")
        ln = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
        sp = pc.count_substring(txt, " ").to_numpy(zero_copy_only=False)
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        cell = (ln >= 300).astype(np.int64) * 2 + (sp >= 55).astype(
            np.int64
        )
        g = (
            pd.DataFrame({"lang": lang, "cell": cell})
            .groupby(["lang", "cell"], sort=False)
            .size()
            .reset_index(name="m")
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"].astype(str)),
                "cell": pa.array(g["cell"].to_numpy(np.int64)),
                "m": pa.array(g["m"].to_numpy(np.int64)),
            }
        )

    cells: dict[tuple[str, int], int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for lg, cl, m in zip(
            t.column("lang").to_pylist(),
            t.column("cell").to_pylist(),
            t.column("m").to_pylist(),
        ):
            cells[(lg, int(cl))] = cells.get((lg, int(cl)), 0) + int(m)
    langs = sorted({lg for lg, _ in cells})
    # cell code: 2·A + B → a = both, b = A only, c = B only, d = neither
    tabs = {}
    for lg in langs:
        a = cells.get((lg, 3), 0)
        b = cells.get((lg, 2), 0)
        c = cells.get((lg, 1), 0)
        d = cells.get((lg, 0), 0)
        tabs[lg] = (a, b, c, d, a + b + c + d)
    p_all = 1
    for lg in langs:
        p_all *= tabs[lg][4]
    num = sum(
        tabs[lg][0] * tabs[lg][3] * (p_all // tabs[lg][4]) for lg in langs
    )
    den = sum(
        tabs[lg][1] * tabs[lg][2] * (p_all // tabs[lg][4]) for lg in langs
    )
    n_docs = sum(t[4] for t in tabs.values())
    or_e6 = _ols_e6(num, den) if den > 0 else 0
    return pa.table(
        {
            "n_strata": pa.array([len(langs)], pa.int64()),
            "n_docs": pa.array([n_docs], pa.int64()),
            "or_e6": pa.array([or_e6], pa.int64()),
        }
    )


def _sql_mh() -> str:
    return """
WITH f AS (
  SELECT lang,
         CASE WHEN length(coalesce(text, '')) >= 300 THEN 1 ELSE 0 END
           AS a,
         CASE WHEN (length(coalesce(text, ''))
                    - length(replace(coalesce(text, ''), ' ', ''))) >= 55
              THEN 1 ELSE 0 END AS b
  FROM documents),
t AS (SELECT lang,
             cast(sum(a * b) AS HUGEINT) AS aa,
             cast(sum(a * (1 - b)) AS HUGEINT) AS bb,
             cast(sum((1 - a) * b) AS HUGEINT) AS cc,
             cast(sum((1 - a) * (1 - b)) AS HUGEINT) AS dd,
             cast(count(*) AS HUGEINT) AS n
      FROM f GROUP BY lang),
pr AS (SELECT cast(product(n) AS HUGEINT) AS p_all,
              cast(sum(n) AS BIGINT) AS n_docs,
              cast(count(*) AS BIGINT) AS n_strata
       FROM t),
s AS (SELECT pr.n_strata, pr.n_docs,
             cast(sum(t.aa * t.dd * (pr.p_all // t.n)) AS HUGEINT) AS num,
             cast(sum(t.bb * t.cc * (pr.p_all // t.n)) AS HUGEINT) AS den
      FROM t, pr GROUP BY pr.n_strata, pr.n_docs)
SELECT n_strata, n_docs,
       CASE WHEN den = 0 THEN 0
            ELSE cast((2000000 * num + den) // (2 * den) AS BIGINT)
       END AS or_e6
FROM s
"""


SQL_MANTEL_HAENSZEL = _sql_mh()


# =====================================================================
# fleiss_kappa — multi-rater agreement over the predictor battery
# =====================================================================


def q_fleiss_kappa(sf_dir: str):
    """Fleiss' κ (Fleiss 1971) treating the three ``cochran_q``
    document predictors (length ≥ 300, spaces ≥ 55, 'a'-count ≥ 25)
    as k = 3 raters assigning each document to {positive, negative}:
    with per-document positive count r and the 8-cell pattern census,

        P̄ = A/(6N),  A = Σ m·(r² + (3−r)² − 3)
        P̄ₑ = (S² + (3N−S)²)/(9N²),  S = Σ m·r
        κ = (3N·A − 2·(S² + (3N−S)²)) / (2·(9N² − S² − (3N−S)²))

    — a PURE integer rational (algebra in the docstring test), read
    out with the shared half-away e6 division.  Contrast
    ``cohen_kappa`` (two raters over a label grid) and ``cochran_q``
    (same census, marginal-homogeneity question; κ asks AGREEMENT).
    Output: one row ``(n_docs, pos_total, kappa_e6)``.  Zero keyed
    exchange (8-cell census fold)."""
    from .patterns import _ols_e6

    ds = _read(sf_dir, "documents", ["text"])

    def _partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column("text"), "")
        ln = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
        sp = pc.count_substring(txt, " ").to_numpy(zero_copy_only=False)
        ac = pc.count_substring(txt, "a").to_numpy(zero_copy_only=False)
        r = (
            (ln >= 300).astype(np.int64)
            + (sp >= 55).astype(np.int64)
            + (ac >= 25).astype(np.int64)
        )
        g = pd.Series(r).value_counts()
        return pa.table(
            {
                "r": pa.array(g.index.to_numpy(np.int64)),
                "m": pa.array(g.to_numpy(np.int64)),
            }
        )

    census: dict[int, int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for r, m in zip(t.column("r").to_pylist(), t.column("m").to_pylist()):
            census[int(r)] = census.get(int(r), 0) + int(m)
    n = sum(census.values())
    a = sum(m * (r * r + (3 - r) * (3 - r) - 3) for r, m in census.items())
    s = sum(m * r for r, m in census.items())
    b = s * s + (3 * n - s) ** 2
    kappa_e6 = _ols_e6(3 * n * a - 2 * b, 2 * (9 * n * n - b))
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "pos_total": pa.array([s], pa.int64()),
            "kappa_e6": pa.array([kappa_e6], pa.int64()),
        }
    )


SQL_FLEISS = """
WITH f AS (
  SELECT (CASE WHEN length(coalesce(text, '')) >= 300 THEN 1 ELSE 0 END
          + CASE WHEN (length(coalesce(text, ''))
                       - length(replace(coalesce(text, ''), ' ', '')))
                      >= 55 THEN 1 ELSE 0 END
          + CASE WHEN (length(coalesce(text, ''))
                       - length(replace(coalesce(text, ''), 'a', '')))
                      >= 25 THEN 1 ELSE 0 END) AS r
  FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n,
             cast(sum(r * r + (3 - r) * (3 - r) - 3) AS HUGEINT) AS a,
             cast(sum(r) AS HUGEINT) AS s
      FROM f),
z AS (SELECT n, s,
             s * s + (3 * n - s) * (3 * n - s) AS b, a
      FROM p)
SELECT n AS n_docs, cast(s AS BIGINT) AS pos_total,
       cast(CASE WHEN (3 * n * a - 2 * b) >= 0
                 THEN (2000000 * (3 * n * a - 2 * b)
                       + 2 * (9 * cast(n AS HUGEINT) * n - b))
                      // (2 * (2 * (9 * cast(n AS HUGEINT) * n - b)))
                 ELSE -((2000000 * (2 * b - 3 * n * a)
                         + 2 * (9 * cast(n AS HUGEINT) * n - b))
                        // (2 * (2 * (9 * cast(n AS HUGEINT) * n - b))))
            END AS BIGINT) AS kappa_e6
FROM z
"""


QUERIES = {
    "cuped_adjust": q_cuped_adjust,
    "mantel_haenszel": q_mantel_haenszel,
    "fleiss_kappa": q_fleiss_kappa,
    "chisq_independence": q_chisq_independence,
    "fill_days": q_fill_days,
    "mannwhitney_u": q_mannwhitney_u,
    "target_encode_loo": q_target_encode_loo,
    "theil_sen": q_theil_sen,
    "zipf_slope": q_zipf_slope,
    "ab_test": q_ab_test,
    "rolling_corr": q_rolling_corr,
}

ORACLE_SQL = {
    "cuped_adjust": SQL_CUPED,
    "mantel_haenszel": SQL_MANTEL_HAENSZEL,
    "fleiss_kappa": SQL_FLEISS,
    "chisq_independence": SQL_CHISQ,
    "fill_days": SQL_FILL_DAYS,
    "mannwhitney_u": SQL_MANNWHITNEY,
    "target_encode_loo": SQL_TARGET_ENCODE,
    "theil_sen": SQL_THEIL_SEN,
    "zipf_slope": SQL_ZIPF,
    "ab_test": SQL_AB,
    "rolling_corr": SQL_ROLLING_CORR,
}
