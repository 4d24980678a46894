"""Round-3 continuation #10: data-quality / drift monitoring family —
the watchdog pass a production training-data pipeline runs over every
ingest batch before it is allowed into the corpus.  Six operators,
each a ``queries()`` entry with a DuckDB oracle twin:

- ``rolling_median``    robust per-metric daily baseline (7-row window)
- ``cusum_changepoint`` CUSUM level-shift detector per metric stream
- ``autocorr_daily``    lag-7 autocorrelation of the daily total series
- ``benford_digits``    first-digit (Benford) audit of order totals
- ``psi_drift``         population-stability index, first vs second half
- ``winsorize_value``   order-statistic clamp (p05/p95) per event type

Exactness strategy (repo conventions, see ``stats.py`` header): money
quantized to integer cents at the edge, day = ``epoch_us // 86400e6``,
every reduction in int64, logarithms mirrored op-for-op against the
same libm and quantized before summation, final rounding half away
from zero on both sides.

Scale notes: each operator's exchange payload is the bounded partial
(per-day / per-digit / per-bin counts), never the event stream;
``winsorize_value`` alone sorts whole groups in ``map_groups`` — exact
order statistics per type, acceptable because group payload is one
int64 per row; at 100 TB swap the exact cut for the sampled-quantile
partitioner and keep the clamp pass unchanged.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away, _read

_US_PER_DAY = 86_400_000_000


def _away(v: float) -> int:
    """round-half-away-from-zero, the DuckDB round() rule."""
    return int(math.floor(abs(v) + 0.5)) * (1 if v >= 0 else -1)


def _daily_type_partial(batch: pa.Table) -> pa.Table:
    """(event_type, day, x=sum cents) per batch — the bounded partial
    every daily-series operator here shuffles instead of raw events."""
    et = batch.column("event_type").to_numpy(zero_copy_only=False)
    us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    y = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
    df = pd.DataFrame({"event_type": et, "day": us // _US_PER_DAY, "x": y})
    g = df.groupby(["event_type", "day"], sort=False)["x"].sum().reset_index()
    return pa.table(
        {
            "event_type": pa.array(g["event_type"]),
            "day": pa.array(g["day"].to_numpy(np.int64)),
            "x": pa.array(g["x"].to_numpy(np.int64)),
        }
    )


def _daily_series(sf_dir: str):
    """Distributed (event_type, day) → sum-cents reduction."""
    from ray.data.aggregate import Sum

    return (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_daily_type_partial, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("x", alias_name="x"))
    )


_SQL_DAILY = f"""
  SELECT event_type,
         epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(sum(cast(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2
"""


# =====================================================================
# Rolling 7-row median of the per-type daily series
# =====================================================================

_MED_W = 7


def q_rolling_median(sf_dir: str):
    """Per event type: the ROWS-frame rolling median (7 trailing days)
    of daily spend — the robust baseline an anomaly monitor compares
    each new day against (one corrupted day shifts a rolling MEAN by
    its full weight but the median by at most one rank).  Emits
    ``med2_cents`` = 2 × median so even-count partial windows (mean of
    the two middle ranks) stay in exact integer arithmetic.  The
    window pass runs per type over the bounded daily series."""

    def _roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="mergesort").reset_index(drop=True)
        x = g["x"].to_numpy(np.int64)
        n = len(x)
        med2 = np.empty(n, dtype=np.int64)
        for i in range(n):  # n = #days per type: bounded, not row-scale
            w = np.sort(x[max(0, i - _MED_W + 1) : i + 1])
            m = len(w)
            med2[i] = (
                int(w[m // 2]) * 2 if m % 2 else int(w[m // 2 - 1]) + int(w[m // 2])
            )
        return pd.DataFrame(
            {
                "event_type": g["event_type"],
                "day": g["day"].to_numpy(np.int64),
                "x": x,
                "med2_cents": med2,
            }
        )

    return (
        _daily_series(sf_dir)
        .groupby("event_type")
        .map_groups(_roll, batch_format="pandas")
    )


SQL_ROLLING_MEDIAN = f"""
WITH d AS ({_SQL_DAILY})
SELECT event_type, day, x,
       cast(round(2 * median(x) OVER (
                PARTITION BY event_type ORDER BY day
                ROWS BETWEEN {_MED_W - 1} PRECEDING AND CURRENT ROW), 0)
            AS BIGINT) AS med2_cents
FROM d
"""


# =====================================================================
# CUSUM level-shift changepoint per metric stream
# =====================================================================

def q_cusum_changepoint(sf_dir: str):
    """Page-style CUSUM over each type's daily series: deviation from
    the series mean is kept integer as ``n·x_i − Σx`` (n × the usual
    ``x_i − mean``), the running sum's |max| marks the most likely
    level-shift day (tie → earliest).  The classic single-pass drift
    alarm for ingest monitoring; everything after the daily reduction
    touches one row per (type, day)."""

    def _cusum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="mergesort")
        x = g["x"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        n = len(x)
        c = np.cumsum(n * x - x.sum())
        a = np.abs(c)
        i = int(np.argmax(a))  # first occurrence = earliest day
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n_days": np.array([n], dtype=np.int64),
                "cp_day": np.array([day[i]], dtype=np.int64),
                "max_abs_cusum": np.array([a[i]], dtype=np.int64),
            }
        )

    return (
        _daily_series(sf_dir)
        .groupby("event_type")
        .map_groups(_cusum, batch_format="pandas")
    )


SQL_CUSUM = f"""
WITH d AS ({_SQL_DAILY}),
t AS (
  SELECT event_type, cast(count(*) AS BIGINT) AS n, sum(x) AS s
  FROM d GROUP BY event_type),
c AS (
  SELECT d.event_type, d.day, t.n,
         sum(t.n * d.x - t.s) OVER (
             PARTITION BY d.event_type ORDER BY d.day) AS cusum
  FROM d JOIN t USING (event_type)),
r AS (
  SELECT event_type, n, day, abs(cusum) AS a,
         row_number() OVER (
             PARTITION BY event_type ORDER BY abs(cusum) DESC, day) AS rn
  FROM c)
SELECT event_type, n AS n_days, day AS cp_day,
       cast(a AS BIGINT) AS max_abs_cusum
FROM r WHERE rn = 1
"""


# =====================================================================
# Lag-7 autocorrelation of the global daily total series
# =====================================================================

_AC_LAG = 7


def q_autocorr_daily(sf_dir: str):
    """Weekly seasonality read-out: Pearson correlation between the
    global daily-total series and itself shifted 7 days (pairs over
    observed days only).  The distributed part is the day reduction;
    the correlation runs on ≤#days pairs with the repo's integer-sums
    → one mirrored double expression convention (see ``corr_stats``)."""
    from ray.data.aggregate import Sum

    def _day_partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        x = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"day": us // _US_PER_DAY, "x": x})
            .groupby("day", sort=False)["x"]
            .sum()
        )
        return pa.table(
            {
                "day": pa.array(g.index.to_numpy(np.int64)),
                "x": pa.array(g.to_numpy(np.int64)),
            }
        )

    d = (
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(_day_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("x", alias_name="x"))
        .to_pandas()  # one row per day — bounded
    )
    d = d.sort_values("day")
    day = d["day"].to_numpy(np.int64)
    x = d["x"].to_numpy(np.int64)
    pos = {int(dd): i for i, dd in enumerate(day)}
    a, b = [], []
    for i, dd in enumerate(day):
        j = pos.get(int(dd) + _AC_LAG)
        if j is not None:
            a.append(int(x[i]))
            b.append(int(x[j]))
    n = len(a)
    sx, sy = sum(a), sum(b)
    sxx = sum(v * v for v in a)
    syy = sum(v * v for v in b)
    sxy = sum(u * v for u, v in zip(a, b))
    corr = float(n * sxy - sx * sy) / math.sqrt(
        float((n * sxx - sx * sx) * (n * syy - sy * sy))
    )
    return pd.DataFrame(
        {
            "n_pairs": pd.array([n], dtype="int64"),
            "corr_e6": pd.array([_away(corr * 1e6)], dtype="int64"),
        }
    )


SQL_AUTOCORR = f"""
WITH d AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(sum(cast(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1),
p AS (
  SELECT a.x AS x, b.x AS y
  FROM d a JOIN d b ON b.day = a.day + {_AC_LAG}),
s AS (
  SELECT cast(count(*) AS BIGINT) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*x) AS sxx, sum(y*y) AS syy, sum(x*y) AS sxy
  FROM p)
SELECT n AS n_pairs,
       cast(round(cast(n*sxy - sx*sy AS DOUBLE)
                  / sqrt(cast((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE))
                  * 1000000, 0) AS BIGINT) AS corr_e6
FROM s
"""


# =====================================================================
# Benford first-digit audit of order totals
# =====================================================================

def _lead_digit(v: np.ndarray) -> np.ndarray:
    """Vectorized leading decimal digit of positive int64 (≤13 halving
    rounds; no float log10, whose ulp at exact powers of ten flips the
    digit)."""
    v = v.copy()
    while (v >= 10).any():
        big = v >= 10
        v[big] //= 10
    return v


def q_benford_digits(sf_dir: str):
    """First-significant-digit distribution of order totals (cents)
    vs the Benford expectation — the standard fabricated-data /
    broken-upstream-join audit.  Per-batch digit counts (9 partials)
    → one tiny groupby; ``benford_e6`` = round(log10(1+1/d)·1e6)
    mirrored against DuckDB's log10 (same libm, values far from the
    rounding boundary)."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        cents = _i64_away(batch.column("o_totalprice"), 100.0).to_numpy(
            zero_copy_only=False
        )
        d = _lead_digit(cents)
        dig, cnt = np.unique(d, return_counts=True)
        return pa.table(
            {
                "digit": pa.array(dig.astype(np.int64)),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    out = (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # ≤9 rows
    )
    out = out.sort_values("digit").reset_index(drop=True)
    out["benford_e6"] = [
        _away(math.log10(1.0 + 1.0 / int(d)) * 1e6) for d in out["digit"]
    ]
    out = out.astype({"digit": "int64", "n": "int64", "benford_e6": "int64"})
    return out


SQL_BENFORD = """
WITH c AS (
  SELECT cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents FROM orders)
SELECT cast(substr(cast(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit,
       cast(count(*) AS BIGINT) AS n,
       cast(round(log10(1.0 + 1.0 / cast(substr(cast(cents AS VARCHAR), 1, 1)
                                         AS BIGINT)) * 1000000, 0) AS BIGINT)
           AS benford_e6
FROM c GROUP BY 1
"""


# =====================================================================
# Population Stability Index: first half vs second half of the window
# =====================================================================

_PSI_BINS = 10


def q_psi_drift(sf_dir: str):
    """PSI per event type between the first and second half of the
    observed day range, over 10 equal-width integer-cents bins — the
    standard ML-monitoring drift score (PSI < 0.1 stable, > 0.25
    action).  Two passes: a tiny min/max aggregate fixes the bin
    edges and the day split, then per-(type, half, bin) counts —
    the only exchange payload — reduce to ≤ 2·10·#types rows.
    Add-1-smoothed probabilities; each bin's
    ``(p_a − p_b)·ln(p_a/p_b)`` term is quantized to e6 before the
    integer sum (order-independent, both engines share libm ln)."""
    from ray.data.aggregate import Max, Min, Sum

    def _bounds_partial(b: pa.Table) -> pa.Table:
        # per-batch combine: the min/max exchange carries one row per
        # (type, batch), never the event stream
        t = pa.table(
            {
                "event_type": b.column("event_type"),
                "day": pa.array(
                    pc.cast(b.column("ts"), pa.int64()).to_numpy(
                        zero_copy_only=False
                    )
                    // _US_PER_DAY,
                    pa.int64(),
                ),
                "v": _i64_away(b.column("value"), 100.0),
            }
        )
        g = t.group_by("event_type").aggregate(
            [("v", "min"), ("v", "max"), ("day", "min"), ("day", "max")]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "v_min": g.column("v_min"),
                "v_max": g.column("v_max"),
                "day_min": g.column("day_min"),
                "day_max": g.column("day_max"),
            }
        )

    bounds = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_bounds_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Min("v_min", alias_name="vmin"),
            Max("v_max", alias_name="vmax"),
            Min("day_min", alias_name="dmin"),
            Max("day_max", alias_name="dmax"),
        )
        .to_pandas()  # one row per type
    )
    edges = {
        r.event_type: (int(r.vmin), int(r.vmax), int(r.dmin), int(r.dmax))
        for r in bounds.itertuples()
    }

    def _partial(batch: pa.Table, edges=edges) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        day = us // _US_PER_DAY
        v = _i64_away(batch.column("value"), 100.0).to_numpy(zero_copy_only=False)
        parts = []
        for t, (vmin, vmax, dmin, dmax) in edges.items():
            m = et == t
            if not m.any():
                continue
            span = vmax - vmin + 1
            binno = (v[m] - vmin) * _PSI_BINS // span  # 0..9, pure integer
            mid = (dmin + dmax + 1) // 2  # positive days: floor == trunc
            half = (day[m] >= mid).astype(np.int64)
            df = pd.DataFrame({"half": half, "bin": binno})
            g = df.groupby(["half", "bin"], sort=False).size().reset_index(name="n")
            g.insert(0, "event_type", t)
            parts.append(g)
        if not parts:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "half": pa.array([], pa.int64()),
                    "bin": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        allp = pd.concat(parts, ignore_index=True)
        return pa.table(
            {
                "event_type": pa.array(allp["event_type"]),
                "half": pa.array(allp["half"].to_numpy(np.int64)),
                "bin": pa.array(allp["bin"].to_numpy(np.int64)),
                "n": pa.array(allp["n"].to_numpy(np.int64)),
            }
        )

    counts = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["event_type", "half", "bin"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # ≤ 2 · 10 · #types rows
    )
    rows = []
    for t in sorted(edges):
        sub = counts[counts["event_type"] == t]
        a = np.zeros(_PSI_BINS, dtype=np.int64)
        b = np.zeros(_PSI_BINS, dtype=np.int64)
        for r in sub.itertuples():
            (a if r.half == 0 else b)[int(r.bin)] = int(r.n)
        na, nb = int(a.sum()), int(b.sum())
        psi = 0
        for i in range(_PSI_BINS):
            pa_ = (int(a[i]) + 1) / (na + _PSI_BINS)
            pb_ = (int(b[i]) + 1) / (nb + _PSI_BINS)
            psi += _away((pa_ - pb_) * math.log(pa_ / pb_) * 1e6)
        rows.append((t, na, nb, psi))
    return pd.DataFrame(
        {
            "event_type": [r[0] for r in rows],
            "n_first": pd.array([r[1] for r in rows], dtype="int64"),
            "n_second": pd.array([r[2] for r in rows], dtype="int64"),
            "psi_e6": pd.array([r[3] for r in rows], dtype="int64"),
        }
    )


SQL_PSI = f"""
WITH c AS (
  SELECT event_type,
         epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(round(value * 100, 0) AS BIGINT) AS v
  FROM events),
e AS (
  SELECT event_type, min(v) AS vmin, max(v) AS vmax,
         min(day) AS dmin, max(day) AS dmax
  FROM c GROUP BY event_type),
binned AS (
  SELECT c.event_type,
         CASE WHEN c.day >= (e.dmin + e.dmax + 1) // 2 THEN 1 ELSE 0 END AS half,
         (c.v - e.vmin) * {_PSI_BINS} // (e.vmax - e.vmin + 1) AS bin
  FROM c JOIN e USING (event_type)),
cnt AS (
  SELECT event_type, half, bin, cast(count(*) AS BIGINT) AS n
  FROM binned GROUP BY 1, 2, 3),
grid AS (
  SELECT e.event_type, h.half, b.bin
  FROM e, (VALUES (0), (1)) h(half),
       range(0, {_PSI_BINS}) b(bin)),
full_cnt AS (
  SELECT g.event_type, g.half, g.bin, coalesce(cnt.n, 0) AS n
  FROM grid g LEFT JOIN cnt
    ON cnt.event_type = g.event_type AND cnt.half = g.half AND cnt.bin = g.bin),
tot AS (
  SELECT event_type,
         sum(CASE WHEN half = 0 THEN n ELSE 0 END) AS na,
         sum(CASE WHEN half = 1 THEN n ELSE 0 END) AS nb
  FROM full_cnt GROUP BY event_type),
terms AS (
  SELECT f.event_type, t.na, t.nb,
         cast(round(
           (cast(af.n + 1 AS DOUBLE) / cast(t.na + {_PSI_BINS} AS DOUBLE)
            - cast(f.n + 1 AS DOUBLE) / cast(t.nb + {_PSI_BINS} AS DOUBLE))
           * ln((cast(af.n + 1 AS DOUBLE) / cast(t.na + {_PSI_BINS} AS DOUBLE))
                / (cast(f.n + 1 AS DOUBLE) / cast(t.nb + {_PSI_BINS} AS DOUBLE)))
           * 1000000, 0) AS BIGINT) AS term
  FROM full_cnt f
  JOIN full_cnt af ON af.event_type = f.event_type AND af.bin = f.bin
                   AND af.half = 0
  JOIN tot t ON t.event_type = f.event_type
  WHERE f.half = 1)
SELECT event_type, cast(max(na) AS BIGINT) AS n_first,
       cast(max(nb) AS BIGINT) AS n_second,
       cast(sum(term) AS BIGINT) AS psi_e6
FROM terms GROUP BY event_type
"""


# =====================================================================
# Exact distributed median via two-pass selection (no global sort)
# =====================================================================

_SEL_BINS = 1024


def _events_cents_ds(sf_dir: str):
    """Materialized single-column ``v`` (event value cents) dataset —
    the shared base the selection operators re-scan."""

    def _to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({"v": _i64_away(batch.column("value"), 100.0)})

    return (
        _read(sf_dir, "events", ["value"])
        .map_batches(_to_cents, batch_format="pyarrow")
        .materialize()  # scanned three times: bounds, histogram, probe
    )


def _selection_rank_values(sf_dir: str, rank_of_n) -> tuple[int, dict[int, int]]:
    """Two-pass selection over event value cents (see
    :func:`_select_ranks_ds` for the mechanism)."""
    return _select_ranks_ds(_events_cents_ds(sf_dir), rank_of_n)


def _select_ranks_ds(base, rank_of_n) -> tuple[int, dict[int, int]]:
    """Two-pass distributed selection: exact order statistics at the
    ranks returned by ``rank_of_n(n)`` over a materialized int64
    column ``v``, WITHOUT a global sort.  Pass 1 histograms the
    integer domain into 1024 equal-width bins (per-batch partials, one
    ≤1024-row exchange) and locates each rank's bin; pass 2 re-scans
    collecting ONLY the needed bins (~n/1024 rows per rank; a
    pathological all-equal bin is still exact, just bigger) and picks
    each in-bin rank locally.  Returns (n, {rank: value}) — the
    mechanism a 100 TB exact-percentile needs, with the sort exchange
    being the thing avoided."""
    n = base.count()
    ranks = sorted(set(rank_of_n(n)))

    # bounds + histogram are FIXED-domain aggregates (one row / ≤1024
    # bins per batch): fold partials on the driver instead of paying
    # two keyed-exchange startups (~2 s each; the hll_exact pattern).
    def _bounds_partial(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy()
        return pa.table(
            {
                "vmin": pa.array([int(v.min())], pa.int64()),
                "vmax": pa.array([int(v.max())], pa.int64()),
            }
        )

    vmin, vmax = None, None
    for t in (
        base.map_batches(_bounds_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        lo = int(pc.min(t.column("vmin")).as_py())
        hi = int(pc.max(t.column("vmax")).as_py())
        vmin = lo if vmin is None else min(vmin, lo)
        vmax = hi if vmax is None else max(vmax, hi)
    span = vmax - vmin + 1

    def _hist_partial(t: pa.Table, vmin=vmin, span=span) -> pa.Table:
        v = t.column("v").to_numpy()
        binno = (v - vmin) * _SEL_BINS // span
        bb, cnt = np.unique(binno, return_counts=True)
        return pa.table(
            {
                "bin": pa.array(bb.astype(np.int64)),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    acc = np.zeros(_SEL_BINS, dtype=np.int64)
    for t in (
        base.map_batches(_hist_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        np.add.at(acc, t.column("bin").to_numpy(), t.column("n").to_numpy())
    nz = np.flatnonzero(acc)
    hist = pd.DataFrame({"bin": nz.astype(np.int64), "n": acc[nz]})
    cum = hist["n"].cumsum().to_numpy()
    need: dict[int, tuple[int, int]] = {}  # rank → (bin, rank_in_bin)
    for k in ranks:
        idx = int(np.searchsorted(cum, k + 1))
        need[k] = (
            int(hist["bin"].iloc[idx]),
            k - (int(cum[idx - 1]) if idx else 0),
        )
    bins = pa.array(sorted({b for b, _ in need.values()}), pa.int64())

    def _probe(t: pa.Table, vmin=vmin, span=span, bins=bins) -> pa.Table:
        v = t.column("v").to_numpy()
        binno = (v - vmin) * _SEL_BINS // span
        keep = np.isin(binno, bins.to_numpy())
        return pa.table(
            {
                "bin": pa.array(binno[keep], pa.int64()),
                "v": pa.array(v[keep], pa.int64()),
            }
        )

    probe = base.map_batches(_probe, batch_format="pyarrow").to_pandas()
    by_bin = {
        int(bb): np.sort(g["v"].to_numpy(np.int64))
        for bb, g in probe.groupby("bin")
    }
    return n, {k: int(by_bin[b][r]) for k, (b, r) in need.items()}


def q_median_select(sf_dir: str):
    """Exact lower median via :func:`_selection_rank_values` (see
    there for the two-pass no-sort mechanism)."""
    n, vals = _selection_rank_values(sf_dir, lambda n: [(n - 1) // 2])
    return pd.DataFrame(
        {
            "n": pd.array([n], dtype="int64"),
            "median_cents": pd.array([vals[(n - 1) // 2]], dtype="int64"),
        }
    )


def q_equidepth_bins(sf_dir: str):
    """Exact decile boundaries (equi-depth histogram edges) of event
    value cents — all nine order statistics resolved in the SAME two
    passes (:func:`_selection_rank_values`): one 1024-bin histogram
    locates every rank's bin, one probe re-scan collects the union of
    needed bins.  Boundary j = the value at rank ⌊j·(n−1)/10⌋ — pure
    integer rank selection, no interpolation."""
    n, vals = _selection_rank_values(
        sf_dir, lambda n: [(j * (n - 1)) // 10 for j in range(1, 10)]
    )
    ranks = [(j * (n - 1)) // 10 for j in range(1, 10)]
    return pd.DataFrame(
        {
            "decile": pd.array(list(range(1, 10)), dtype="int64"),
            "boundary_cents": pd.array([vals[k] for k in ranks], dtype="int64"),
        }
    )


SQL_EQUIDEPTH = """
WITH c AS (
  SELECT cast(round(value * 100, 0) AS BIGINT) AS v FROM events),
t AS (SELECT cast(count(*) AS BIGINT) AS n FROM c),
r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM c),
d AS (SELECT j FROM range(1, 10) j(j))
SELECT d.j AS decile, r.v AS boundary_cents
FROM d, t JOIN r ON r.rn = (d.j * (t.n - 1)) // 10 + 1
"""


SQL_MEDIAN_SELECT = """
WITH c AS (
  SELECT cast(round(value * 100, 0) AS BIGINT) AS v FROM events),
t AS (SELECT cast(count(*) AS BIGINT) AS n FROM c),
r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM c)
SELECT t.n, r.v AS median_cents
FROM r, t WHERE r.rn = (t.n - 1) // 2 + 1
"""


# =====================================================================
# Near-time duplicate-event audit (ingestion exactly-once check)
# =====================================================================

_EDUP_WINDOW_US = 3_600_000_000  #: 1 h rapid-fire window
_EDUP_SHARDS = 256


def q_event_dedup(sf_dir: str):
    """Ingestion duplicate audit: an event is flagged when the same
    (user, event_type) stream produced another event within the
    trailing hour (ordered by ts, then event_id) — the retry/replay
    signature an at-least-once collector leaves behind.  Per-type
    summary (n_events, n_dups).  Users re-key onto a bounded shard;
    the lag comparison is one vectorized adjacent-row check per shard
    after a (user, type, ts) sort — gap state never crosses users
    because the boundary mask resets it."""

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "shard": pa.array(u % _EDUP_SHARDS),
                "user_id": pa.array(u),
                "event_type": batch.column("event_type"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            }
        )

    def _flag(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(
            ["user_id", "event_type", "us", "event_id"], kind="mergesort"
        )
        u = d["user_id"].to_numpy(np.int64)
        et = d["event_type"].to_numpy()
        us = d["us"].to_numpy(np.int64)
        if len(d) < 2:
            dup = np.zeros(len(d), dtype=np.int64)
        else:
            same = (u[1:] == u[:-1]) & (et[1:] == et[:-1])
            dup = np.concatenate(
                [[0], (same & (us[1:] - us[:-1] <= _EDUP_WINDOW_US)).astype(np.int64)]
            )
        out = (
            pd.DataFrame({"event_type": et, "dup": dup})
            .groupby("event_type", sort=False)
            .agg(n_events=("dup", "size"), n_dups=("dup", "sum"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        out["n_dups"] = out["n_dups"].astype(np.int64)
        return out

    # final combine is driver-side over ≤ #types·#shards rows
    pdf = (
        _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_flag, batch_format="pandas")
        .to_pandas()  # bounded: one row per (shard, type)
    )
    out = (
        pdf.groupby("event_type", sort=True)[["n_events", "n_dups"]]
        .sum()
        .reset_index()
    )
    return out.astype({"n_events": "int64", "n_dups": "int64"})


SQL_EVENT_DEDUP = f"""
WITH e AS (
  SELECT user_id, event_type,
         epoch_us(cast(ts AS TIMESTAMP)) AS us,
         cast(event_id AS BIGINT) AS event_id
  FROM events),
w AS (
  SELECT event_type,
         us - lag(us) OVER (PARTITION BY user_id, event_type
                            ORDER BY us, event_id) AS d
  FROM e)
SELECT event_type, cast(count(*) AS BIGINT) AS n_events,
       cast(sum(CASE WHEN d IS NOT NULL AND d <= {_EDUP_WINDOW_US}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_dups
FROM w GROUP BY event_type
"""


# =====================================================================
# Log2 (bit-length) magnitude histogram of order totals
# =====================================================================

def q_log2_histogram(sf_dir: str):
    """Order-of-magnitude profile of order totals: bucket = bit length
    of the cents value (a power-of-two magnitude histogram — the cheap
    long-tail / corrupted-magnitude audit).  Bit length is computed by
    vectorized halving (≤ ~40 rounds), never float log2, whose libm
    rounding at 2^k boundaries is engine-dependent; the SQL twin uses
    the binary-string length for the same exactness.  Per-batch digit
    partials → one ≤64-row groupby."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        v = _i64_away(batch.column("o_totalprice"), 100.0).to_numpy(
            zero_copy_only=False
        ).copy()
        bits = np.zeros(len(v), dtype=np.int64)
        while (v > 0).any():
            bits[v > 0] += 1
            v >>= 1
        b, cnt = np.unique(bits, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(b.astype(np.int64)),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
    )

    def _ranges(t: pa.Table) -> pa.Table:
        b = t.column("bucket").to_numpy().astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(b),
                "n": t.column("n"),
                "lo_cents": pa.array(np.int64(1) << (b - 1)),
                "hi_cents": pa.array((np.int64(1) << b) - 1),
            }
        )

    return agg.map_batches(_ranges, batch_format="pyarrow")


SQL_LOG2_HIST = """
WITH c AS (
  SELECT cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents FROM orders),
b AS (
  SELECT cast(length(printf('%b', cents)) AS BIGINT) AS bucket,
         cast(count(*) AS BIGINT) AS n
  FROM c GROUP BY 1)
SELECT bucket, n,
       cast(1 AS BIGINT) << (bucket - 1) AS lo_cents,
       (cast(1 AS BIGINT) << bucket) - 1 AS hi_cents
FROM b
"""


# =====================================================================
# Winsorize at order-statistic p05 / p95 per event type
# =====================================================================

def q_winsorize_value(sf_dir: str):
    """Per event type: clamp cents at the exact order statistics at
    ranks ⌊0.05·(n−1)⌋ and ⌈0.95·(n−1)⌉ (pure integer rank selection —
    no interpolation, no float percentile) and report the winsorized
    sum — the outlier-robust revenue estimate.  Exact cut via a
    per-type sort in ``map_groups`` (payload: one int64/row); at
    100 TB swap the cut for a sampled-quantile pass, keep the clamp."""

    def _wins(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["v"].to_numpy(np.int64))
        n = len(v)
        lo = int(v[(5 * (n - 1)) // 100])
        hi = int(v[(95 * (n - 1) + 99) // 100])
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "lo_cents": np.array([lo], dtype=np.int64),
                "hi_cents": np.array([hi], dtype=np.int64),
                "sum_wins_cents": np.array(
                    [int(np.clip(v, lo, hi).sum())], dtype=np.int64
                ),
            }
        )

    return (
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(
            lambda b: pa.table(
                {
                    "event_type": b.column("event_type"),
                    "v": _i64_away(b.column("value"), 100.0),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("event_type")
        .map_groups(_wins, batch_format="pandas")
    )


SQL_WINSORIZE = """
WITH c AS (
  SELECT event_type, cast(round(value * 100, 0) AS BIGINT) AS v FROM events),
r AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY v) - 1 AS rk,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM c),
b AS (
  SELECT event_type, cast(max(n) AS BIGINT) AS n,
         max(CASE WHEN rk = (5 * (n - 1)) // 100 THEN v END) AS lo,
         max(CASE WHEN rk = (95 * (n - 1) + 99) // 100 THEN v END) AS hi
  FROM r GROUP BY event_type)
SELECT b.event_type, b.n, b.lo AS lo_cents, b.hi AS hi_cents,
       cast(sum(CASE WHEN c.v < b.lo THEN b.lo
                     WHEN c.v > b.hi THEN b.hi ELSE c.v END) AS BIGINT)
           AS sum_wins_cents
FROM c JOIN b USING (event_type)
GROUP BY 1, 2, 3, 4
"""


# =====================================================================
# Count-min sketch heavy hitters (arithmetic hashing, oracle-exact)
# =====================================================================

_CMS_D = 4        #: sketch depth (hash rows)
_CMS_W = 1024     #: sketch width (buckets per row)
_CMS_P = 2_147_483_647  #: Mersenne prime 2^31 − 1
_CMS_A0, _CMS_AS = 2_654_435_761, 40_503  #: row-r multiplier A0 + r·AS
_CMS_BS, _CMS_B0 = 97, 7                  #: row-r offset r·BS + B0
_CMS_TOPK = 15


def _cms_bucket(u: np.ndarray, r: int) -> np.ndarray:
    """((u·A_r + B_r) mod P) mod W — affine hashing kept inside int64
    and expressible verbatim in SQL (Cormode & Muthukrishnan 2005 use
    exactly this pairwise-independent family)."""
    return ((u * (_CMS_A0 + r * _CMS_AS) + r * _CMS_BS + _CMS_B0) % _CMS_P) % _CMS_W


def q_cms_estimate(sf_dir: str):
    """Count-min-sketch top-15 heavy users: build a d×w=4×1024 sketch
    over the event stream (per-batch bucket partials → one ≤4096-row
    groupby — THE scale path: sketch size is constant regardless of
    stream length), then rank users by their CMS estimate
    min_r sketch[r][h_r(u)].  True counts ride along so the read-out
    shows the sketch's one-sided overestimate.  The candidate cut is a
    per-batch partial top-15 under the final (est DESC, user ASC)
    order — any global winner is a batch-local winner, so the driver
    merge over 15·#batches rows is exact."""
    from ray.data.aggregate import Sum

    def _sketch_partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rs, bs, ns = [], [], []
        for r in range(_CMS_D):
            b, cnt = np.unique(_cms_bucket(u, r), return_counts=True)
            rs.append(np.full(len(b), r, dtype=np.int64))
            bs.append(b)
            ns.append(cnt.astype(np.int64))
        return pa.table(
            {
                "r": pa.array(np.concatenate(rs)),
                "bucket": pa.array(np.concatenate(bs)),
                "n": pa.array(np.concatenate(ns)),
            }
        )

    ev = _read(sf_dir, "events", ["user_id"])
    # sketch merge: the counter grid is FIXED (d·w = 4096 cells) and
    # Sum is associative, so the keyed exchange the groupby form paid
    # (~3 s of hash-aggregate startup) is pure overhead — tree-fold
    # per 2^20 partial rows in map_batches, tiny driver fold (the
    # hll_exact register pattern)
    def _sketch_fold(batch: pa.Table) -> pa.Table:
        acc = np.zeros(_CMS_D * _CMS_W, dtype=np.int64)
        flat = (
            batch.column("r").to_numpy() * _CMS_W
            + batch.column("bucket").to_numpy()
        )
        np.add.at(acc, flat, batch.column("n").to_numpy())
        nz = np.nonzero(acc)[0]
        return pa.table(
            {
                "r": pa.array(nz // _CMS_W),
                "bucket": pa.array(nz % _CMS_W),
                "n": pa.array(acc[nz]),
            }
        )

    S = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    for t in (
        ev.map_batches(_sketch_partial, batch_format="pyarrow")
        .map_batches(_sketch_fold, batch_format="pyarrow", batch_size=1 << 20)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        np.add.at(
            S,
            (t.column("r").to_numpy(), t.column("bucket").to_numpy()),
            t.column("n").to_numpy(),
        )

    def _user_partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        uu, cnt = np.unique(u, return_counts=True)
        return pa.table(
            {"user_id": pa.array(uu), "true_n": pa.array(cnt.astype(np.int64))}
        )

    counts = (
        ev.map_batches(_user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("true_n", alias_name="true_n"))
    )

    def _est_topk(batch: pa.Table, S=S) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tn = batch.column("true_n").to_numpy().astype(np.int64)
        est = np.min(
            np.stack([S[r, _cms_bucket(u, r)] for r in range(_CMS_D)]), axis=0
        )
        order = np.lexsort((u, -est))[:_CMS_TOPK]
        return pa.table(
            {
                "user_id": pa.array(u[order]),
                "est_n": pa.array(est[order]),
                "true_n": pa.array(tn[order]),
            }
        )

    cands = counts.map_batches(_est_topk, batch_format="pyarrow").to_pandas()
    cands = cands.sort_values(
        ["est_n", "user_id"], ascending=[False, True], kind="mergesort"
    ).head(_CMS_TOPK)
    return cands.reset_index(drop=True).astype(
        {"user_id": "int64", "est_n": "int64", "true_n": "int64"}
    )


SQL_CMS = f"""
WITH c AS (
  SELECT r.r AS r,
         ((user_id * ({_CMS_A0} + r.r * {_CMS_AS}) + r.r * {_CMS_BS} + {_CMS_B0})
          % {_CMS_P}) % {_CMS_W} AS bucket,
         cast(count(*) AS BIGINT) AS n
  FROM events, range(0, {_CMS_D}) r(r) GROUP BY 1, 2),
t AS (
  SELECT user_id, cast(count(*) AS BIGINT) AS true_n
  FROM events GROUP BY user_id),
e AS (
  SELECT t.user_id, t.true_n, cast(min(c.n) AS BIGINT) AS est_n
  FROM t JOIN c
    ON c.bucket = ((t.user_id * ({_CMS_A0} + c.r * {_CMS_AS})
                    + c.r * {_CMS_BS} + {_CMS_B0}) % {_CMS_P}) % {_CMS_W}
  GROUP BY t.user_id, t.true_n)
SELECT user_id, est_n, true_n
FROM e ORDER BY est_n DESC, user_id LIMIT {_CMS_TOPK}
"""


# =====================================================================
# Robust outlier gate: median / MAD via the same two-pass selection
# =====================================================================

def q_mad_outliers(sf_dir: str):
    """Median-absolute-deviation outlier audit over event value cents
    — the robust (quartile-free) anomaly gate a monitoring pass runs
    when means/stddevs are poisoned by the very outliers it hunts.
    Both order statistics (median of v, then median of |v − med|) are
    exact TWO-PASS SELECTIONS (:func:`_select_ranks_ds`) — four
    bounded scans total, no global sort; the final outlier count
    (|v − med| > 3·MAD, pure integer compare) is a per-batch partial
    sum folded on the driver (fixed-domain: one row per batch).  At
    100 TB each scan streams and nothing keyed is exchanged."""
    base = _events_cents_ds(sf_dir)
    n, vals = _select_ranks_ds(base, lambda n: [(n - 1) // 2])
    med = vals[(n - 1) // 2]

    def _dev(t: pa.Table, med=med) -> pa.Table:
        v = t.column("v").to_numpy()
        return pa.table({"v": pa.array(np.abs(v - med))})

    devs = base.map_batches(_dev, batch_format="pyarrow").materialize()
    _, dvals = _select_ranks_ds(devs, lambda n: [(n - 1) // 2])
    mad = dvals[(n - 1) // 2]

    def _flag(t: pa.Table, cut=3 * mad) -> pa.Table:
        v = t.column("v").to_numpy()
        return pa.table({"k": pa.array([int((v > cut).sum())], pa.int64())})

    n_out = sum(
        int(t.column("k")[0].as_py())
        for t in devs.map_batches(_flag, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    return pd.DataFrame(
        {
            "n": pd.array([n], dtype="int64"),
            "median_cents": pd.array([med], dtype="int64"),
            "mad_cents": pd.array([mad], dtype="int64"),
            "n_outliers": pd.array([n_out], dtype="int64"),
        }
    )


SQL_MAD = """
WITH c AS (
  SELECT cast(round(value * 100, 0) AS BIGINT) AS v FROM events),
t AS (SELECT cast(count(*) AS BIGINT) AS n FROM c),
r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM c),
med AS (SELECT r.v AS m FROM r, t WHERE r.rn = (t.n - 1) // 2 + 1),
d AS (SELECT abs(c.v - med.m) AS dv FROM c, med),
rd AS (SELECT dv, row_number() OVER (ORDER BY dv) AS rn FROM d),
mad AS (SELECT rd.dv AS m FROM rd, t WHERE rd.rn = (t.n - 1) // 2 + 1)
SELECT t.n, med.m AS median_cents, mad.m AS mad_cents,
       (SELECT cast(count(*) AS BIGINT) FROM d, mad WHERE d.dv > 3 * mad.m)
           AS n_outliers
FROM t, med, mad
"""


# =====================================================================
# Weighted median (quantity-weighted price) — weighted selection
# =====================================================================

def q_weighted_median(sf_dir: str):
    """Exact lower WEIGHTED median of lineitem price cents, weighted
    by quantity — the duplicate-aware central-price read-out (a row
    counts ``w`` times without ever being expanded ``w``-fold).  Same
    two-pass no-sort selection as :func:`_select_ranks_ds`, with the
    histogram accumulating WEIGHT MASS per bin instead of row counts;
    the target rank is the smallest v whose cumulative weight cw
    satisfies 2·cw ≥ W.  Total weight, bounds and the 1024-bin mass
    histogram are fixed-domain partials folded on the driver — no
    keyed exchange anywhere in the selection."""

    def _proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "v": _i64_away(t.column("l_extendedprice"), 100.0),
                "w": pc.cast(t.column("l_quantity"), pa.int64()),
            }
        )

    base = (
        _read(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"])
        .map_batches(_proj, batch_format="pyarrow")
        .materialize()  # scanned three times: bounds, histogram, probe
    )
    W = sum(
        int(pc.sum(t.column("w")).as_py())
        for t in base.select_columns(["w"]).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    target = (W + 1) // 2  # 2·cw ≥ W  ⇔  cw ≥ ⌈W/2⌉ for integer cw

    def _bounds(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy()
        return pa.table(
            {
                "vmin": pa.array([int(v.min())], pa.int64()),
                "vmax": pa.array([int(v.max())], pa.int64()),
            }
        )

    vmin, vmax = None, None
    for t in base.map_batches(_bounds, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        lo = int(pc.min(t.column("vmin")).as_py())
        hi = int(pc.max(t.column("vmax")).as_py())
        vmin = lo if vmin is None else min(vmin, lo)
        vmax = hi if vmax is None else max(vmax, hi)
    span = vmax - vmin + 1

    def _hist(t: pa.Table, vmin=vmin, span=span) -> pa.Table:
        v = t.column("v").to_numpy()
        w = t.column("w").to_numpy()
        binno = (v - vmin) * _SEL_BINS // span
        acc = np.zeros(_SEL_BINS, dtype=np.int64)
        np.add.at(acc, binno, w)  # exact int64 scatter-add
        nz = np.flatnonzero(acc)
        return pa.table(
            {"bin": pa.array(nz.astype(np.int64)), "m": pa.array(acc[nz])}
        )

    macc = np.zeros(_SEL_BINS, dtype=np.int64)
    for t in base.map_batches(_hist, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        np.add.at(macc, t.column("bin").to_numpy(), t.column("m").to_numpy())
    mnz = np.flatnonzero(macc)
    hist = pd.DataFrame({"bin": mnz.astype(np.int64), "m": macc[mnz]})
    cum = hist["m"].cumsum().to_numpy()
    idx = int(np.searchsorted(cum, target))
    the_bin = int(hist["bin"].iloc[idx])
    prior = int(cum[idx - 1]) if idx else 0

    def _probe(t: pa.Table, vmin=vmin, span=span, the_bin=the_bin) -> pa.Table:
        v = t.column("v").to_numpy()
        w = t.column("w").to_numpy()
        keep = (v - vmin) * _SEL_BINS // span == the_bin
        return pa.table({"v": pa.array(v[keep]), "w": pa.array(w[keep])})

    probe = base.map_batches(_probe, batch_format="pyarrow").to_pandas()
    order = np.argsort(probe["v"].to_numpy(np.int64), kind="stable")
    vv = probe["v"].to_numpy(np.int64)[order]
    cw = prior + np.cumsum(probe["w"].to_numpy(np.int64)[order])
    wmed = int(vv[int(np.searchsorted(cw, target))])
    return pd.DataFrame(
        {
            "total_weight": pd.array([W], dtype="int64"),
            "wmedian_cents": pd.array([wmed], dtype="int64"),
        }
    )


SQL_WEIGHTED_MEDIAN = """
WITH c AS (
  SELECT cast(round(l_extendedprice * 100, 0) AS BIGINT) AS v,
         cast(l_quantity AS BIGINT) AS w
  FROM lineitem),
t AS (SELECT cast(sum(w) AS BIGINT) AS W FROM c),
r AS (SELECT v, sum(w) OVER (ORDER BY v) AS cw FROM c)
SELECT t.W AS total_weight, cast(min(r.v) AS BIGINT) AS wmedian_cents
FROM r, t WHERE 2 * r.cw >= t.W GROUP BY t.W
"""


# =====================================================================
# Optimal 2-segment split (exact 1-changepoint DP)
# =====================================================================


def q_best_split(sf_dir: str):
    """The EXACT single changepoint of the daily cent-total-per-event
    series under the least-squares criterion: the split day t
    minimizing SSE(1..t) + SSE(t+1..n) — the k=2 case of optimal
    v-optimal-histogram / Bellman segmentation DP, and the
    model-based complement of ``cusum_changepoint`` (which scans a
    running deviation, not a fitted two-mean model).  SSE derives
    from integer prefix sums (Σv, Σv², count); the per-candidate SSE
    is the one mirrored double expression, e6-quantized, and the
    argmin breaks ties toward the earliest day on both engines.

    Shape: per-batch (day, Σv, Σv², n) partials → one bounded
    ``groupby(day)`` exchange → the O(#days) candidate sweep on the
    driver.  At 100-TB row counts Σv² outgrows int64 — switch the
    moment columns to float partials there and keep the sweep."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        v = _i64_away(batch.column("value"), 100.0).to_numpy(
            zero_copy_only=False
        )
        g = (
            pd.DataFrame({"day": us // _US_PER_DAY, "v": v, "q": v * v})
            .groupby("day", sort=False)
            .agg(s=("v", "sum"), q=("q", "sum"), c=("v", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "day": pa.array(g["day"].to_numpy(np.int64)),
                "s": pa.array(g["s"].to_numpy(np.int64)),
                "q": pa.array(g["q"].to_numpy(np.int64)),
                "c": pa.array(g["c"].to_numpy(np.int64)),
            }
        )

    daily = (
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(
            Sum("s", alias_name="s"),
            Sum("q", alias_name="q"),
            Sum("c", alias_name="c"),
        )
        .to_pandas()  # bounded: #days rows
        .sort_values("day")
        .reset_index(drop=True)
    )
    days = daily["day"].to_numpy(np.int64)
    ps = daily["s"].to_numpy(np.int64).cumsum()
    pq_ = daily["q"].to_numpy(np.int64).cumsum()
    pn = daily["c"].to_numpy(np.int64).cumsum()
    ts, tq, tc = int(ps[-1]), int(pq_[-1]), int(pn[-1])
    best = None
    for i in range(len(days) - 1):  # split AFTER days[i]
        s1, q1, n1 = int(ps[i]), int(pq_[i]), int(pn[i])
        s2, q2, n2 = ts - s1, tq - q1, tc - n1
        sse = _away(
            1_000_000.0
            * (
                (float(q1) - float(s1) * float(s1) / float(n1))
                + (float(q2) - float(s2) * float(s2) / float(n2))
            )
        )
        key = (sse, int(days[i]))
        if best is None or key < best[0]:
            best = (key, s1, n1, s2, n2)
    (sse, day), s1, n1, s2, n2 = best
    return pd.DataFrame(
        {
            "split_day": pd.array([day], dtype="int64"),
            "n_left": pd.array([n1], dtype="int64"),
            "n_right": pd.array([n2], dtype="int64"),
            "sse_e6": pd.array([sse], dtype="int64"),
            "mean_left_e6": pd.array(
                [_away(1_000_000.0 * (float(s1) / float(n1)))], dtype="int64"
            ),
            "mean_right_e6": pd.array(
                [_away(1_000_000.0 * (float(s2) / float(n2)))], dtype="int64"
            ),
        }
    )


SQL_BEST_SPLIT = f"""
WITH c AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(round(value * 100, 0) AS BIGINT) AS v
  FROM events),
d AS (SELECT day, cast(sum(v) AS BIGINT) AS s,
             cast(sum(v * v) AS BIGINT) AS q,
             cast(count(*) AS BIGINT) AS c
      FROM c GROUP BY day),
pre AS (
  SELECT day,
         cast(sum(s) OVER w AS BIGINT) AS ps,
         cast(sum(q) OVER w AS BIGINT) AS pq,
         cast(sum(c) OVER w AS BIGINT) AS pn,
         row_number() OVER (ORDER BY day) AS rn,
         count(*) OVER () AS m
  FROM d WINDOW w AS (ORDER BY day)),
tot AS (SELECT cast(sum(s) AS BIGINT) AS ts, cast(sum(q) AS BIGINT) AS tq,
               cast(sum(c) AS BIGINT) AS tc
        FROM d),
cand AS (
  SELECT day AS split_day, pn AS n_left, tc - pn AS n_right,
         ps, ts,
         cast(round(1000000.0 * (
             (cast(pq AS DOUBLE)
              - cast(ps AS DOUBLE) * cast(ps AS DOUBLE) / cast(pn AS DOUBLE))
           + (cast(tq - pq AS DOUBLE)
              - cast(ts - ps AS DOUBLE) * cast(ts - ps AS DOUBLE)
                / cast(tc - pn AS DOUBLE))), 0) AS BIGINT) AS sse_e6
  FROM pre, tot WHERE rn < m)
SELECT split_day, n_left, n_right, sse_e6,
       cast(round(1000000.0 * (cast(ps AS DOUBLE) / cast(n_left AS DOUBLE)),
                  0) AS BIGINT) AS mean_left_e6,
       cast(round(1000000.0 * (cast(ts - ps AS DOUBLE)
                               / cast(n_right AS DOUBLE)), 0) AS BIGINT)
         AS mean_right_e6
FROM cand ORDER BY sse_e6, split_day LIMIT 1
"""


# =====================================================================
# Global decile census (no-sort binning over the selection passes)
# =====================================================================

def q_decile_census(sf_dir: str):
    """Decile assignment without a global sort: the nine equi-depth
    boundaries resolve via the two-pass selection helper
    (monitor.py:552 — histogram pass + probe pass), then ONE broadcast
    ``searchsorted`` labels every row; output is the 10-row (bin, n)
    census.  bin(v) = #{boundaries < v}, a pure function of the value,
    so ties land deterministically on both engines (unlike SQL NTILE,
    which splits ties by row position)."""
    from ray.data.aggregate import Sum

    n, vals = _selection_rank_values(
        sf_dir, lambda n: [(j * (n - 1)) // 10 for j in range(1, 10)]
    )
    bounds = np.array(
        sorted(vals[(j * (n - 1)) // 10] for j in range(1, 10)),
        dtype=np.int64,
    )

    ds = _read(sf_dir, "events", ["value"])

    def _assign(t: pa.Table, bounds=bounds) -> pa.Table:
        v = _i64_away(t.column("value"), 100.0).to_numpy(zero_copy_only=False)
        b = np.searchsorted(bounds, v, side="left")  # == #{bounds < v}
        bc = np.bincount(b, minlength=10).astype(np.int64)
        return pa.table(
            {
                "bin": pa.array(np.arange(10, dtype=np.int64)),
                "n": pa.array(bc),
            }
        )

    out = (
        ds.map_batches(_assign, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"))
    )
    return out.filter(expr="n > 0")


SQL_DECILE_CENSUS = """
WITH c AS (
  SELECT cast(round(value * 100, 0) AS BIGINT) AS v FROM events),
t AS (SELECT cast(count(*) AS BIGINT) AS n FROM c),
r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM c),
bounds AS (
  SELECT r.v AS b FROM range(1, 10) j(j), t
  JOIN r ON r.rn = (j.j * (t.n - 1)) // 10 + 1)
SELECT (SELECT cast(count(*) AS BIGINT) FROM bounds WHERE b < c.v) AS bin,
       cast(count(*) AS BIGINT) AS n
FROM c GROUP BY bin HAVING count(*) > 0
"""




# =====================================================================
# SAX symbolization of the daily revenue series (Lin & Keogh 2003)
# =====================================================================

#: SAX parameters: 6 PAA segments, 3-symbol alphabet (tercile breaks)
_SAX_SEGS = 6
_SAX_ALPHA = 3


def q_sax_daily(sf_dir: str):
    """SAX (Symbolic Aggregate approXimation, Lin & Keogh 2003) of the
    daily revenue-cents series: days split into 6 equal PAA segments
    (remainder days on the tail segment), each segment's mean compared
    against the series' tercile breakpoints — symbol = #{breaks <
    mean}, with the comparison done as the EXACT cross-multiplication
    ``b·n_days < sum`` so no division ever happens.  Breakpoints are
    the rank-⌊j·(n−1)/3⌋ order statistics of the daily totals (the
    ``equidepth_bins`` convention).  The symbolic string is what motif
    / anomaly mining consumes instead of the raw series.

    Shape: one (day, total) exchange bounded by #days; the PAA fold is
    a constant-size driver loop.  Output (segment, n_days, sum_cents,
    symbol)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["ts", "value"])

    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        y = _i64_away(t.column("value"), 100.0).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"day": us // _US_PER_DAY, "y": y})
        g = df.groupby("day", sort=False)["y"].sum().reset_index()
        return pa.table(
            {
                "day": pa.array(g["day"].to_numpy(np.int64)),
                "y": pa.array(g["y"].to_numpy(np.int64)),
            }
        )

    daily = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("y", alias_name="y"))
        .to_pandas()  # bounded by #days
        .sort_values("day", kind="mergesort")
        .reset_index(drop=True)
    )
    y = daily["y"].to_numpy(np.int64)
    n = len(y)
    ys = np.sort(y)
    breaks = [int(ys[(j * (n - 1)) // _SAX_ALPHA]) for j in (1, 2)]
    seg_len = n // _SAX_SEGS
    rows = []
    for s in range(_SAX_SEGS):
        lo = s * seg_len
        hi = (s + 1) * seg_len if s < _SAX_SEGS - 1 else n
        seg_y = y[lo:hi]
        cnt, tot = len(seg_y), int(seg_y.sum())
        sym = sum(1 for b in breaks if b * cnt < tot)
        rows.append((s, cnt, tot, sym))
    return pa.table(
        {
            "segment": pa.array([r[0] for r in rows], pa.int64()),
            "n_days": pa.array([r[1] for r in rows], pa.int64()),
            "sum_cents": pa.array([r[2] for r in rows], pa.int64()),
            "symbol": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


SQL_SAX = f"""
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         cast(sum(cast(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS y
  FROM events GROUP BY day),
t AS (SELECT cast(count(*) AS BIGINT) AS n FROM d),
r AS (SELECT y, row_number() OVER (ORDER BY y) AS rn FROM d),
brk AS (SELECT r.y AS b FROM range(1, {_SAX_ALPHA}) j(j), t
        JOIN r ON r.rn = (j.j * (t.n - 1)) // {_SAX_ALPHA} + 1),
o AS (SELECT y, row_number() OVER (ORDER BY day) - 1 AS i FROM d),
segd AS (SELECT least(i // (t.n // {_SAX_SEGS}), {_SAX_SEGS - 1}) AS segment,
                y
         FROM o, t),
segs AS (SELECT segment, cast(count(*) AS BIGINT) AS n_days,
                cast(sum(y) AS BIGINT) AS sum_cents
         FROM segd GROUP BY segment)
SELECT segment, n_days, sum_cents,
       (SELECT cast(count(*) AS BIGINT) FROM brk
        WHERE b * segs.n_days < segs.sum_cents) AS symbol
FROM segs
"""


# =====================================================================
# burst_detect — Kleinberg's 2-state burst automaton over daily counts
# =====================================================================


def q_burst_detect(sf_dir: str):
    """Kleinberg burst detection (Kleinberg 2002, "Bursty and
    Hierarchical Structure in Streams" — the batch 2-state variant):
    each day emits its count under a base rate λ0 = mean or a burst
    rate λ1 = 2λ0; the minimum-cost state path (Viterbi) marks burst
    days.  Poisson emission −ln p = λ − c·ln λ + ln c! — the ln c!
    term is STATE-INDEPENDENT and drops, so per-(day, state) cost
    (λ_s − c_t·ln λ_s) quantizes to e6 integers (the repo's
    quantized-ln discipline) and the entire DP runs on exact int64;
    one fixed transition charge γ = e6(ln n) on 0→1 (1→0 free,
    Kleinberg's asymmetry).  Path ties are PINNED: into either state
    prefer staying (prev == state), final state prefers 0 — so the
    backtraced sequence is deterministic on both engines.  Output:
    one row per day ``(day, n, state)``.

    Shape: the day census folds driver-side (zero keyed exchange);
    the 2-state DP is O(days) driver work.  The SQL twin replays the
    DP as a recursive CTE carrying the two best-prefix PATHS as
    lists (2 lists × ≤ days elements — the dtw_distance
    list-carrying idiom).

    The raw daily series is stationary Poisson (the correct-but-empty
    answer: zero bursts), so a deterministic burst signal is injected
    first — every 13th week's days gain ⌊2·total/n⌋ extra counts, the
    derived-signal precedent of ``upsert_snapshot``'s synthetic CDC
    log — and the detector must recover exactly those windows (the
    planted weeks are also pinned in tests)."""
    from .measures import _day_census

    census = _day_census(sf_dir)
    days = sorted(census)
    c = [census[d] for d in days]
    n = len(c)
    base_tot = sum(c)
    boost = (2 * base_tot) // n
    c = [
        ct + (boost if (d // 7) % 13 == 0 else 0)
        for d, ct in zip(days, c)
    ]
    tot = sum(c)
    lam0 = float(tot) / float(n)
    lam1 = 2.0 * lam0
    ln0, ln1 = math.log(lam0), math.log(lam1)
    gamma = int(math.floor(abs(math.log(float(n))) * 1e6 + 0.5))

    def cost(ct: int, lam: float, ln_lam: float) -> int:
        v = (lam - float(ct) * ln_lam) * 1e6
        return int(math.floor(abs(v) + 0.5)) * (1 if v >= 0 else -1)

    d0 = cost(c[0], lam0, ln0)
    d1 = cost(c[0], lam1, ln1) + gamma  # a burst must be entered
    p0, p1 = [0], [1]
    for t in range(1, n):
        e0 = cost(c[t], lam0, ln0)
        e1 = cost(c[t], lam1, ln1)
        # into 0: prefer staying in 0 on ties
        if d0 <= d1:
            nd0, np0 = d0 + e0, p0 + [0]
        else:
            nd0, np0 = d1 + e0, p1 + [0]
        # into 1: prefer staying in 1 on ties
        if d1 <= d0 + gamma:
            nd1, np1 = d1 + e1, p1 + [1]
        else:
            nd1, np1 = d0 + gamma + e1, p0 + [1]
        d0, d1, p0, p1 = nd0, nd1, np0, np1
    path = p0 if d0 <= d1 else p1
    return pa.table(
        {
            "day": pa.array(days, pa.int64()),
            "n": pa.array(c, pa.int64()),
            "state": pa.array(path, pa.int64()),
        }
    )


SQL_BURST_DETECT = """
WITH RECURSIVE c0 AS (
  SELECT cast(datediff('day', TIMESTAMP '1970-01-01', o_orderdate)
              AS BIGINT) AS day,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
bp AS (SELECT cast((2 * sum(n)) // count(*) AS BIGINT) AS boost FROM c0),
c AS (SELECT day,
             n + CASE WHEN (day // 7) % 13 = 0 THEN bp.boost
                      ELSE 0 END AS n
      FROM c0, bp),
ix AS (SELECT row_number() OVER (ORDER BY day) AS i, day, n FROM c),
par AS (SELECT cast(count(*) AS BIGINT) AS nd,
               (cast(sum(n) AS DOUBLE) / cast(count(*) AS DOUBLE)) AS lam0
        FROM c),
q AS (SELECT ix.i, ix.day, ix.n,
        cast(CASE WHEN (par.lam0 - ix.n::DOUBLE * ln(par.lam0)) * 1e6 >= 0
          THEN floor(abs((par.lam0 - ix.n::DOUBLE * ln(par.lam0)) * 1e6)
                     + 0.5)
          ELSE -floor(abs((par.lam0 - ix.n::DOUBLE * ln(par.lam0)) * 1e6)
                      + 0.5) END AS BIGINT) AS e0,
        cast(CASE WHEN (2.0 * par.lam0
                        - ix.n::DOUBLE * ln(2.0 * par.lam0)) * 1e6 >= 0
          THEN floor(abs((2.0 * par.lam0
                          - ix.n::DOUBLE * ln(2.0 * par.lam0)) * 1e6) + 0.5)
          ELSE -floor(abs((2.0 * par.lam0
                           - ix.n::DOUBLE * ln(2.0 * par.lam0)) * 1e6)
                      + 0.5) END AS BIGINT) AS e1,
        cast(floor(abs(ln(par.nd::DOUBLE)) * 1e6 + 0.5) AS BIGINT) AS gam
      FROM ix, par),
dp(i, d0, d1, p0, p1) AS (
  SELECT q.i, q.e0, q.e1 + q.gam,
         [0::BIGINT], [1::BIGINT]
  FROM q WHERE q.i = 1
  UNION ALL
  SELECT q.i,
    CASE WHEN dp.d0 <= dp.d1 THEN dp.d0 ELSE dp.d1 END + q.e0,
    CASE WHEN dp.d1 <= dp.d0 + q.gam THEN dp.d1
         ELSE dp.d0 + q.gam END + q.e1,
    list_append(CASE WHEN dp.d0 <= dp.d1 THEN dp.p0 ELSE dp.p1 END,
                0::BIGINT),
    list_append(CASE WHEN dp.d1 <= dp.d0 + q.gam THEN dp.p1
                     ELSE dp.p0 END, 1::BIGINT)
  FROM dp JOIN q ON q.i = dp.i + 1),
fin AS (SELECT CASE WHEN d0 <= d1 THEN p0 ELSE p1 END AS path
        FROM dp, par WHERE dp.i = par.nd)
SELECT ix.day, ix.n, cast(fin.path[ix.i] AS BIGINT) AS state
FROM ix, fin
"""


# =====================================================================
# seasonal_decompose — additive day-of-week decomposition (pure int)
# =====================================================================


def q_seasonal_decompose(sf_dir: str):
    """Classical additive seasonal decomposition of the daily
    order-count series at the weekly period: per day-of-week d the
    seasonal index is s_d = mean(counts on d) − grand mean, a PURE
    integer rational from the day census —

        sidx_e6 = e6( (Σ_d·N − S·n_d) / (n_d·N) )

    via the shared half-away division (no double anywhere).
    Contrast ``dft_power``: the frequency-domain power at k/7 from
    the same 7-cell reduction; these are the time-domain indices an
    analyst subtracts to deseasonalize.  Output: 7 rows ``(dow,
    n_days, sum_cnt, sidx_e6)``, dow 0..6 = epoch-day mod 7.  Zero
    keyed exchange (memoized day-census fold)."""
    from .measures import _day_census
    from .patterns import _ols_e6

    census = _day_census(sf_dir)
    nd = {d: 0 for d in range(7)}
    sd = {d: 0 for d in range(7)}
    for day, c in census.items():
        w = day % 7
        nd[w] += 1
        sd[w] += c
    n_all = sum(nd.values())
    s_all = sum(sd.values())
    return pa.table(
        {
            "dow": pa.array(list(range(7)), pa.int64()),
            "n_days": pa.array([nd[d] for d in range(7)], pa.int64()),
            "sum_cnt": pa.array([sd[d] for d in range(7)], pa.int64()),
            "sidx_e6": pa.array(
                [
                    _ols_e6(sd[d] * n_all - s_all * nd[d], nd[d] * n_all)
                    for d in range(7)
                ],
                pa.int64(),
            ),
        }
    )


SQL_SEASONAL = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
w AS (SELECT d % 7 AS dow, cast(count(*) AS BIGINT) AS nd,
             cast(sum(n) AS BIGINT) AS sd
      FROM c GROUP BY 1),
tot AS (SELECT cast(sum(nd) AS BIGINT) AS n_all,
               cast(sum(sd) AS BIGINT) AS s_all
        FROM w)
SELECT cast(w.dow AS BIGINT) AS dow, w.nd AS n_days, w.sd AS sum_cnt,
       CASE WHEN (w.sd * tot.n_all - tot.s_all * w.nd) >= 0
            THEN (2000000 * (w.sd * tot.n_all - tot.s_all * w.nd)
                  + w.nd * tot.n_all) // (2 * w.nd * tot.n_all)
            ELSE -((2000000 * (tot.s_all * w.nd - w.sd * tot.n_all)
                    + w.nd * tot.n_all) // (2 * w.nd * tot.n_all))
       END AS sidx_e6
FROM w, tot
"""


# =====================================================================
# gumbel_moments — extreme-value EV-I fit of block maxima
# =====================================================================

_GUM_BLOCK = 28  #: block length in days (deterministic, calendar-free)


def q_gumbel_moments(sf_dir: str):
    """Method-of-moments Gumbel (EV-I) fit of 28-day block MAXIMA of
    the daily order-count series (Gumbel 1958) — the peak-load model
    capacity planning fits: block = (day − day_min)//28 over days
    PRESENT in the census, m_b = max daily count per full block
    (trailing partial block dropped on both engines); the moments
    (n_b, Σm, Σm²) are exact ints, and

        β = √(6·s²)/π,   μ = m̄ − γ·β

    are the two mirrored chains (s² the sample variance as one
    bigint ratio; π and Euler–Mascheroni γ inlined as e16 literals —
    the ndcg_bm25 literal discipline).  Output: one row ``(n_blocks,
    max_sum, max_sq_sum, beta_e6, mu_e6)``.  Zero keyed exchange
    (memoized day-census fold)."""
    from .measures import _day_census
    from .hypotests import _e6_signed

    census = _day_census(sf_dir)
    days = sorted(census)
    d0 = days[0]
    n_full = (days[-1] - d0 + 1) // _GUM_BLOCK
    mx: dict[int, int] = {}
    for day, c in census.items():
        b = (day - d0) // _GUM_BLOCK
        if b < n_full and c > mx.get(b, -1):
            mx[b] = c
    vals = [mx[b] for b in sorted(mx)]
    nb = len(vals)
    sm = sum(vals)
    sq = sum(v * v for v in vals)
    # mirrored chains (SQL_GUMBEL): var as one bigint ratio, then β, μ
    var = float(nb * sq - sm * sm) / float(nb * (nb - 1))
    beta = math.sqrt(6.0 * var) / 3.141592653589793
    mu = float(sm) / float(nb) - 0.5772156649015329 * beta
    return pa.table(
        {
            "n_blocks": pa.array([nb], pa.int64()),
            "max_sum": pa.array([sm], pa.int64()),
            "max_sq_sum": pa.array([sq], pa.int64()),
            "beta_e6": pa.array([_e6_signed(beta)], pa.int64()),
            "mu_e6": pa.array([_e6_signed(mu)], pa.int64()),
        }
    )


SQL_GUMBEL = f"""
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
lim AS (SELECT min(d) AS d0,
               (max(d) - min(d) + 1) // {_GUM_BLOCK} AS n_full
        FROM c),
b AS (SELECT (c.d - lim.d0) // {_GUM_BLOCK} AS blk,
             cast(max(c.n) AS BIGINT) AS m
      FROM c, lim WHERE (c.d - lim.d0) // {_GUM_BLOCK} < lim.n_full
      GROUP BY 1),
s AS (SELECT cast(count(*) AS BIGINT) AS nb,
             cast(sum(m) AS BIGINT) AS sm,
             cast(sum(m * m) AS BIGINT) AS sq
      FROM b),
z AS (SELECT nb, sm, sq,
             sqrt(6.0 * ((nb * sq - sm * sm)::DOUBLE
                         / (nb * (nb - 1))::DOUBLE))
               / 3.141592653589793 AS beta
      FROM s)
SELECT nb AS n_blocks, sm AS max_sum, sq AS max_sq_sum,
       cast(CASE WHEN beta >= 0 THEN floor(abs(beta) * 1e6 + 0.5)
                 ELSE -floor(abs(beta) * 1e6 + 0.5) END AS BIGINT)
         AS beta_e6,
       cast(CASE WHEN (sm::DOUBLE / nb::DOUBLE
                       - 0.5772156649015329 * beta) >= 0
                 THEN floor(abs(sm::DOUBLE / nb::DOUBLE
                                - 0.5772156649015329 * beta) * 1e6 + 0.5)
                 ELSE -floor(abs(sm::DOUBLE / nb::DOUBLE
                                 - 0.5772156649015329 * beta) * 1e6 + 0.5)
            END AS BIGINT) AS mu_e6
FROM z
"""


# =====================================================================
# forecast_eval — MASE backtest of the seasonal-naive forecaster
# =====================================================================

_FC_SEASON = 7  #: seasonal-naive lag (weekly), pinned in the twin


def q_forecast_eval(sf_dir: str):
    """Mean Absolute Scaled Error (Hyndman & Koehler 2006) backtest
    of the seasonal-naive forecaster x̂_t = x_{t−7} over the
    day-ordered series, scaled by the in-sample naive-1 MAE:

        MASE = (Σ_{t>7}|x_t − x_{t−7}| / (n−7))
             / (Σ_{t>1}|x_t − x_{t−1}| / (n−1))

    — a PURE integer rational (cross-multiplied), read out with the
    shared half-away e6 division.  MASE < 1 ⇒ the weekly pattern
    beats last-value carry-forward.  Lags are POSITION lags over days
    present in the census (the ljung_box/matrix_profile convention).
    Output: one row ``(n_days, mae7_sum, mae1_sum, mase_e6)``.  Zero
    keyed exchange (memoized day-census fold)."""
    from .measures import _day_census
    from .patterns import _ols_e6

    census = _day_census(sf_dir)
    days = sorted(census)
    xs = [census[d] for d in days]
    n = len(xs)
    mae7 = sum(
        abs(xs[t] - xs[t - _FC_SEASON]) for t in range(_FC_SEASON, n)
    )
    mae1 = sum(abs(xs[t] - xs[t - 1]) for t in range(1, n))
    mase_e6 = _ols_e6(mae7 * (n - 1), mae1 * (n - _FC_SEASON))
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "mae7_sum": pa.array([mae7], pa.int64()),
            "mae1_sum": pa.array([mae1], pa.int64()),
            "mase_e6": pa.array([mase_e6], pa.int64()),
        }
    )


SQL_FORECAST_EVAL = f"""
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY d) AS rn,
             count(*) OVER () AS nt
      FROM c),
m7 AS (SELECT cast(sum(abs(a.n - b.n)) AS BIGINT) AS s
       FROM r a JOIN r b ON b.rn = a.rn - {_FC_SEASON}),
m1 AS (SELECT cast(sum(abs(a.n - b.n)) AS BIGINT) AS s
       FROM r a JOIN r b ON b.rn = a.rn - 1),
f AS (SELECT (SELECT cast(max(nt) AS BIGINT) FROM r) AS n,
             m7.s AS mae7, m1.s AS mae1
      FROM m7, m1)
SELECT n AS n_days, mae7 AS mae7_sum, mae1 AS mae1_sum,
       cast((2000000 * (mae7 * (n - 1)) + mae1 * (n - {_FC_SEASON}))
            // (2 * (mae1 * (n - {_FC_SEASON}))) AS BIGINT) AS mase_e6
FROM f
"""


# =====================================================================
# xcorr_daily — lagged cross-correlation of two daily series
# =====================================================================

_XC_MAXLAG = 3  #: lags −3..3, pinned in the twin


def q_xcorr_daily(sf_dir: str):
    """Lagged cross-correlation between the daily URGENT (priority 1)
    and HIGH (priority 2) order-count series (lags −3..+3; positive
    lag = HIGH leads URGENT by k positions) — the lead/lag diagnostic
    behind "do the two priority streams move together".  (The events
    table spans a disjoint 30-day 2024 window, so the two priority
    streams are the natural same-calendar pair.)  Over days with any
    1/2-priority order (missing treatment counts 0 — the
    ``wilcoxon_signed`` pairing), n-scaled deviations E_i = n·x_i −
    Sx and F_i = n·y_i − Sy make every lag's cross-product
    Σ E_i·F_{i+k} and both energies exact ints; r_k =
    num_k/√(ΣE²·ΣF²) is one mirrored chain per lag.  Lags are
    POSITION lags over the day-ordered series (the ljung_box
    convention).  Output: 7 rows ``(lag, xnum, r_e6)``.  Zero keyed
    exchange (day-bounded census fold shared with wilcoxon_signed)."""
    from .hypotests import _e6_signed
    from .hypotests2 import _day_two_prio

    cells = _day_two_prio(sf_dir)
    days = sorted({d for d, _ in cells})
    n = len(days)
    xs = [cells.get((d, 1), 0) for d in days]
    ys = [cells.get((d, 2), 0) for d in days]
    sx, sy = sum(xs), sum(ys)
    ev = [n * x - sx for x in xs]
    fv = [n * y - sy for y in ys]
    dx = sum(e * e for e in ev)
    dy = sum(f * f for f in fv)
    lags, nums, rs = [], [], []
    for k in range(-_XC_MAXLAG, _XC_MAXLAG + 1):
        num = sum(
            ev[i] * fv[i + k]
            for i in range(max(0, -k), n - max(0, k))
        )
        # one mirrored chain per lag (SQL_XCORR)
        r = float(num) / math.sqrt(float(dx) * float(dy))
        lags.append(k)
        nums.append(num)
        rs.append(_e6_signed(r))
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "xnum": pa.array(nums, pa.int64()),
            "r_e6": pa.array(rs, pa.int64()),
        }
    )


SQL_XCORR = f"""
WITH c0 AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(substr(o_orderpriority, 1, 1) AS BIGINT) AS p,
         cast(count(*) AS BIGINT) AS n
  FROM orders
  WHERE substr(o_orderpriority, 1, 1) IN ('1', '2')
  GROUP BY 1, 2),
j AS (
  SELECT d,
         cast(sum(CASE WHEN p = 1 THEN n ELSE 0 END) AS BIGINT) AS x,
         cast(sum(CASE WHEN p = 2 THEN n ELSE 0 END) AS BIGINT) AS y
  FROM c0 GROUP BY d),
r AS (SELECT x, y, row_number() OVER (ORDER BY d) AS rn,
             count(*) OVER () AS nt,
             cast(sum(x) OVER () AS BIGINT) AS sx,
             cast(sum(y) OVER () AS BIGINT) AS sy
      FROM j),
e AS (SELECT rn, cast(nt * x - sx AS BIGINT) AS ev,
             cast(nt * y - sy AS BIGINT) AS fv
      FROM r),
dd AS (SELECT cast(sum(cast(ev AS HUGEINT) * ev) AS BIGINT) AS dx,
              cast(sum(cast(fv AS HUGEINT) * fv) AS BIGINT) AS dy
       FROM e),
nums AS (SELECT b.rn - a.rn AS lag,
                cast(sum(cast(a.ev AS HUGEINT) * b.fv) AS BIGINT) AS xnum
         FROM e a JOIN e b
           ON b.rn - a.rn BETWEEN -{_XC_MAXLAG} AND {_XC_MAXLAG}
         GROUP BY 1)
SELECT nums.lag, nums.xnum,
       cast(CASE WHEN (nums.xnum::DOUBLE
                       / sqrt(dd.dx::DOUBLE * dd.dy::DOUBLE)) >= 0
                 THEN floor(abs(nums.xnum::DOUBLE
                                / sqrt(dd.dx::DOUBLE * dd.dy::DOUBLE))
                            * 1e6 + 0.5)
                 ELSE -floor(abs(nums.xnum::DOUBLE
                                 / sqrt(dd.dx::DOUBLE * dd.dy::DOUBLE))
                             * 1e6 + 0.5)
            END AS BIGINT) AS r_e6
FROM nums, dd
"""


QUERIES = {
    "burst_detect": q_burst_detect,
    "seasonal_decompose": q_seasonal_decompose,
    "gumbel_moments": q_gumbel_moments,
    "forecast_eval": q_forecast_eval,
    "xcorr_daily": q_xcorr_daily,
    "best_split": q_best_split,
    "mad_outliers": q_mad_outliers,
    "weighted_median": q_weighted_median,
    "rolling_median": q_rolling_median,
    "cms_estimate": q_cms_estimate,
    "log2_histogram": q_log2_histogram,
    "event_dedup": q_event_dedup,
    "median_select": q_median_select,
    "equidepth_bins": q_equidepth_bins,
    "cusum_changepoint": q_cusum_changepoint,
    "autocorr_daily": q_autocorr_daily,
    "benford_digits": q_benford_digits,
    "psi_drift": q_psi_drift,
    "winsorize_value": q_winsorize_value,
    "decile_census": q_decile_census,
    "sax_daily": q_sax_daily,
}

ORACLE_SQL = {
    "seasonal_decompose": SQL_SEASONAL,
    "gumbel_moments": SQL_GUMBEL,
    "forecast_eval": SQL_FORECAST_EVAL,
    "xcorr_daily": SQL_XCORR,
    "burst_detect": SQL_BURST_DETECT,
    "best_split": SQL_BEST_SPLIT,
    "mad_outliers": SQL_MAD,
    "weighted_median": SQL_WEIGHTED_MEDIAN,
    "rolling_median": SQL_ROLLING_MEDIAN,
    "cms_estimate": SQL_CMS,
    "log2_histogram": SQL_LOG2_HIST,
    "event_dedup": SQL_EVENT_DEDUP,
    "median_select": SQL_MEDIAN_SELECT,
    "equidepth_bins": SQL_EQUIDEPTH,
    "cusum_changepoint": SQL_CUSUM,
    "autocorr_daily": SQL_AUTOCORR,
    "benford_digits": SQL_BENFORD,
    "psi_drift": SQL_PSI,
    "winsorize_value": SQL_WINSORIZE,
    "decile_census": SQL_DECILE_CENSUS,
    "sax_daily": SQL_SAX,
}
