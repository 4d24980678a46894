"""Round-3 continuation #11: governance / history-tracking family —
the compliance and state-tracking passes a production data platform
runs next to the monitoring family (``monitor.py``):

- ``kanon_audit``       k-anonymity re-identification risk read-out
- ``scd2_intervals``    slowly-changing-dimension (type 2) history build
- ``transition_probs``  first-order Markov transition matrix over events
- ``ewma_daily``        integer halving EWMA of the per-type daily series

Exactness strategy (repo conventions, see ``stats.py`` / ``monitor.py``
headers): money quantized to integer cents at the edge (half away from
zero, the DuckDB ``round()`` rule), day = ``epoch_us // 86400e6``,
every reduction in int64, DuckDB's truncating integer ``//`` mirrored
with ``sign·(|v|//d)``, NULL-free output (open SCD2 intervals close at
the int64-max sentinel so the driver's string-hash compare never sees
engine-specific NULL renderings), final float op mirrored op-for-op at
e6 with half-away rounding.

Scale notes: every exchange payload here is bounded — k-anonymity
ships one row per equivalence class (and the summary itself is
computed as streaming partials over the class table, so even a
billion-class audit never lands on the driver), SCD2 and the
transition matrix re-key onto a 256-way user shard (per-user groups
are tiny; the vectorized adjacent-row scan runs once per shard — the
``event_dedup`` / ``qa_pairs`` lesson), and the EWMA recursion runs on
the driver over the tiny per-type daily aggregate exactly like
``cusum_changepoint`` (the distributed work is the day reduction; the
sequential recurrence is inherently serial per series and bounded by
#days).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read

# NOTE: no module-level import from .monitor — a worker that enters the
# package via monitor (unpickling one of its stage functions) imports
# relational, whose tail imports THIS module while monitor is still
# partially initialized; ``q_ewma_daily`` imports the shared daily
# partial lazily instead, and the daily SQL is inlined below.

_US_PER_DAY = 86_400_000_000
_I64_MAX = 9_223_372_036_854_775_807
_SHARDS = 256


def _away(v: float) -> int:
    """round-half-away-from-zero, the DuckDB round() rule (local twin
    of monitor._away — see the import note above)."""
    import math

    return int(math.floor(abs(v) + 0.5)) * (1 if v >= 0 else -1)


def _trunc_div(v: np.ndarray, d: int) -> np.ndarray:
    """DuckDB's integer ``//`` truncates toward zero; numpy's floors.
    Mirror: sign·(|v| // d)."""
    v = np.asarray(v, dtype=np.int64)
    return np.sign(v) * (np.abs(v) // d)


# =====================================================================
# k-anonymity audit
# =====================================================================

_KANON_K = 5
#: $10 value bands — coarse enough that classes are populated, fine
#: enough that risky singletons exist at every sf
_KANON_BAND_CENTS = 1000


def q_kanon_audit(sf_dir: str, k: int = _KANON_K):
    """k-anonymity risk audit of the events table under the
    quasi-identifier (event_type, day, $10 value band) — the
    re-identification check a release gate runs before publishing a
    "de-identified" extract (Sweeney 2002; Samarati 2001).  A record
    is risky when its equivalence class holds fewer than k records.

    One row out: class count, record count, risky classes/records and
    the smallest class.  Shape: per-batch partial counts per QI tuple
    (payload = batch's observed QI vocabulary) → one bounded
    ``groupby`` exchange → the summary reduces the CLASS TABLE with a
    second round of streaming partials, so nothing proportional to the
    class count ever lands on the driver."""

    def _partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        df = pd.DataFrame(
            {
                "event_type": et,
                "day": _trunc_div(us, _US_PER_DAY),
                "band": _trunc_div(cents, _KANON_BAND_CENTS),
            }
        )
        g = (
            df.groupby(["event_type", "day", "band"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"]),
                "day": pa.array(g["day"].to_numpy(np.int64)),
                "band": pa.array(g["band"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    classes = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["event_type", "day", "band"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _summ(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        risky = n < k
        return pa.table(
            {
                "n_classes": pa.array([len(n)], pa.int64()),
                "n_records": pa.array([int(n.sum())], pa.int64()),
                "n_risky_classes": pa.array([int(risky.sum())], pa.int64()),
                "n_risky_records": pa.array([int(n[risky].sum())], pa.int64()),
                "min_class_size": pa.array(
                    [int(n.min()) if len(n) else _I64_MAX], pa.int64()
                ),
            }
        )

    parts = classes.map_batches(_summ, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "k": pd.array([k], dtype="int64"),
            "n_classes": pd.array([parts["n_classes"].sum()], dtype="int64"),
            "n_records": pd.array([parts["n_records"].sum()], dtype="int64"),
            "n_risky_classes": pd.array(
                [parts["n_risky_classes"].sum()], dtype="int64"
            ),
            "n_risky_records": pd.array(
                [parts["n_risky_records"].sum()], dtype="int64"
            ),
            "min_class_size": pd.array(
                [parts["min_class_size"].min()], dtype="int64"
            ),
        }
    )


SQL_KANON = f"""
WITH cls AS (
  SELECT event_type,
         epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(round(value * 100, 0) AS BIGINT) // {_KANON_BAND_CENTS} AS band,
         cast(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2, 3)
SELECT cast({_KANON_K} AS BIGINT) AS k,
       cast(count(*) AS BIGINT) AS n_classes,
       cast(sum(n) AS BIGINT) AS n_records,
       cast(count(*) FILTER (n < {_KANON_K}) AS BIGINT) AS n_risky_classes,
       cast(coalesce(sum(n) FILTER (n < {_KANON_K}), 0) AS BIGINT)
         AS n_risky_records,
       cast(min(n) AS BIGINT) AS min_class_size
FROM cls
"""


# =====================================================================
# SCD type-2 history build
# =====================================================================


def q_scd2_intervals(sf_dir: str):
    """Slowly-changing-dimension type-2 history of each user's event
    stream (Kimball's dimensional-modeling idiom): treating the latest
    ``event_type`` as the user's current state, collapse consecutive
    repeats and emit one validity interval per state change —
    ``[valid_from_us, valid_to_us)``, the open (current) interval
    closed at the int64-max sentinel on BOTH engines so the output is
    NULL-free.  Deterministic total order per user: (ts, event_id).

    Shape: users re-key onto a bounded 256-way shard; one sort + two
    vectorized adjacent-row masks per shard (change detection, then
    next-change lookup) — state never crosses users because the
    user-boundary mask resets it.  Row payload through the exchange is
    4 int64-ish columns; text never ships."""

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "shard": pa.array(u % _SHARDS),
                "user_id": pa.array(u),
                "event_type": batch.column("event_type"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            }
        )

    def _intervals(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        u = d["user_id"].to_numpy(np.int64)
        et = d["event_type"].to_numpy()
        us = d["us"].to_numpy(np.int64)
        if len(d) == 0:
            keep = np.zeros(0, dtype=bool)
        else:
            new_user = np.concatenate([[True], u[1:] != u[:-1]])
            keep = new_user | np.concatenate([[True], et[1:] != et[:-1]])
        ku, ket, kus = u[keep], et[keep], us[keep]
        if len(ku):
            same_next = np.concatenate([ku[1:] == ku[:-1], [False]])
            valid_to = np.full(len(ku), _I64_MAX, dtype=np.int64)
            valid_to[same_next] = np.roll(kus, -1)[same_next]
        else:
            valid_to = np.zeros(0, dtype=np.int64)
        return pd.DataFrame(
            {
                "user_id": pd.array(ku, dtype="int64"),
                "event_type": ket,
                "valid_from_us": pd.array(kus, dtype="int64"),
                "valid_to_us": pd.array(valid_to, dtype="int64"),
            }
        )

    from .relational import _schema_guard

    return _schema_guard(
        _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_intervals, batch_format="pandas"),
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("event_type", pa.string()),
                ("valid_from_us", pa.int64()),
                ("valid_to_us", pa.int64()),
            ]
        ),
    )


SQL_SCD2 = f"""
WITH e AS (
  SELECT user_id, event_type,
         epoch_us(cast(ts AS TIMESTAMP)) AS us, event_id,
         lag(event_type) OVER (
           PARTITION BY user_id
           ORDER BY epoch_us(cast(ts AS TIMESTAMP)), event_id) AS prev
  FROM events),
c AS (
  SELECT user_id, event_type, us, event_id FROM e
  WHERE prev IS NULL OR prev <> event_type)
SELECT user_id, event_type, us AS valid_from_us,
       coalesce(lead(us) OVER (PARTITION BY user_id ORDER BY us, event_id),
                {_I64_MAX}) AS valid_to_us
FROM c
"""


# =====================================================================
# First-order Markov transition matrix
# =====================================================================


def q_transition_probs(sf_dir: str):
    """Empirical first-order Markov transition matrix over each user's
    consecutive event pairs (ordered by ts, then event_id) — the
    journey model behind next-event prediction and funnel synthesis;
    contrast ``event_pairs`` (UNORDERED within-session co-occurrence).
    Emits (from_type, to_type, n, p_e6) where p is row-normalized.

    Shape: 256-way user shard → one vectorized adjacent-row pair count
    per shard (payload = shard's observed type×type vocabulary) → one
    tiny ``groupby`` exchange over ≤ |types|² rows; normalization runs
    driver-side on that bounded matrix, with the single mirrored
    double op (1e6·n/tot, half away) shared with the SQL twin."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "shard": pa.array(u % _SHARDS),
                "user_id": pa.array(u),
                "event_type": batch.column("event_type"),
                "us": pc.cast(batch.column("ts"), pa.int64()),
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
            }
        )

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        u = d["user_id"].to_numpy(np.int64)
        et = d["event_type"].to_numpy()
        if len(d) < 2:
            return pd.DataFrame(
                {
                    "from_type": pd.array([], dtype="object"),
                    "to_type": pd.array([], dtype="object"),
                    "n": pd.array([], dtype="int64"),
                }
            )
        same = u[1:] == u[:-1]
        out = (
            pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
            .groupby(["from_type", "to_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    from .relational import _schema_guard

    mat = (
        _schema_guard(
            _read(
                sf_dir, "events", ["event_id", "user_id", "event_type", "ts"]
            )
            .map_batches(_partial, batch_format="pyarrow")
            .groupby("shard")
            .map_groups(_pairs, batch_format="pandas"),
            pa.schema(
                [
                    ("from_type", pa.string()),
                    ("to_type", pa.string()),
                    ("n", pa.int64()),
                ]
            ),
        )
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: ≤ |types|² rows
    )
    tot = mat.groupby("from_type")["n"].transform("sum").to_numpy(np.float64)
    n = mat["n"].to_numpy(np.int64)
    mat["p_e6"] = pd.array(
        [_away(1_000_000.0 * int(c) / t) for c, t in zip(n, tot)],
        dtype="int64",
    )
    return mat.reset_index(drop=True)


SQL_TRANSITION = """
WITH e AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (
           PARTITION BY user_id
           ORDER BY epoch_us(cast(ts AS TIMESTAMP)), event_id) AS nxt
  FROM events),
t AS (
  SELECT event_type AS from_type, nxt AS to_type,
         cast(count(*) AS BIGINT) AS n
  FROM e WHERE nxt IS NOT NULL GROUP BY 1, 2)
SELECT from_type, to_type, n,
       cast(round(1000000.0 * n / (sum(n) OVER (PARTITION BY from_type)), 0)
            AS BIGINT) AS p_e6
FROM t
"""


# =====================================================================
# Integer halving EWMA over the daily series
# =====================================================================


def q_ewma_daily(sf_dir: str):
    """Exponentially-weighted moving average of the per-type daily
    cent totals with α = 1/2, kept INTEGER-EXACT by the halving
    recurrence e_d = (e_{d−1} + x_d) // 2 (truncating division, both
    engines) — the smoother a monitoring pass plots next to
    ``rolling_median``; unlike a float EWMA the result is
    partitioning-independent and hash-exact.

    Shape: the distributed work is the bounded per-(type, day) cent
    reduction (shared ``_daily_type_partial``); the inherently serial
    recurrence then runs on the driver over ≤ #types·#days rows,
    mirrored in SQL by a recursive CTE joining on row_number — the
    ``cusum_changepoint`` division of labor."""
    from ray.data.aggregate import Sum

    from .monitor import _daily_type_partial  # lazy: see import note

    daily = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_daily_type_partial, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("x", alias_name="x"))
        .to_pandas()  # bounded: #types × #days
        .sort_values(["event_type", "day"], kind="mergesort")
        .reset_index(drop=True)
    )
    out_t, out_d, out_e = [], [], []
    for et, g in daily.groupby("event_type", sort=True):
        x = g["x"].to_numpy(np.int64)
        e = int(x[0])
        days = g["day"].to_numpy(np.int64)
        for d, xi in zip(days, x):
            if d != days[0]:
                s = e + int(xi)
                e = (abs(s) // 2) * (1 if s >= 0 else -1)  # trunc like //
            out_t.append(et)
            out_d.append(int(d))
            out_e.append(e)
    return pd.DataFrame(
        {
            "event_type": out_t,
            "day": pd.array(out_d, dtype="int64"),
            "ewma": pd.array(out_e, dtype="int64"),
        }
    )


SQL_EWMA = f"""
WITH RECURSIVE d AS (
  SELECT event_type,
         epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(sum(cast(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1, 2),
r AS (
  SELECT event_type, day, x,
         row_number() OVER (PARTITION BY event_type ORDER BY day) AS rn
  FROM d),
e AS (
  SELECT event_type, day, rn, x AS ewma FROM r WHERE rn = 1
  UNION ALL
  SELECT r.event_type, r.day, r.rn, (e.ewma + r.x) // 2
  FROM e JOIN r ON r.event_type = e.event_type AND r.rn = e.rn + 1
)
SELECT event_type, day, ewma FROM e
"""


# =====================================================================
# Differentially-private count release (hash-exact discrete Laplace)
# =====================================================================

#: two-sided-geometric (discrete Laplace) noise with p = 1/2
#: (ε = ln 2).  GRID = 3·2^20 makes every CDF value an EXACT integer:
#: P(|X| ≤ k) = 1 − (2/3)·2^−k  ⟹  T_k = GRID − 2^(21−k), k = 0..20 —
#: magnitude = #{k : T_k ≤ g}, capped at 21 (residual mass 2^−21·2/3).
#: The noise draw derives from md5 of the group key (the cms/bootstrap
#: affine-hash idiom), so the WHOLE release is expressible verbatim in
#: SQL and the oracle is hash-exact — contrast seeded rows-only noise.
_DP_GRID = 3 * (1 << 20)
_DP_MOD = 2_305_843_009_213_693_951  # 2^61 − 1 (HUGEINT-safe modulus)
_DP_T = [_DP_GRID - (1 << (21 - k)) for k in range(21)]


def q_dp_counts(sf_dir: str):
    """Per-event-type counts released with deterministic discrete-
    Laplace noise (ε = ln 2) — the differential-privacy publication
    primitive (Ghosh, Roughgarden & Sundararajan 2009: the two-sided
    geometric mechanism is the OPTIMAL ε-DP noise for counts).  The
    noise is derived from ``md5(event_type)`` pushed through integer
    inverse-CDF thresholds, so both engines draw the SAME noise and
    the release is oracle-exact.  (A production release derives the
    hash from a secret salt + the key and drops ``n_true``; both are
    kept here so the mechanism itself is driver-verified.)

    Shape: per-batch partial type counts → one exchange bounded by
    #types; the noise map touches only the tiny aggregate."""
    import hashlib

    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column("event_type").combine_chunks())
        return pa.table(
            {
                "event_type": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = (
        _read(sf_dir, "events", ["event_type"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded by #types
        .sort_values("event_type", kind="mergesort")
        .reset_index(drop=True)
    )
    thr = np.asarray(_DP_T, dtype=np.int64)
    u = np.array(
        [
            int.from_bytes(
                hashlib.md5(s.encode()).digest()[8:], "little"
            )
            % _DP_MOD
            for s in counts["event_type"]
        ],
        dtype=np.int64,
    )
    g = u % _DP_GRID
    mag = np.searchsorted(thr, g, side="right").astype(np.int64)
    sgn = 1 - 2 * (u % 2)
    noise = sgn * mag
    n = counts["n"].to_numpy(np.int64)
    return pd.DataFrame(
        {
            "event_type": counts["event_type"].to_numpy(),
            "n_true": pd.array(n, dtype="int64"),
            "noise": pd.array(noise, dtype="int64"),
            "n_released": pd.array(n + noise, dtype="int64"),
        }
    )


_DP_CASE = " ".join(
    f"WHEN g < {t} THEN {k}" for k, t in enumerate(_DP_T)
)

SQL_DP_COUNTS = f"""
WITH c AS (
  SELECT event_type, cast(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
h AS (
  SELECT event_type, n,
         cast(md5_number_lower(event_type) % {_DP_MOD} AS BIGINT) AS u
  FROM c),
g AS (
  SELECT event_type, n, u % {_DP_GRID} AS g,
         1 - 2 * (u % 2) AS sgn
  FROM h),
m AS (
  SELECT event_type, n,
         sgn * (CASE {_DP_CASE} ELSE 21 END) AS noise
  FROM g)
SELECT event_type, n AS n_true, cast(noise AS BIGINT) AS noise,
       cast(n + noise AS BIGINT) AS n_released
FROM m
"""


# =====================================================================
# Holt linear (level + trend) integer smoother
# =====================================================================


def _tdiv2(v: int) -> int:
    """``v // 2`` with TRUNCATION toward zero — DuckDB's integer ``//``
    (Python's floors; they differ on negative odd values, and the Holt
    trend term goes negative on any downswing)."""
    return (abs(v) // 2) * (1 if v >= 0 else -1)


def q_holt_linear(sf_dir: str):
    """Holt's linear (double-exponential) smoothing of the global
    daily cent totals with α = β = 1/2, kept INTEGER-EXACT by the
    truncating halving recurrences

        l_d = (l_{d−1} + b_{d−1} + x_d) // 2
        b_d = (b_{d−1} + (l_d − l_{d−1})) // 2

    (l_0 = x_0, b_0 = 0) — the trend-aware upgrade of ``ewma_daily``:
    the level track follows a ramp with bounded lag instead of the
    EWMA's growing one.  Like the EWMA, integer state makes the
    inherently serial recursion partitioning-independent and the
    oracle a recursive CTE, not a float race.

    Shape: distributed per-day cent reduction (one bounded exchange);
    the recursion runs on the driver over ≤ #days rows."""
    from ray.data.aggregate import Sum

    def _day_partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = us // _US_PER_DAY
        c = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        uday, inv = np.unique(day, return_inverse=True)
        return pa.table(
            {
                "day": pa.array(uday, pa.int64()),
                "x": pa.array(
                    np.bincount(inv, weights=c.astype(np.float64)).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    daily = (
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(_day_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("x", alias_name="x"))
        .to_pandas()  # bounded: #days
        .sort_values("day", kind="mergesort")
        .reset_index(drop=True)
    )
    x = daily["x"].to_numpy(np.int64)
    lvl = np.empty(len(x), dtype=np.int64)
    trd = np.empty(len(x), dtype=np.int64)
    l, b = int(x[0]), 0
    lvl[0], trd[0] = l, b
    for i in range(1, len(x)):
        l_new = _tdiv2(l + b + int(x[i]))
        b = _tdiv2(b + (l_new - l))
        l = l_new
        lvl[i], trd[i] = l, b
    return pd.DataFrame(
        {
            "day": daily["day"].to_numpy(np.int64),
            "x": pd.array(x, dtype="int64"),
            "level": pd.array(lvl, dtype="int64"),
            "trend": pd.array(trd, dtype="int64"),
        }
    )


SQL_HOLT = f"""
WITH RECURSIVE d AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(sum(cast(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS x
  FROM events GROUP BY 1),
r AS (
  SELECT day, x, row_number() OVER (ORDER BY day) AS rn FROM d),
e AS (
  SELECT rn, day, x, x AS level, cast(0 AS BIGINT) AS trend
  FROM r WHERE rn = 1
  UNION ALL
  SELECT r.rn, r.day, r.x,
         (e.level + e.trend + r.x) // 2,
         (e.trend + ((e.level + e.trend + r.x) // 2 - e.level)) // 2
  FROM e JOIN r ON r.rn = e.rn + 1
)
SELECT day, x, level, trend FROM e
"""


# =====================================================================
# ldiv_audit — l-diversity release audit (Machanavajjhala 2006)
# =====================================================================

_LDIV_L = 3  #: required distinct sensitive values per class, pinned


def q_ldiv_audit(sf_dir: str):
    """Distinct l-diversity audit of the events table under the
    quasi-identifier (day, $10 value band) with ``event_type`` as the
    SENSITIVE attribute (Machanavajjhala et al. 2006) — the release
    gate that catches what ``kanon_audit`` misses: a class can hold
    ≥ k records yet reveal everyone's event type when all records
    share one value.  l(class) = #distinct sensitive values.

    Shape: per-batch DISTINCT (day, band, type) partials → one
    triple-keyed dedupe exchange → one (day, band) Count exchange
    (each class lands in exactly one aggregated row) → streaming
    summary partials fold the bounded l-histogram driver-side.
    Output: one row ``(l_req, n_classes, n_low_classes, min_l,
    l_1, l_2, l_3, l_4, l_5, l_6p)``."""
    from ray.data.aggregate import Count

    def _partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        df = pd.DataFrame(
            {
                "day": _trunc_div(us, _US_PER_DAY),
                "band": _trunc_div(cents, _KANON_BAND_CENTS),
                "event_type": et,
            }
        ).drop_duplicates()
        return pa.table(
            {
                "day": pa.array(df["day"].to_numpy(np.int64)),
                "band": pa.array(df["band"].to_numpy(np.int64)),
                "event_type": pa.array(df["event_type"].astype(str)),
            }
        )

    l_per_class = (
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["day", "band", "event_type"])
        .aggregate(Count(alias_name="dup"))
        .groupby(["day", "band"])
        .aggregate(Count(alias_name="l"))
    )

    def _summ(batch: pa.Table) -> pa.Table:
        lv = batch.column("l").to_numpy(zero_copy_only=False).astype(np.int64)
        hist = np.bincount(np.minimum(lv, 6), minlength=7)
        return pa.table(
            {
                "n_classes": pa.array([len(lv)], pa.int64()),
                "n_low": pa.array([int((lv < _LDIV_L).sum())], pa.int64()),
                "min_l": pa.array(
                    [int(lv.min()) if len(lv) else _I64_MAX], pa.int64()
                ),
                **{
                    f"l_{i}": pa.array([int(hist[i])], pa.int64())
                    for i in range(1, 6)
                },
                "l_6p": pa.array([int(hist[6])], pa.int64()),
            }
        )

    parts = l_per_class.map_batches(_summ, batch_format="pyarrow").to_pandas()
    out = {
        "l_req": pd.array([_LDIV_L], dtype="int64"),
        "n_classes": pd.array([parts["n_classes"].sum()], dtype="int64"),
        "n_low_classes": pd.array([parts["n_low"].sum()], dtype="int64"),
        "min_l": pd.array([parts["min_l"].min()], dtype="int64"),
    }
    for i in range(1, 6):
        out[f"l_{i}"] = pd.array([parts[f"l_{i}"].sum()], dtype="int64")
    out["l_6p"] = pd.array([parts["l_6p"].sum()], dtype="int64")
    return pd.DataFrame(out)


SQL_LDIV = f"""
WITH cls AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(round(value * 100, 0) AS BIGINT) // {_KANON_BAND_CENTS}
           AS band,
         cast(count(DISTINCT event_type) AS BIGINT) AS l
  FROM events GROUP BY 1, 2)
SELECT cast({_LDIV_L} AS BIGINT) AS l_req,
       cast(count(*) AS BIGINT) AS n_classes,
       cast(coalesce(sum(CASE WHEN l < {_LDIV_L} THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS n_low_classes,
       cast(min(l) AS BIGINT) AS min_l,
       cast(coalesce(sum(CASE WHEN l = 1 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS l_1,
       cast(coalesce(sum(CASE WHEN l = 2 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS l_2,
       cast(coalesce(sum(CASE WHEN l = 3 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS l_3,
       cast(coalesce(sum(CASE WHEN l = 4 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS l_4,
       cast(coalesce(sum(CASE WHEN l = 5 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS l_5,
       cast(coalesce(sum(CASE WHEN l >= 6 THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS l_6p
FROM cls
"""


QUERIES = {
    "kanon_audit": q_kanon_audit,
    "ldiv_audit": q_ldiv_audit,
    "scd2_intervals": q_scd2_intervals,
    "transition_probs": q_transition_probs,
    "ewma_daily": q_ewma_daily,
    "dp_counts": q_dp_counts,
    "holt_linear": q_holt_linear,
}

ORACLE_SQL = {
    "kanon_audit": SQL_KANON,
    "ldiv_audit": SQL_LDIV,
    "scd2_intervals": SQL_SCD2,
    "transition_probs": SQL_TRANSITION,
    "ewma_daily": SQL_EWMA,
    "dp_counts": SQL_DP_COUNTS,
    "holt_linear": SQL_HOLT,
}
