"""Round-3 continuation #13: engagement family over the event log —
user-lifecycle reporting for a product warehouse, each a ``queries()``
entry with a DuckDB oracle:

- ``cohort_retention``  weekly cohort × week-offset active-user grid
                        (the classic retention triangle)
- ``recency_score``     per-user integer exponential-decay engagement
                        score (weight 2^(day - day_min) — EXACT, the
                        halving-decay idiom of ``ewma_daily`` inverted
                        so recency weighs more, no float decay)

Exactness: day = ``epoch_us // 86400e6``; weights are powers of two
over a ≤31-day span (max 2^30, per-user sums << 2^63); cohort weeks
floor-divide non-negative day offsets identically in both engines.

Scale shapes: cohort_retention's first exchange is the distinct
(user, week) grid (per-batch dedupe first), the second keys by user
with a bounded per-user week list; recency_score pre-aggregates per
batch so the exchange carries (user, partial) rows.  (A watermark /
late-arrival audit already exists as ``late_events``, series.py:2714,
with the two-phase prefix-max scan.)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read

_US_PER_DAY = 86_400_000_000


def _day_col(t: pa.Table) -> np.ndarray:
    us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
    return us // _US_PER_DAY


def _global_day_min(ds) -> int:
    """Global min day. Per-batch minima are one row each, so Dataset
    ``.min()`` (a full aggregate exchange, ~2 s operator startup) is
    pure overhead — stream the one-row partials and fold driver-side
    (bounded by #batches at any scale)."""
    return min(
        int(t.column("d")[0].as_py())
        for t in ds.map_batches(
            lambda t: pa.table(
                {"d": pa.array([int(_day_col(t).min())], pa.int64())}
            ),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )


def q_cohort_retention(sf_dir: str):
    """Retention triangle: users bucket into the week of their FIRST
    event (cohort); each later active week counts them at offset
    ``week - cohort``.  Output (cohort_week, week_offset, n_users).
    Contrast ``retention_cohorts`` (analytics.py:1417), which reports
    only adjacent-week (active → active next week) retention per
    calendar week: the triangle keys every user to their acquisition
    cohort and follows it across ALL offsets.

    Two keyed exchanges: distinct (user, week) — deduped per batch
    first, so the payload is the activity GRID, not the stream — then
    a per-user ``map_groups`` that emits each user's offsets from its
    own min week; the final (cohort, offset) aggregate is a ≤(weeks²)
    grid."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    d0 = _global_day_min(ds)

    def _user_weeks(t: pa.Table, d0=d0) -> pa.Table:
        week = (_day_col(t) - d0) // 7
        df = pd.DataFrame(
            {"user_id": t.column("user_id").to_numpy(), "week": week}
        ).drop_duplicates()
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "week": pa.array(df["week"].to_numpy(np.int64)),
            }
        )

    def _offsets_shard(g: pd.DataFrame) -> pd.DataFrame:
        # ONE vectorized pass per SHARD: dedupe (user, week), cohort =
        # per-user min week via a C groupby transform, offsets follow
        d = g.drop_duplicates(["user_id", "week"])
        cw = d.groupby("user_id", sort=False)["week"].transform("min")
        return pd.DataFrame(
            {
                "cohort_week": cw.to_numpy(np.int64),
                "week_offset": d["week"].to_numpy(np.int64)
                - cw.to_numpy(np.int64),
                "n": np.ones(len(d), dtype=np.int64),
            }
        )

    from .relational import _schema_guard, _user_shard

    grid = (
        _schema_guard(
            ds.map_batches(_user_weeks, batch_format="pyarrow")
            .map_batches(_user_shard, batch_format="pyarrow")
            .groupby("shard")
            .map_groups(_offsets_shard, batch_format="pandas"),
            pa.schema(
                [
                    ("cohort_week", pa.int64()),
                    ("week_offset", pa.int64()),
                    ("n", pa.int64()),
                ]
            ),
        )
        .materialize()  # bounded: users x weeks; guards the 2nd exchange
    )
    out = grid.groupby(["cohort_week", "week_offset"]).aggregate(
        Sum("n", alias_name="n_users")
    )
    return out


SQL_COHORT = """
WITH d AS (SELECT user_id,
                  epoch_us(ts) // 86400000000 AS day FROM events),
m AS (SELECT min(day) AS d0 FROM d),
w AS (SELECT DISTINCT user_id, (day - d0) // 7 AS week FROM d, m),
c AS (SELECT user_id, min(week) AS cw FROM w GROUP BY user_id)
SELECT c.cw AS cohort_week, w.week - c.cw AS week_offset,
       cast(count(*) AS BIGINT) AS n_users
FROM w JOIN c USING (user_id)
GROUP BY cohort_week, week_offset
"""


def q_recency_score(sf_dir: str):
    """Integer exponential-recency engagement score per user:
    weight(event) = 2^(day - day_min) — the most recent day weighs
    2^30-ish, yesterday half that — summed exactly in int64 (span is
    ≤31 days, per-user sums << 2^63).  The float-free way to rank
    users by decayed activity; halving-decay sibling of
    ``ewma_daily``.  Per-batch partial sums keyed by user → one
    exchange bounded by the user count."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    d0 = _global_day_min(ds)

    def _partial(t: pa.Table, d0=d0) -> pa.Table:
        w = np.int64(1) << (_day_col(t) - d0)
        df = pd.DataFrame({"user_id": t.column("user_id").to_numpy(), "w": w})
        g = df.groupby("user_id", sort=False)["w"].sum().reset_index()
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
                "score": pa.array(g["w"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("score", alias_name="score"))
    )


SQL_RECENCY = """
WITH d AS (SELECT user_id,
                  epoch_us(ts) // 86400000000 AS day FROM events),
m AS (SELECT min(day) AS d0 FROM d)
SELECT user_id,
       cast(sum(cast(1 AS BIGINT) << cast(day - d0 AS INTEGER))
            AS BIGINT) AS score
FROM d, m GROUP BY user_id
"""


QUERIES = {
    "cohort_retention": q_cohort_retention,
    "recency_score": q_recency_score,
}

ORACLE_SQL = {
    "cohort_retention": SQL_COHORT,
    "recency_score": SQL_RECENCY,
}
