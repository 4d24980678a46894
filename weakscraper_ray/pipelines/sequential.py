"""Round-3 continuation #13b: sequential-analysis family — early
stopping over an ORDERED event stream, a ``queries()`` entry with a
DuckDB oracle:

- ``sprt_test``  Wald's Sequential Probability Ratio Test (1945): the
                 cumulative log-likelihood-ratio walk over events in
                 (ts, event_id) order, H0: purchase-rate 3/20 vs
                 H1: 1/4, boundaries ±ln((1-β)/α) at α = β = 0.05 —
                 report the FIRST boundary crossing (index + verdict)

Exactness: the two LLR step values and the boundary are e6-quantized
ln literals shared by both engines; the walk is then a pure int64
prefix sum, so the crossing index is deterministic under any
partitioning.

The distributed mechanism is the interesting part — "find the FIRST
prefix-sum threshold crossing" without a global ordered scan:

  phase 1: per-day partials (chunk total, running min, running max of
           the within-day walk) — one bounded exchange, like the
           ``late_events`` prefix-max scan but carrying BOTH extrema;
  phase 2: the driver's exclusive carry over ≤#days rows locates the
           unique first day whose carried extrema cross a boundary,
           and ONLY that day's rows are re-scanned for the exact
           index.  (At 10^12 rows phase 2 recurses hour→minute with
           the same partials — a logarithmic number of bounded scans,
           never a global sort.)
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read

_US_PER_DAY = 86_400_000_000

#: H0 / H1 purchase rates and the α=β=0.05 boundary, e6-quantized ONCE
#: as integer literals (round-half-away, the repo rule) so both
#: engines share the exact step values.
_P0_NUM, _P0_DEN = 3, 20
_P1_NUM, _P1_DEN = 1, 4
_S_POS = 510_826   # round(1e6 * ln((1/4)/(3/20)))  = ln(5/3)
_S_NEG = -125_163  # round(1e6 * ln((3/4)/(17/20))) = ln(15/17)
_BOUND = 2_944_439  # round(1e6 * ln(0.95/0.05))    = ln(19)

# the literals above are derived constants — verify at import so a
# transcription slip can never silently skew the walk
assert _S_POS == round(1e6 * math.log((1 / 4) / (3 / 20)))
assert _S_NEG == round(1e6 * math.log((3 / 4) / (17 / 20)))
assert _BOUND == round(1e6 * math.log(19))


def q_sprt_test(sf_dir: str):
    """Wald SPRT first-crossing over the event stream (module
    docstring).  Output one row: (n_obs, decision, cross_idx,
    s_final) — decision 'h1' / 'h0' / 'none', cross_idx 1-based
    global index of the first crossing (0 if none)."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])

    def _with_day(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64())
        step = pc.if_else(
            pc.equal(t.column("event_type"), "purchase"),
            pa.scalar(_S_POS, pa.int64()),
            pa.scalar(_S_NEG, pa.int64()),
        )
        return pa.table(
            {
                "day": pa.array(
                    us.to_numpy(zero_copy_only=False) // _US_PER_DAY
                ),
                "us": us,
                "event_id": t.column("event_id"),
                "step": step,
            }
        )

    staged = ds.map_batches(_with_day, batch_format="pyarrow").materialize()

    def _chunk(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort(
            (g["event_id"].to_numpy(np.int64), g["us"].to_numpy(np.int64))
        )
        s = np.cumsum(g["step"].to_numpy(np.int64)[order])
        return pd.DataFrame(
            {
                "day": g["day"].iloc[:1].to_numpy(np.int64),
                "n": np.array([len(s)], dtype=np.int64),
                "total": s[-1:],
                "run_min": np.array([int(s.min())], dtype=np.int64),
                "run_max": np.array([int(s.max())], dtype=np.int64),
            }
        )

    days = (
        staged.groupby("day")
        .map_groups(_chunk, batch_format="pandas")
        .to_pandas()  # bounded by #days
        .sort_values("day", kind="mergesort")
        .reset_index(drop=True)
    )
    n_obs = int(days["n"].sum())
    s_final = int(days["total"].sum())

    carry = 0
    before = 0
    hit_day = None
    for _, row in days.iterrows():
        if (
            carry + int(row["run_max"]) >= _BOUND
            or carry + int(row["run_min"]) <= -_BOUND
        ):
            hit_day = int(row["day"])
            break
        carry += int(row["total"])
        before += int(row["n"])

    if hit_day is None:
        return pa.table(
            {
                "n_obs": pa.array([n_obs], pa.int64()),
                "decision": pa.array(["none"]),
                "cross_idx": pa.array([0], pa.int64()),
                "s_final": pa.array([s_final], pa.int64()),
            }
        )

    # phase 2: exact index inside the (bounded) hit day; at true scale
    # this recurses hour -> minute with the same partials instead
    one = (
        staged.filter(expr=f"day == {hit_day}")
        .to_pandas()
        .sort_values(["us", "event_id"], kind="mergesort")
    )
    s = carry + np.cumsum(one["step"].to_numpy(np.int64))
    crossed = (s >= _BOUND) | (s <= -_BOUND)
    local = int(np.flatnonzero(crossed)[0])
    decision = "h1" if s[local] >= _BOUND else "h0"
    return pa.table(
        {
            "n_obs": pa.array([n_obs], pa.int64()),
            "decision": pa.array([decision]),
            "cross_idx": pa.array([before + local + 1], pa.int64()),
            "s_final": pa.array([s_final], pa.int64()),
        }
    )


SQL_SPRT = f"""
WITH s AS (SELECT epoch_us(ts) AS us, event_id,
                  CASE WHEN event_type = 'purchase'
                       THEN {_S_POS} ELSE {_S_NEG} END AS st
           FROM events),
w AS (SELECT sum(st) OVER (ORDER BY us, event_id
                           ROWS UNBOUNDED PRECEDING) AS sw,
             row_number() OVER (ORDER BY us, event_id) AS rn
      FROM s),
x AS (SELECT rn, sw,
             CASE WHEN sw >= {_BOUND} THEN 'h1' ELSE 'h0' END AS d
      FROM w WHERE sw >= {_BOUND} OR sw <= {-_BOUND}
      ORDER BY rn LIMIT 1)
SELECT (SELECT cast(count(*) AS BIGINT) FROM s) AS n_obs,
       coalesce((SELECT d FROM x), 'none') AS decision,
       coalesce((SELECT cast(rn AS BIGINT) FROM x), 0) AS cross_idx,
       (SELECT cast(sum(st) AS BIGINT) FROM s) AS s_final
"""


QUERIES = {
    "sprt_test": q_sprt_test,
}

ORACLE_SQL = {
    "sprt_test": SQL_SPRT,
}
