"""Round-3 continuation #13: activity-inequality family — the skew
audits that quantify how concentrated a workload is before you pick a
partitioning (the measurement behind ``salt_plan``'s split decisions).
Three estimators over per-user event counts, each a ``queries()``
entry with a DuckDB oracle:

- ``gini_concentration``  exact integer Gini coefficient
- ``theil_index``         Theil T entropy index (e9-quantized ln terms)
- ``hhi_concentration``   Herfindahl–Hirschman index (pure rational)

Exactness / scale strategy (the ``mannwhitney_u`` rank trick): none
of these need per-user ranks materialized.  All three reduce to the
DISTINCT-VALUE census (v, c_v) = (#events, #users with that count):

- Gini's Σ rank·x over users sorted by (x, user_id) collapses per
  equal-value run — the tie-break is irrelevant because tied users
  carry equal x — to  Σ_v v·(R_v·c_v + c_v(c_v+1)/2), R_v = #users
  below v; an 8-byte-per-distinct-value fold.
- Theil needs Σ_v c_v·v·qln9(v·n/Σx); HHI needs Σ_v c_v·v².

So the pipeline is: per-batch partial user counts → one user-keyed
exchange → one tiny value-census exchange → constant-size driver
fold.  The oracles compute the textbook row_number/window forms —
the engine never ranks.  Ratios are released as exact integer
numerator/denominator plus a truncating ``*_e6`` (sign*(abs//)
mirrors DuckDB's toward-zero ``//``; all quantities here are >= 0).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .relational import _i64_away_np, _read


#: sf_dir → folded activity census; gini/theil/hhi/hill/atkinson all
#: fold over this one bounded reduct, so one pass per process (the
#: measures._DAY_CENSUS_MEMO pattern — VERDICT r3 #5: the census
#: family must share ONE execution per bench run)
_VALUE_CENSUS_MEMO: dict[str, pd.DataFrame] = {}


def _value_census(sf_dir: str) -> pd.DataFrame:
    """(v, c) rows: c users had exactly v events — the bounded reduct
    all three estimators fold over.  Memoized per sf_dir (testdata is
    immutable; callers must not mutate the returned frame)."""
    if sf_dir in _VALUE_CENSUS_MEMO:
        return _VALUE_CENSUS_MEMO[sf_dir]
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id"])

    def _partial(t: pa.Table) -> pa.Table:
        u, cnt = np.unique(t.column("user_id").to_numpy(), return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "x": pa.array(cnt.astype(np.int64)),
            }
        )

    per_user = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("x", alias_name="x"))
    )

    def _census(t: pa.Table) -> pa.Table:
        v, c = np.unique(t.column("x").to_numpy(), return_counts=True)
        return pa.table(
            {
                "v": pa.array(v.astype(np.int64)),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    census = (
        per_user.map_batches(_census, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # bounded by the distinct activity levels
        .sort_values("v", kind="mergesort")
        .reset_index(drop=True)
    )
    _VALUE_CENSUS_MEMO[sf_dir] = census
    return census


_SQL_CENSUS = """
u AS (SELECT user_id, cast(count(*) AS BIGINT) AS x
      FROM events GROUP BY user_id),
t AS (SELECT cast(count(*) AS BIGINT) AS n,
             cast(sum(x) AS BIGINT) AS sx FROM u)
"""


def q_gini_concentration(sf_dir: str):
    """Exact Gini coefficient of per-user event counts:
    G = (2·Σ rank·x − (n+1)·Σx) / (n·Σx), ranks by (x, user_id) —
    computed WITHOUT ranking via the equal-value run identity (module
    docstring).  Output (n_users, gini_num, gini_den, gini_e6).

    Contrast ``key_skew`` (series.py:544), which computes the same G
    by sorting the per-key count table ON THE DRIVER and explicitly
    documents that its exact path needs the key cardinality to fit
    there: this operator IS the unbounded-cardinality exact path it
    points at — the driver fold here is over distinct activity
    LEVELS (≲ max per-user count), not distinct keys, and the ratio
    is released as an integer num/den instead of one double."""
    cen = _value_census(sf_dir)
    v = cen["v"].to_numpy(np.int64)
    c = cen["c"].to_numpy(np.int64)
    n = int(c.sum())
    sx = int((v * c).sum())
    below = np.concatenate(([0], np.cumsum(c)[:-1]))  # R_v
    rank_x = int((v * (below * c + c * (c + 1) // 2)).sum())
    num = 2 * rank_x - (n + 1) * sx
    den = n * sx
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "gini_num": pa.array([num], pa.int64()),
            "gini_den": pa.array([den], pa.int64()),
            "gini_e6": pa.array([(10**6 * num) // den], pa.int64()),
        }
    )


SQL_GINI = f"""
WITH {_SQL_CENSUS},
r AS (SELECT x, row_number() OVER (ORDER BY x, user_id) AS rk FROM u),
s AS (SELECT cast(sum(rk * x) AS BIGINT) AS rank_x FROM r)
SELECT t.n AS n_users,
       cast(2 * s.rank_x - (t.n + 1) * t.sx AS BIGINT) AS gini_num,
       cast(t.n * t.sx AS BIGINT) AS gini_den,
       cast((1000000 * (2 * cast(s.rank_x AS HUGEINT)
                        - (t.n + 1) * cast(t.sx AS HUGEINT)))
            // (cast(t.n AS HUGEINT) * t.sx) AS BIGINT) AS gini_e6
FROM s, t
"""


def q_theil_index(sf_dir: str):
    """Theil T entropy index: T = (1/Σx)·Σ_u x_u·ln(x_u·n/Σx)
    (equivalently (1/n)Σ(x/μ)ln(x/μ)).  Each ln term e9-quantized
    BEFORE the integer sum (the ``psi_drift`` idiom), folded over the
    value census.  Output (n_users, theil_num_e9, theil_den,
    theil_e6) with theil_e6 = (1000·num) // (den·1e6) — kept in pure
    integer ops both sides."""
    cen = _value_census(sf_dir)
    v = cen["v"].to_numpy(np.int64)
    c = cen["c"].to_numpy(np.int64)
    n = int(c.sum())
    sx = int((v * c).sum())
    t9 = _i64_away_np(
        np.log(v.astype(np.float64) * n / sx), 1e9
    ).astype(np.int64)
    num = int((c * v * t9).sum())
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "theil_num_e9": pa.array([num], pa.int64()),
            "theil_den": pa.array([sx], pa.int64()),
            "theil_e6": pa.array(
                [(abs(num) // (sx * 1000)) * (1 if num >= 0 else -1)],
                pa.int64(),
            ),
        }
    )


SQL_THEIL = f"""
WITH {_SQL_CENSUS},
q AS (SELECT x,
             cast(round(ln(cast(x AS DOUBLE) * t.n / t.sx) * 1000000000, 0)
                  AS BIGINT) AS t9
      FROM u, t),
s AS (SELECT cast(sum(x * t9) AS BIGINT) AS num FROM q)
SELECT t.n AS n_users,
       s.num AS theil_num_e9,
       t.sx AS theil_den,
       cast(cast(s.num AS HUGEINT) // (cast(t.sx AS HUGEINT) * 1000)
            AS BIGINT) AS theil_e6
FROM s, t
"""


def q_hhi_concentration(sf_dir: str):
    """Herfindahl–Hirschman concentration of activity:
    HHI = Σ_u (x_u/Σx)² = Σx²/(Σx)² — a pure rational, folded over
    the value census (Σx² = Σ_v c_v·v²).  Output (n_users, hhi_num,
    hhi_den, hhi_e6); uniform users give 1/n, a monopolist 1."""
    cen = _value_census(sf_dir)
    v = cen["v"].to_numpy(np.int64)
    c = cen["c"].to_numpy(np.int64)
    n = int(c.sum())
    sx = int((v * c).sum())
    sxx = int((c * v * v).sum())
    den = sx * sx
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "hhi_num": pa.array([sxx], pa.int64()),
            "hhi_den": pa.array([den], pa.int64()),
            "hhi_e6": pa.array([(10**6 * sxx) // den], pa.int64()),
        }
    )


SQL_HHI = f"""
WITH {_SQL_CENSUS},
s AS (SELECT cast(sum(x * x) AS BIGINT) AS sxx FROM u)
SELECT t.n AS n_users,
       s.sxx AS hhi_num,
       cast(t.sx * t.sx AS BIGINT) AS hhi_den,
       cast((1000000 * cast(s.sxx AS HUGEINT))
            // (cast(t.sx AS HUGEINT) * t.sx) AS BIGINT) AS hhi_e6
FROM s, t
"""


QUERIES = {
    "gini_concentration": q_gini_concentration,
    "theil_index": q_theil_index,
    "hhi_concentration": q_hhi_concentration,
}

ORACLE_SQL = {
    "gini_concentration": SQL_GINI,
    "theil_index": SQL_THEIL,
    "hhi_concentration": SQL_HHI,
}
