"""Round-3 continuation #11 (second batch): statistical-inference /
distribution-drift family — the uncertainty and dependence read-outs a
data platform publishes next to the point estimates:

- ``bootstrap_ci``  Poisson-bootstrap confidence interval (one pass)
- ``mutual_info``   mutual information + entropies of type × value band
- ``survival_km``   Kaplan–Meier user-retention curve with censoring
- ``emd_drift``     EXACT integer 1-D Wasserstein (earth-mover) drift

Exactness strategy (repo conventions, see ``monitor.py`` /
``stats.py`` headers): money as integer cents (half away from zero),
DuckDB's truncating ``//`` mirrored, deterministic hash-derived
randomness expressed VERBATIM in SQL (the ``cms_estimate`` affine
idiom — so even the bootstrap is oracle-exact, not seeded-rows-only),
logarithm/exponential terms quantized to integers BEFORE any
order-sensitive sum (the ``psi_drift`` lesson), final float op
mirrored op-for-op.

Scale notes: ``bootstrap_ci`` is the production one-pass resampling
scheme (Poisson bootstrap; Chamandy, Muralidharan, Najmi & Naidu,
Google tech report 2012 "Estimating uncertainty for massive data
streams") — each element's weight in replicate r derives from an
affine hash, so partials are (replicate, Σwx, Σw) rows and the
exchange is 65 rows regardless of stream length.  ``mutual_info``
ships one row per observed (type, band) cell.  ``survival_km``'s
exchanges are the per-user max-day hash aggregate and a per-day count;
the serial product runs on the driver over ≤ #days rows.
``emd_drift`` reduces to one row per DISTINCT cent value — bounded by
the price domain, not the row count (documented assumption; at an
unbounded domain swap the exact CDF walk for a fixed integer grid and
keep the walk unchanged).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read

_US_PER_DAY = 86_400_000_000


def _away(v: float) -> int:
    """round-half-away-from-zero, the DuckDB round() rule."""
    return int(math.floor(abs(v) + 0.5)) * (1 if v >= 0 else -1)


# =====================================================================
# Poisson-bootstrap confidence interval
# =====================================================================

_BOOT_B = 64  #: replicates
_BOOT_P = 2_147_483_647  #: Mersenne prime 2^31 − 1 (cms idiom)
_BOOT_A0, _BOOT_AS = 2_654_435_761, 40_503
_BOOT_B0, _BOOT_BS = 7, 97
_BOOT_GRID = 1_048_576  #: 2^20 — hash → uniform grid for the inverse CDF

#: Poisson(1) inverse-CDF thresholds on the 2^20 grid, computed once
#: and embedded as LITERALS in the SQL twin so both engines share the
#: exact integers: weight(u) = #{k : T_k ≤ u} = index of first T_k > u.
_BOOT_T = []
_cdf = 0.0
_pk = math.exp(-1.0)
for _k in range(10):
    _cdf += _pk
    _BOOT_T.append(int(math.floor(_BOOT_GRID * _cdf)))
    _pk /= _k + 1
del _cdf, _pk, _k


def q_bootstrap_ci(sf_dir: str):
    """95 % confidence interval for the mean event value via the
    ONE-PASS Poisson bootstrap: element i's multiplicity in replicate
    r is Poisson(1), derived deterministically from the affine hash
    ((u·A_r + B_r) mod P) mod 2^20 pushed through the integer
    inverse-CDF thresholds — no resampling pass, no RNG state, and the
    whole construction is expressible verbatim in SQL, so the CI is
    hash-exact (contrast seeded rows-only bootstraps).  lo/hi are the
    2nd-smallest / 2nd-largest of the B = 64 replicate means (the
    discrete 2.5 % / 97.5 % order statistics).

    Shape: one streaming pass; each batch emits 65 partial rows
    ((replicate, Σw·x, Σw) + the plain-total row r = −1); one bounded
    ``groupby`` exchange; CI math on the driver over 64 values."""
    from ray.data.aggregate import Sum

    A = np.array(
        [_BOOT_A0 + r * _BOOT_AS for r in range(_BOOT_B)], dtype=np.int64
    )
    Boff = np.array(
        [_BOOT_B0 + r * _BOOT_BS for r in range(_BOOT_B)], dtype=np.int64
    )
    T = np.array(_BOOT_T, dtype=np.int64)

    def _partial(batch: pa.Table) -> pa.Table:
        u = (
            pc.cast(batch.column("event_id"), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            % _BOOT_P
        )
        c = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        # n×B: u < P < 2^31, A_r < 2^31.4 → product < 2^62.5, no overflow
        h = ((u[:, None] * A[None, :] + Boff[None, :]) % _BOOT_P) % _BOOT_GRID
        w = np.searchsorted(T, h, side="right").astype(np.int64)
        r = np.concatenate([np.arange(_BOOT_B, dtype=np.int64), [-1]])
        s = np.concatenate([(w * c[:, None]).sum(axis=0), [int(c.sum())]])
        ww = np.concatenate([w.sum(axis=0), [len(c)]])
        return pa.table(
            {
                "r": pa.array(r),
                "s": pa.array(s),
                "w": pa.array(ww),
            }
        )

    parts = (
        _read(sf_dir, "events", ["event_id", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("r")
        .aggregate(Sum("s", alias_name="s"), Sum("w", alias_name="w"))
        .to_pandas()  # exactly B+1 rows
        .set_index("r")
    )
    means = []
    for r in range(_BOOT_B):
        s, w = int(parts.loc[r, "s"]), int(parts.loc[r, "w"])
        means.append(_away(1_000_000.0 * s / w) if w else 0)
    means.sort()
    s, n = int(parts.loc[-1, "s"]), int(parts.loc[-1, "w"])
    return pd.DataFrame(
        {
            "n": pd.array([n], dtype="int64"),
            "mean_e6": pd.array([_away(1_000_000.0 * s / n)], dtype="int64"),
            "lo_e6": pd.array([means[1]], dtype="int64"),
            "hi_e6": pd.array([means[_BOOT_B - 2]], dtype="int64"),
        }
    )


_BOOT_CASE = " ".join(
    f"WHEN h < {t} THEN {k}" for k, t in enumerate(_BOOT_T)
)

SQL_BOOTSTRAP = f"""
WITH x AS (
  SELECT event_id % {_BOOT_P} AS u,
         cast(round(value * 100, 0) AS BIGINT) AS c
  FROM events),
rep AS (SELECT cast(unnest(range(0, {_BOOT_B})) AS BIGINT) AS r),
h AS (
  SELECT rep.r, x.c,
         ((x.u * ({_BOOT_A0} + rep.r * {_BOOT_AS})
           + {_BOOT_B0} + rep.r * {_BOOT_BS}) % {_BOOT_P}) % {_BOOT_GRID} AS h
  FROM x CROSS JOIN rep),
wm AS (SELECT r, c, CASE {_BOOT_CASE} ELSE 10 END AS w FROM h),
m AS (
  SELECT r,
         CASE WHEN sum(w) = 0 THEN 0
              ELSE cast(round(1000000.0 * sum(w * c) / sum(w), 0) AS BIGINT)
         END AS rmean
  FROM wm GROUP BY r),
o AS (SELECT rmean, row_number() OVER (ORDER BY rmean) AS rk FROM m)
SELECT (SELECT cast(count(*) AS BIGINT) FROM x) AS n,
       (SELECT cast(round(1000000.0 * sum(c) / count(*), 0) AS BIGINT)
        FROM x) AS mean_e6,
       (SELECT rmean FROM o WHERE rk = 2) AS lo_e6,
       (SELECT rmean FROM o WHERE rk = {_BOOT_B - 1}) AS hi_e6
"""


# =====================================================================
# Mutual information (type × value band)
# =====================================================================

_MI_BAND_CENTS = 1000


def q_mutual_info(sf_dir: str):
    """Mutual information I(event_type; $10 value band) plus both
    marginal entropies — the dependence audit behind feature selection
    and leakage checks (is the label already encoded in a feature?).
    Each cell's p·ln(…) term is quantized to e9 BEFORE the integer sum
    (order-independent, shared libm — the ``psi_drift`` mirror), so
    the statistic is hash-exact despite the logarithms.

    Shape: per-batch partial counts per observed (type, band) cell →
    one bounded exchange; marginals + terms on the driver over the
    tiny grid.  Zero cells contribute exactly 0 on both engines
    (the SQL joint only materializes observed cells)."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cents = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        band = np.sign(cents) * (np.abs(cents) // _MI_BAND_CENTS)
        g = (
            pd.DataFrame({"x": et, "y": band})
            .groupby(["x", "y"], sort=False)
            .size()
            .reset_index(name="nxy")
        )
        return pa.table(
            {
                "x": pa.array(g["x"]),
                "y": pa.array(g["y"].to_numpy(np.int64)),
                "nxy": pa.array(g["nxy"].to_numpy(np.int64)),
            }
        )

    grid = (
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["x", "y"])
        .aggregate(Sum("nxy", alias_name="nxy"))
        .to_pandas()  # bounded: observed type × band cells
    )
    n = int(grid["nxy"].sum())
    nx = grid.groupby("x")["nxy"].sum()
    ny = grid.groupby("y")["nxy"].sum()
    mi = 0
    for row in grid.itertuples():
        nxy, a, b = int(row.nxy), int(nx[row.x]), int(ny[row.y])
        mi += _away(
            1_000_000_000.0
            * (nxy / n)
            * math.log((float(nxy) * float(n)) / (float(a) * float(b)))
        )
    hx = -sum(
        _away(1_000_000_000.0 * (int(v) / n) * math.log(int(v) / n))
        for v in nx
    )
    hy = -sum(
        _away(1_000_000_000.0 * (int(v) / n) * math.log(int(v) / n))
        for v in ny
    )
    return pd.DataFrame(
        {
            "n": pd.array([n], dtype="int64"),
            "mi_e9": pd.array([mi], dtype="int64"),
            "hx_e9": pd.array([hx], dtype="int64"),
            "hy_e9": pd.array([hy], dtype="int64"),
        }
    )


SQL_MUTUAL_INFO = f"""
WITH c AS (
  SELECT event_type AS x,
         cast(round(value * 100, 0) AS BIGINT) // {_MI_BAND_CENTS} AS y
  FROM events),
j AS (SELECT x, y, cast(count(*) AS BIGINT) AS nxy FROM c GROUP BY 1, 2),
mx AS (SELECT x, cast(sum(nxy) AS BIGINT) AS nx FROM j GROUP BY 1),
my AS (SELECT y, cast(sum(nxy) AS BIGINT) AS ny FROM j GROUP BY 1),
t AS (SELECT cast(sum(nxy) AS BIGINT) AS n FROM j),
terms AS (
  SELECT cast(round(
           1000000000.0 * (cast(nxy AS DOUBLE) / cast(n AS DOUBLE))
           * ln((cast(nxy AS DOUBLE) * cast(n AS DOUBLE))
                / (cast(nx AS DOUBLE) * cast(ny AS DOUBLE))), 0)
         AS BIGINT) AS term
  FROM j JOIN mx USING (x) JOIN my USING (y) CROSS JOIN t),
hx AS (
  SELECT cast(-sum(cast(round(
           1000000000.0 * (cast(nx AS DOUBLE) / cast(n AS DOUBLE))
           * ln(cast(nx AS DOUBLE) / cast(n AS DOUBLE)), 0) AS BIGINT))
         AS BIGINT) AS hx_e9
  FROM mx CROSS JOIN t),
hy AS (
  SELECT cast(-sum(cast(round(
           1000000000.0 * (cast(ny AS DOUBLE) / cast(n AS DOUBLE))
           * ln(cast(ny AS DOUBLE) / cast(n AS DOUBLE)), 0) AS BIGINT))
         AS BIGINT) AS hy_e9
  FROM my CROSS JOIN t)
SELECT t.n, (SELECT cast(sum(term) AS BIGINT) FROM terms) AS mi_e9,
       hx.hx_e9, hy.hy_e9
FROM t, hx, hy
"""


# =====================================================================
# Kaplan–Meier retention curve
# =====================================================================

_KM_CENSOR_DAYS = 3  #: users last seen in the final 3 days are censored


def q_survival_km(sf_dir: str):
    """Kaplan–Meier estimate of usage-stream retention: the subject is
    a (user, event_type) stream, which "dies" on the day of its last
    event UNLESS that day falls in the final three observed days
    (right-censored — it may still be active; Kaplan & Meier 1958).
    Streams, not users, because the sf generator keeps every user
    active to the end — per-type engagement is what actually churns.
    One output row per death day: risk-set size, deaths, and
    S(d) = Π (1 − dᵢ/nᵢ).  Each ln-factor is e9-quantized before the
    integer cumulative sum and the final exp is the one mirrored
    double op, so the curve is hash-exact.  The censored set is never
    empty (the max last-day is always ≥ the cutoff), so nᵢ > dᵢ on
    every emitted row and ln never sees 0.

    Shape: a per-(user, type) max-day hash aggregate (the only
    O(streams) exchange, payload 3 narrow columns) → per-day counts
    (bounded) → the inherently serial product on the driver over
    ≤ #days rows."""
    from ray.data.aggregate import Max, Sum

    def _uday(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame(
                {"user_id": u, "event_type": et, "day": us // _US_PER_DAY}
            )
            .groupby(["user_id", "event_type"], sort=False)["day"]
            .max()
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
                "event_type": pa.array(g["event_type"]),
                "day": pa.array(g["day"].to_numpy(np.int64)),
            }
        )

    def _dcount(batch: pa.Table) -> pa.Table:
        d = batch.column("day").to_numpy(zero_copy_only=False)
        vals, cnts = np.unique(d, return_counts=True)
        return pa.table(
            {
                "day": pa.array(vals.astype(np.int64)),
                "m": pa.array(cnts.astype(np.int64)),
            }
        )

    daily = (
        _read(sf_dir, "events", ["user_id", "event_type", "ts"])
        .map_batches(_uday, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Max("day", alias_name="day"))
        .map_batches(_dcount, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("m", alias_name="m"))
        .to_pandas()  # bounded: #days rows
        .sort_values("day")
        .reset_index(drop=True)
    )
    dmax = int(daily["day"].max())
    cutoff = dmax - _KM_CENSOR_DAYS + 1
    m = daily["m"].to_numpy(np.int64)
    risk = m[::-1].cumsum()[::-1]  # users with last_day >= day
    out_d, out_n, out_dd, out_s = [], [], [], []
    cum = 0
    for day, mm, nn in zip(daily["day"].to_numpy(np.int64), m, risk):
        if day >= cutoff:
            break
        cum += _away(
            1_000_000_000.0 * math.log((int(nn) - int(mm)) / int(nn))
        )
        out_d.append(int(day))
        out_n.append(int(nn))
        out_dd.append(int(mm))
        out_s.append(_away(1_000_000.0 * math.exp(cum / 1e9)))
    return pd.DataFrame(
        {
            "day": pd.array(out_d, dtype="int64"),
            "n_risk": pd.array(out_n, dtype="int64"),
            "n_death": pd.array(out_dd, dtype="int64"),
            "surv_e6": pd.array(out_s, dtype="int64"),
        }
    )


SQL_SURVIVAL = f"""
WITH ud AS (
  SELECT user_id, event_type,
         max(epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY}) AS d
  FROM events GROUP BY 1, 2),
mx AS (SELECT max(d) AS dmax FROM ud),
dd AS (SELECT d AS day, cast(count(*) AS BIGINT) AS m FROM ud GROUP BY 1),
rk AS (
  SELECT day, m,
         cast(sum(m) OVER (ORDER BY day DESC) AS BIGINT) AS n_risk
  FROM dd),
death AS (
  SELECT rk.day, rk.n_risk, rk.m AS n_death FROM rk, mx
  WHERE rk.day < mx.dmax - {_KM_CENSOR_DAYS - 1}),
terms AS (
  SELECT day, n_risk, n_death,
         cast(round(1000000000.0
           * ln(cast(n_risk - n_death AS DOUBLE) / cast(n_risk AS DOUBLE)),
           0) AS BIGINT) AS t
  FROM death),
cum AS (
  SELECT day, n_risk, n_death,
         cast(sum(t) OVER (ORDER BY day) AS BIGINT) AS ct
  FROM terms)
SELECT day, n_risk, n_death,
       cast(round(1000000.0 * exp(cast(ct AS DOUBLE) / 1000000000.0), 0)
            AS BIGINT) AS surv_e6
FROM cum
"""


# =====================================================================
# Exact 1-D earth-mover (Wasserstein-1) drift
# =====================================================================


def q_emd_drift(sf_dir: str):
    """EXACT integer 1-D Wasserstein distance between the value
    distributions of the first and second half of the day range — the
    drift metric that, unlike PSI/KS, weighs HOW FAR mass moved.  For
    sorted distinct values: W₁ = Σ |F_A(vᵢ) − F_B(vᵢ)|·(vᵢ₊₁ − vᵢ);
    scaling by n_A·n_B clears both denominators, so ``emd_scaled`` is
    a pure integer (no quantization at all) and ``emd_e6`` is the one
    mirrored double op.

    Shape: a tiny day-bounds pass fixes the split; per-batch partial
    (value, half) counts → one exchange bounded by the DISTINCT cent
    domain (documented assumption — prices live on a bounded grid; for
    an unbounded domain, bucket to a fixed integer grid first and keep
    the CDF walk unchanged); the walk itself is one vectorized cumsum
    on the driver.  At 100-TB row counts the int64 products
    cum·n overflow — swap emd_scaled for the e6 float mirror there."""
    def _days(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        d = us // _US_PER_DAY
        return pa.table(
            {
                "dmin": pa.array([int(d.min())], pa.int64()),
                "dmax": pa.array([int(d.max())], pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["ts", "value"])
    # day bounds: one-row partials per batch — driver fold, no
    # aggregate-operator startup
    dmin, dmax = None, None
    for t in ds.map_batches(_days, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        lo = int(pc.min(t.column("dmin")).as_py())
        hi = int(pc.max(t.column("dmax")).as_py())
        dmin = lo if dmin is None else min(dmin, lo)
        dmax = hi if dmax is None else max(dmax, hi)
    split = (dmin + dmax + 1) // 2  # positive days: // == trunc == floor

    def _partial(batch: pa.Table, split=split) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        half = (us // _US_PER_DAY) >= split
        cents = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        g = (
            pd.DataFrame({"v": cents, "h": half.astype(np.int64)})
            .groupby(["v", "h"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "v": pa.array(g["v"].to_numpy(np.int64)),
                "a": pa.array(
                    np.where(g["h"].to_numpy() == 0, g["n"], 0).astype(
                        np.int64
                    )
                ),
                "b": pa.array(
                    np.where(g["h"].to_numpy() == 1, g["n"], 0).astype(
                        np.int64
                    )
                ),
            }
        )

    # the ~100k-distinct cents groupby hits Ray's high-cardinality
    # hash-aggregate degradation (the theta_join_cdf finding): re-key
    # onto a bounded 256-shard exchange and fold each shard's slice of
    # the domain vectorized
    def _shard(t: pa.Table) -> pa.Table:
        return t.append_column(
            "shard",
            pc.bit_wise_and(pc.cast(t.column("v"), pa.int64()), pa.scalar(255)),
        )

    def _shard_fold(g: pd.DataFrame) -> pd.DataFrame:
        v = g["v"].to_numpy(np.int64)
        u, inv = np.unique(v, return_inverse=True)
        aa = np.zeros(len(u), dtype=np.int64)
        bb = np.zeros(len(u), dtype=np.int64)
        np.add.at(aa, inv, g["a"].to_numpy(np.int64))
        np.add.at(bb, inv, g["b"].to_numpy(np.int64))
        return pd.DataFrame({"v": u, "a": aa, "b": bb})

    hist = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_shard_fold, batch_format="pandas")
        .to_pandas()  # bounded: distinct cent values
        .sort_values("v")
        .reset_index(drop=True)
    )
    a = hist["a"].to_numpy(np.int64)
    b = hist["b"].to_numpy(np.int64)
    v = hist["v"].to_numpy(np.int64)
    na, nb = int(a.sum()), int(b.sum())
    ca, cb = a.cumsum(), b.cumsum()
    emd = int(
        (np.abs(ca[:-1] * nb - cb[:-1] * na) * np.diff(v)).sum()
    )
    return pd.DataFrame(
        {
            "na": pd.array([na], dtype="int64"),
            "nb": pd.array([nb], dtype="int64"),
            "emd_scaled": pd.array([emd], dtype="int64"),
            "emd_e6": pd.array(
                [_away(1_000_000.0 * float(emd) / (float(na) * float(nb)))],
                dtype="int64",
            ),
        }
    )


SQL_EMD = f"""
WITH c AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(round(value * 100, 0) AS BIGINT) AS v
  FROM events),
e AS (SELECT min(day) AS dmin, max(day) AS dmax FROM c),
h AS (
  SELECT v, CASE WHEN day >= (e.dmin + e.dmax + 1) // 2 THEN 1 ELSE 0 END
            AS half
  FROM c, e),
g AS (
  SELECT v, cast(count(*) FILTER (half = 0) AS BIGINT) AS a,
         cast(count(*) FILTER (half = 1) AS BIGINT) AS b
  FROM h GROUP BY v),
t AS (SELECT cast(sum(a) AS BIGINT) AS na, cast(sum(b) AS BIGINT) AS nb
      FROM g),
cumt AS (
  SELECT v, sum(a) OVER w AS ca, sum(b) OVER w AS cb,
         lead(v) OVER (ORDER BY v) AS nv
  FROM g WINDOW w AS (ORDER BY v)),
s AS (
  SELECT cast(sum(abs(ca * t.nb - cb * t.na) * (nv - v)) AS BIGINT)
         AS emd_scaled
  FROM cumt, t WHERE nv IS NOT NULL)
SELECT t.na, t.nb, s.emd_scaled,
       cast(round(1000000.0 * cast(s.emd_scaled AS DOUBLE)
                  / (cast(t.na AS DOUBLE) * cast(t.nb AS DOUBLE)), 0)
            AS BIGINT) AS emd_e6
FROM t, s
"""


# =====================================================================
# logrank_test — two-group survival-curve comparison (Mantel 1966)
# =====================================================================


def q_logrank_test(sf_dir: str):
    """Log-rank test (Mantel 1966; Peto & Peto 1972) of whether
    even-user and odd-user (user_id % 2) engagement streams share a
    survival curve, under ``survival_km``'s framing — subject =
    (user, event_type) stream, death day = last event day, censored
    in the final three observed days.  At each death day t the
    hypergeometric contribution E[d₁] = d·n₁/n and Var = d·n₁·n₂·
    (n−d)/(n²(n−1)) are e9-quantized PER DAY before the integer sums
    (the ``avg_precision`` order-independence rule; every emitted day
    has d ≥ 1 and a nonempty censored tail keeps n > d), and
    z = (10⁹·O₁ − ΣE_e9)/√(ΣV_e9·10⁹) is the one mirrored chain.
    Output: one row ``(n_streams_0, n_streams_1, o1_deaths, e1_e9,
    v_e9, z_e6)``.  Shape: the same single O(streams) max-day
    exchange as survival_km, then a day × 2 bounded census fold."""
    from ray.data.aggregate import Max

    def _uday(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame(
                {"user_id": u, "event_type": et, "day": us // _US_PER_DAY}
            )
            .groupby(["user_id", "event_type"], sort=False)
            .max()
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
                "event_type": pa.array(g["event_type"]),
                "day": pa.array(g["day"].to_numpy(np.int64)),
            }
        )

    def _dg_count(batch: pa.Table) -> pa.Table:
        d = batch.column("day").to_numpy(zero_copy_only=False)
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        g = (
            pd.DataFrame({"day": d, "g": u % 2})
            .groupby(["day", "g"], sort=False)
            .size()
            .reset_index(name="m")
        )
        return pa.table(
            {
                "day": pa.array(g["day"].to_numpy(np.int64)),
                "g": pa.array(g["g"].to_numpy(np.int64)),
                "m": pa.array(g["m"].to_numpy(np.int64)),
            }
        )

    cells: dict[tuple[int, int], int] = {}
    streams = (
        _read(sf_dir, "events", ["user_id", "event_type", "ts"])
        .map_batches(_uday, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Max("day", alias_name="day"))
        .map_batches(_dg_count, batch_format="pyarrow")
    )
    for t in streams.iter_batches(batch_format="pyarrow", batch_size=None):
        for d, g, m in zip(
            t.column("day").to_pylist(),
            t.column("g").to_pylist(),
            t.column("m").to_pylist(),
        ):
            cells[(int(d), int(g))] = cells.get((int(d), int(g)), 0) + int(m)
    days = sorted({d for d, _ in cells})
    dmax = days[-1]
    cutoff = dmax - _KM_CENSOR_DAYS + 1
    tot0 = sum(m for (_, g), m in cells.items() if g == 0)
    tot1 = sum(m for (_, g), m in cells.items() if g == 1)
    # reverse-cumulative risk per group, iterating day ascending
    risk0, risk1 = tot0, tot1
    o1 = e_sum = v_sum = 0
    for d in days:
        d0 = cells.get((d, 0), 0)
        d1 = cells.get((d, 1), 0)
        if d < cutoff:
            n0, n1 = risk0, risk1
            n = n0 + n1
            dd = d0 + d1
            o1 += d1
            # per-day quantized terms, mirrored in SQL_LOGRANK
            e_sum += _away(
                1_000_000_000.0 * (float(dd * n1) / float(n))
            )
            v_sum += _away(
                1_000_000_000.0
                * (
                    float(dd * n1)
                    * float(n0)
                    * float(n - dd)
                    / (float(n) * float(n) * float(n - 1))
                )
            )
        risk0 -= d0
        risk1 -= d1
    z = float(10**9 * o1 - e_sum) / math.sqrt(float(v_sum) * 1e9)
    return pa.table(
        {
            "n_streams_0": pa.array([tot0], pa.int64()),
            "n_streams_1": pa.array([tot1], pa.int64()),
            "o1_deaths": pa.array([o1], pa.int64()),
            "e1_e9": pa.array([e_sum], pa.int64()),
            "v_e9": pa.array([v_sum], pa.int64()),
            "z_e6": pa.array([_away(1_000_000.0 * z)], pa.int64()),
        }
    )


SQL_LOGRANK = f"""
WITH ud AS (
  SELECT user_id % 2 AS g, user_id, event_type,
         max(epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY}) AS d
  FROM events GROUP BY 1, 2, 3),
mx AS (SELECT max(d) AS dmax FROM ud),
dd AS (SELECT d AS day, g, cast(count(*) AS BIGINT) AS m
       FROM ud GROUP BY 1, 2),
grid AS (
  SELECT days.day, gg.g, cast(coalesce(dd.m, 0) AS BIGINT) AS m
  FROM (SELECT DISTINCT day FROM dd) days
  CROSS JOIN (VALUES (0), (1)) gg(g)
  LEFT JOIN dd ON dd.day = days.day AND dd.g = gg.g),
rk AS (SELECT day, g, m,
              cast(sum(m) OVER (PARTITION BY g ORDER BY day DESC)
                   AS BIGINT) AS n_risk
       FROM grid),
w AS (SELECT a.day, a.m AS d0, b.m AS d1, a.n_risk AS n0, b.n_risk AS n1
      FROM rk a JOIN rk b ON a.day = b.day AND a.g = 0 AND b.g = 1, mx
      WHERE a.day < mx.dmax - {_KM_CENSOR_DAYS - 1}),
terms AS (
  SELECT d1,
         cast(round(1000000000.0
                    * (((d0 + d1) * n1)::DOUBLE / (n0 + n1)::DOUBLE), 0)
              AS BIGINT) AS e9,
         cast(round(1000000000.0
                    * (((d0 + d1) * n1)::DOUBLE * n0::DOUBLE
                       * (n0 + n1 - d0 - d1)::DOUBLE
                       / ((n0 + n1)::DOUBLE * (n0 + n1)::DOUBLE
                          * (n0 + n1 - 1)::DOUBLE)), 0)
              AS BIGINT) AS v9
  FROM w),
s AS (SELECT cast(sum(d1) AS BIGINT) AS o1,
             cast(sum(e9) AS BIGINT) AS e_sum,
             cast(sum(v9) AS BIGINT) AS v_sum
      FROM terms),
z AS (SELECT o1, e_sum, v_sum,
             (1000000000 * o1 - e_sum)::DOUBLE
               / sqrt(v_sum::DOUBLE * 1e9) AS zz
      FROM s)
SELECT (SELECT cast(count(*) AS BIGINT) FROM ud WHERE g = 0)
         AS n_streams_0,
       (SELECT cast(count(*) AS BIGINT) FROM ud WHERE g = 1)
         AS n_streams_1,
       o1 AS o1_deaths, e_sum AS e1_e9, v_sum AS v_e9,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


QUERIES = {
    "bootstrap_ci": q_bootstrap_ci,
    "mutual_info": q_mutual_info,
    "survival_km": q_survival_km,
    "logrank_test": q_logrank_test,
    "emd_drift": q_emd_drift,
}

ORACLE_SQL = {
    "bootstrap_ci": SQL_BOOTSTRAP,
    "mutual_info": SQL_MUTUAL_INFO,
    "survival_km": SQL_SURVIVAL,
    "logrank_test": SQL_LOGRANK,
    "emd_drift": SQL_EMD,
}
