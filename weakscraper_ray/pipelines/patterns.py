"""Round-3 continuation #16: sequence patterns, exact alignment /
segmentation DPs, multi-pattern matching, diversity + agreement +
rank-correlation metrics, and multivariate least squares:

- ``seq_triples``   GSP-style sequential-pattern support counting
                    (Srikant & Agrawal 1996): for every ORDERED type
                    triple, in how many per-user event journeys does
                    the gapped subsequence occur — the ordered
                    complement of ``event_pairs``.
- ``dtw_distance``  exact dynamic-time-warping distance (Sakoe &
                    Chiba 1978) between two monthly count series —
                    the alignment metric that, unlike
                    ``rolling_corr``/``emd_drift``, tolerates local
                    time shifts.  Oracle: recursive CTE carrying the
                    two DP diagonals as LISTs.
- ``jenks_breaks``  Fisher-1958 optimal 1-D segmentation ("natural
                    breaks") under the integer n-scaled dispersion
                    objective; oracle carries each DP stage as a LIST.
- ``ols_multi``     EXACT 2-regressor + intercept least squares via
                    the normal equations: distributed integer moment
                    partials, bigint Cramer solve — the multivariate
                    upgrade of ``trend_slope``.
- ``lexicon_scan``  Aho–Corasick 1975 one-pass multi-pattern phrase
                    counting, automaton held in ACTOR state, the
                    batch stepped in lock-step per char position.
- ``self_bleu``     leave-one-out clipped bigram precision (Zhu et
                    al. 2018 Texygen) — the generative-diversity
                    metric, pure-integer read-outs.
- ``kendall_tau``   exact tau-b from the bounded value-pair census.
- ``cohen_kappa``   chance-corrected lang_id agreement from the
                    bounded confusion census, exact rational.

Exactness strategy (repo conventions): every payload is quantized to
integers BEFORE any arithmetic, so outputs are pure integers — the
single exception is ``tau_b_e6``, a double computed from IDENTICAL
integers on both engines (IEEE sqrt/divide are correctly rounded).
``ols_multi``'s Cramer determinants are Python bigints on the engine
and HUGEINTs in DuckDB (~105 bits at sf1, inside HUGEINT's 127); the
e6 read-outs use the shared (2·e6·|p| + q) // (2·q) half-away
integer division.

Scale shapes — each operator picks the cheapest honest exchange:
- user/gram-keyed exchanges where per-key work must co-locate
  (``seq_triples``, ``self_bleu``), with all in-shard work C-level
  (composite-key searchsorted, grouped transforms);
- bounded-domain driver folds for fixed-size aggregates
  (``dtw_distance``/``jenks_breaks`` month grids, ``ols_multi``
  moments, ``kendall_tau`` value grid, ``cohen_kappa`` confusion) —
  the emd_drift / late_events exchange discipline;
- map-only actor stages where state amortizes (``lexicon_scan``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read, _schema_guard

_TRIPLE_SHARDS = 64  # power of two: user_id & 63 == user_id % 64
_POS_BIG = np.int64(1) << np.int64(32)  # composite (user, pos) key base
_POS_INF = np.int64(1) << np.int64(31)  # "no position" sentinel


# =====================================================================
# seq_triples — ordered subsequence support (GSP support counting)
# =====================================================================


def _triples_shard(g: pd.DataFrame) -> pd.DataFrame:
    """Per-shard support partials: for each ordered type triple, the
    number of this shard's users whose journey contains it as a
    subsequence.  Witness rule (greedy, exact): a triple (a, b, c)
    occurs iff pos(first a) < pos(first b after first a) < pos(some
    later c) — the standard earliest-match subsequence test."""
    g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
    u = g["user_id"].to_numpy(np.int64)
    types = sorted(g["event_type"].unique())
    k_types = len(types)
    tcode = g["event_type"].map(
        {t: i for i, t in enumerate(types)}
    ).to_numpy(np.int64)
    # position within user: global index minus the user's first index
    # (rows are sorted by user) — C-level transform, no Python loop
    idx = np.arange(len(g), dtype=np.int64)
    pos = idx - pd.Series(idx).groupby(u, sort=False).transform("min").to_numpy()
    key = u * _POS_BIG + pos
    users = np.unique(u)
    n_users = len(users)
    uidx = np.searchsorted(users, u)
    # f[user, t] = first position of t; l[user, t] = last position
    f = np.full((n_users, k_types), _POS_INF, dtype=np.int64)
    last = np.full((n_users, k_types), np.int64(-1), dtype=np.int64)
    per = pd.DataFrame({"ui": uidx, "t": tcode, "p": pos})
    gmin = per.groupby(["ui", "t"], sort=False)["p"].min().reset_index()
    gmax = per.groupby(["ui", "t"], sort=False)["p"].max().reset_index()
    f[gmin["ui"].to_numpy(), gmin["t"].to_numpy()] = gmin["p"].to_numpy()
    last[gmax["ui"].to_numpy(), gmax["t"].to_numpy()] = gmax["p"].to_numpy()
    # g2[user, a, b] = first position of b STRICTLY after f[user, a]
    g2 = np.full((n_users, k_types, k_types), _POS_INF, dtype=np.int64)
    for b in range(k_types):
        kb = key[tcode == b]  # sorted (rows sorted by (user, pos))
        for a in range(k_types):
            fa = f[:, a]
            qk = users * _POS_BIG + fa
            at = np.searchsorted(kb, qk, side="right")
            ok = (fa < _POS_INF) & (at < len(kb))
            hit = np.zeros(n_users, dtype=bool)
            hit[ok] = (kb[at[ok]] // _POS_BIG) == users[ok]
            g2[hit, a, b] = kb[at[hit]] - users[hit] * _POS_BIG
    rows: list[tuple[str, str, str, int]] = []
    for a in range(k_types):
        for b in range(k_types):
            gab = g2[:, a, b]
            has_ab = gab < _POS_INF
            for c in range(k_types):
                sup = int((has_ab & (gab < last[:, c])).sum())
                if sup:
                    rows.append((types[a], types[b], types[c], sup))
    return pd.DataFrame(rows, columns=["t1", "t2", "t3", "n"])


def q_seq_triples(sf_dir: str):
    """Support (user count) of every ordered event-type triple as a
    gapped subsequence of the per-user (ts, event_id)-ordered journey
    — GSP/PrefixSpan length-3 support counting. Output: (t1, t2, t3,
    support), triples with support ≥ 1 only (inner-join semantics on
    both engines).

    ONE keyed exchange (user co-location); the per-shard ≤ |types|³
    partials are a FIXED-DOMAIN aggregate, so the rollup folds on the
    driver (the emd_drift / late_events discipline — a second hash
    exchange over ≤ 125 keys never amortizes its startup)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def _shard(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
                "us": pc.cast(t.column("ts"), pa.int64()),
                "shard": pc.cast(
                    pc.bit_wise_and(
                        t.column("user_id"), _TRIPLE_SHARDS - 1
                    ),
                    pa.int64(),
                ),
            }
        )

    tagged = _schema_guard(
        ds.map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_triples_shard, batch_format="pandas"),
        pa.schema(
            [
                ("t1", pa.string()),
                ("t2", pa.string()),
                ("t3", pa.string()),
                ("n", pa.int64()),
            ]
        ),
    )
    sup: dict[tuple[str, str, str], int] = {}
    for t in tagged.iter_batches(batch_format="pyarrow", batch_size=None):
        for t1, t2, t3, n in zip(
            t.column("t1").to_pylist(),
            t.column("t2").to_pylist(),
            t.column("t3").to_pylist(),
            t.column("n").to_pylist(),
        ):
            key = (t1, t2, t3)
            sup[key] = sup.get(key, 0) + int(n)
    keys = sorted(sup)
    return pa.table(
        {
            "t1": pa.array([k[0] for k in keys], pa.string()),
            "t2": pa.array([k[1] for k in keys], pa.string()),
            "t3": pa.array([k[2] for k in keys], pa.string()),
            "support": pa.array([sup[k] for k in keys], pa.int64()),
        }
    )


SQL_SEQ_TRIPLES = """
WITH p AS (
  SELECT user_id, event_type AS t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS pos
  FROM events),
tr AS (
  SELECT DISTINCT e1.user_id, e1.t AS t1, e2.t AS t2, e3.t AS t3
  FROM p e1
  JOIN p e2 ON e2.user_id = e1.user_id AND e2.pos > e1.pos
  JOIN p e3 ON e3.user_id = e1.user_id AND e3.pos > e2.pos)
SELECT t1, t2, t3, cast(count(*) AS BIGINT) AS support
FROM tr GROUP BY t1, t2, t3
"""


# =====================================================================
# dtw_distance — exact DTW between two monthly count series
# =====================================================================

_DTW_PRI_A = "1-URGENT"
_DTW_PRI_B = "3-MEDIUM"
#: sentinel for unreachable DP cells — far above any reachable cost,
#: far below int64/2 so one |a-b| addition cannot overflow
_DTW_INF = np.int64(1) << np.int64(60)


def _dtw_exact(a: np.ndarray, b: np.ndarray) -> int:
    """O(n·m) DTW as anti-diagonal numpy frontier steps — the same
    two-diagonal recursion the SQL twin carries as lists (cell (i, j)
    on diagonal k = i + j depends only on diagonals k-1 and k-2)."""
    n, m = len(a), len(b)
    assert n == m  # both series live on the same month grid
    prev = np.full(n, _DTW_INF, dtype=np.int64)  # diagonal k-1
    cur = np.full(n, _DTW_INF, dtype=np.int64)  # diagonal k
    cur[0] = abs(int(a[0]) - int(b[0]))  # dp[1][1]
    i0 = np.arange(n, dtype=np.int64)  # 0-based i
    for k in range(3, 2 * n + 1):
        j0 = k - i0 - 2  # 0-based j on diagonal k
        valid = (j0 >= 0) & (j0 < n)
        left = np.concatenate(([_DTW_INF], cur[:-1]))  # dp[i-1][j]
        diag = np.concatenate(([_DTW_INF], prev[:-1]))  # dp[i-1][j-1]
        best = np.minimum(np.minimum(left, cur), diag)  # + dp[i][j-1]
        nxt = np.full(n, _DTW_INF, dtype=np.int64)
        nxt[valid] = (
            np.abs(a[i0[valid]] - b[j0[valid]]) + best[valid]
        )
        prev, cur = cur, nxt
    return int(cur[n - 1])


def q_dtw_distance(sf_dir: str):
    """Exact DTW distance (|Δcount| cost, no band) between the monthly
    order-count series of priorities '1-URGENT' and '3-MEDIUM' on the
    shared min..max month grid (absent months count 0).  Output: one
    row (n_months, dtw_cost), both BIGINT.

    The distributed part is the scan: per-batch (month, n_a, n_b)
    partials fold on the driver over the bounded month domain; the DP
    itself is ~2n anti-diagonal vector steps.  At 10¹²-row scale the
    partials stay one tiny table per batch and nothing else moves."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def _partial(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        mi = pc.add(
            pc.multiply(pc.year(d), 12), pc.month(d)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        pri = t.column("o_orderpriority").to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame(
                {
                    "mi": mi,
                    "a": (pri == _DTW_PRI_A).astype(np.int64),
                    "b": (pri == _DTW_PRI_B).astype(np.int64),
                }
            )
            .groupby("mi", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "mi": pa.array(g["mi"].to_numpy(np.int64)),
                "a": pa.array(g["a"].to_numpy(np.int64)),
                "b": pa.array(g["b"].to_numpy(np.int64)),
            }
        )

    months: dict[int, list[int]] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for mi, na, nb in zip(
            t.column("mi").to_pylist(),
            t.column("a").to_pylist(),
            t.column("b").to_pylist(),
        ):
            acc = months.setdefault(int(mi), [0, 0])
            acc[0] += int(na)
            acc[1] += int(nb)
    lo, hi = min(months), max(months)
    n = hi - lo + 1
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    for mi, (na, nb) in months.items():
        a[mi - lo] = na
        b[mi - lo] = nb
    return pa.table(
        {
            "n_months": pa.array([n], pa.int64()),
            "dtw_cost": pa.array([_dtw_exact(a, b)], pa.int64()),
        }
    )


SQL_DTW = f"""
WITH months AS (
  SELECT (year(o_orderdate) * 12 + month(o_orderdate)) AS mi,
         count(*) FILTER (WHERE o_orderpriority = '{_DTW_PRI_A}') AS na,
         count(*) FILTER (WHERE o_orderpriority = '{_DTW_PRI_B}') AS nb
  FROM orders GROUP BY 1),
grid AS (
  SELECT unnest(generate_series((SELECT min(mi) FROM months),
                                (SELECT max(mi) FROM months))) AS mi),
g AS (
  SELECT list(coalesce(m.na, 0) ORDER BY grid.mi) AS a,
         list(coalesce(m.nb, 0) ORDER BY grid.mi) AS b,
         count(*) AS n
  FROM grid LEFT JOIN months m USING (mi)),
-- the DP frontier: diagonal k as a length-n list (i-indexed), the
-- engine's _dtw_exact runs the identical two-diagonal recursion
dp AS (
  WITH RECURSIVE rec(k, cur, prev) AS (
    SELECT 2::BIGINT,
           list_transform(generate_series(1, n::INT), i ->
             CASE WHEN i = 1 THEN abs(a[1] - b[1])::BIGINT
                  ELSE 1152921504606846976::BIGINT END),
           list_transform(generate_series(1, n::INT), i ->
             1152921504606846976::BIGINT)
    FROM g
    UNION ALL
    SELECT k + 1,
           list_transform(generate_series(1, g.n::INT), i ->
             CASE WHEN (k + 1 - i) BETWEEN 1 AND g.n THEN
               abs(g.a[i] - g.b[(k + 1 - i)::INT])::BIGINT + least(
                 CASE WHEN i > 1 THEN cur[i - 1]
                      ELSE 1152921504606846976::BIGINT END,
                 cur[i],
                 CASE WHEN i > 1 THEN prev[i - 1]
                      ELSE 1152921504606846976::BIGINT END)
             ELSE 1152921504606846976::BIGINT END),
           cur
    FROM rec, g WHERE k + 1 <= 2 * g.n)
  SELECT rec.cur[g.n::INT] AS dtw_cost FROM rec, g WHERE rec.k = 2 * g.n)
SELECT cast((SELECT n FROM g) AS BIGINT) AS n_months,
       (SELECT dtw_cost FROM dp) AS dtw_cost
"""


# =====================================================================
# jenks_breaks — optimal 1-D segmentation (Fisher 1958 / Jenks) DP
# =====================================================================

_JENKS_K = 4


def _jenks_cost(P1: np.ndarray, P2: np.ndarray, a: int, b: int) -> int:
    """Integer segment cost n_seg·ΣX² − (ΣX)² = n_seg²·Var — the
    n-scaled within-segment dispersion (exact-integer variant of the
    Jenks SSD objective; optimal partition of the same flavor, no
    division anywhere)."""
    cnt = b - a
    s1 = int(P1[b] - P1[a])
    s2 = int(P2[b] - P2[a])
    return cnt * s2 - s1 * s1


def _jenks_dp(x: np.ndarray, k: int) -> int:
    """Fisher's optimal-partition DP (O(k·n²)), minimum total
    n-scaled dispersion over all k-segmentations."""
    n = len(x)
    P1 = np.zeros(n + 1, np.int64)
    P2 = np.zeros(n + 1, np.int64)
    P1[1:] = np.cumsum(x)
    P2[1:] = np.cumsum(x * x)
    dp = [_jenks_cost(P1, P2, 0, i) for i in range(n + 1)]
    for r in range(2, k + 1):
        nxt = [1 << 60] * (n + 1)
        for i in range(r, n + 1):
            nxt[i] = min(
                dp[j] + _jenks_cost(P1, P2, j, i) for j in range(r - 1, i)
            )
        dp = nxt
    return int(dp[n])


def q_jenks_breaks(sf_dir: str):
    """Optimal 4-segmentation of the monthly order-count series
    (Fisher 1958 exact DP — the 'natural breaks' discretization used
    for choropleth binning and feature bucketing), minimizing the
    integer n-scaled within-segment dispersion.  Output: one row
    (n_months, k, wss_scaled), all BIGINT.

    Same division of labor as ``dtw_distance``: the scan reduces to
    bounded (month, count) partials folded on the driver; the
    inherently serial O(k·n²) DP runs over the ≤ #months domain."""
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def _partial(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        mi = pc.add(
            pc.multiply(pc.year(d), 12), pc.month(d)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        u, cnt = np.unique(mi, return_counts=True)
        return pa.table(
            {
                "mi": pa.array(u),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    months: dict[int, int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for mi, cnt in zip(
            t.column("mi").to_pylist(), t.column("n").to_pylist()
        ):
            months[int(mi)] = months.get(int(mi), 0) + int(cnt)
    x = np.array([months[mi] for mi in sorted(months)], dtype=np.int64)
    return pa.table(
        {
            "n_months": pa.array([len(x)], pa.int64()),
            "k": pa.array([_JENKS_K], pa.int64()),
            "wss_scaled": pa.array([_jenks_dp(x, _JENKS_K)], pa.int64()),
        }
    )


#: the DP stages carried as LISTs — same frontier-in-a-row trick as
#: SQL_DTW; months with no orders cannot occur (o_orderdate is dense
#: at every sf), so the series is the per-month count list directly
SQL_JENKS = f"""
WITH months AS (
  SELECT (year(o_orderdate) * 12 + month(o_orderdate)) AS mi,
         count(*) AS cnt
  FROM orders GROUP BY 1),
g AS (
  SELECT list(cnt ORDER BY mi)::BIGINT[] AS a, count(*)::INT AS n
  FROM months),
pf AS (
  SELECT a, n,
    list_transform(generate_series(1, n + 1), i ->
      coalesce(list_sum(a[1:i-1]), 0)::BIGINT) AS p1,
    list_transform(generate_series(1, n + 1), i ->
      coalesce(list_sum(list_transform(a[1:i-1], x -> x * x)),
               0)::BIGINT) AS p2
  FROM g),
dpt AS (
  WITH RECURSIVE rec(r, dp) AS (
    SELECT 1::BIGINT,
      list_transform(generate_series(1, n), i ->
        (i::BIGINT * (p2[i+1] - p2[1])
         - (p1[i+1] - p1[1]) * (p1[i+1] - p1[1]))::BIGINT)
    FROM pf
    UNION ALL
    SELECT r + 1,
      list_transform(generate_series(1, pf.n), i ->
        CASE WHEN i >= r + 1 THEN
          list_aggregate(
            list_transform(generate_series(r::INT, i - 1), j ->
              dp[j] + ((i - j)::BIGINT * (pf.p2[i+1] - pf.p2[j+1])
                       - (pf.p1[i+1] - pf.p1[j+1])
                         * (pf.p1[i+1] - pf.p1[j+1]))),
            'min')::BIGINT
        ELSE 1152921504606846976::BIGINT END)
    FROM rec, pf WHERE r + 1 <= {_JENKS_K})
  SELECT rec.dp[pf.n] AS wss FROM rec, pf WHERE rec.r = {_JENKS_K})
SELECT (SELECT n::BIGINT FROM g) AS n_months,
       {_JENKS_K}::BIGINT AS k,
       (SELECT wss FROM dpt) AS wss_scaled
"""


# =====================================================================
# ols_multi — exact multivariate least squares via bigint Cramer
# =====================================================================


def _ols_e6(p: int, d: int) -> int:
    """round-half-away of 10⁶ · p / d (d > 0) in pure integers — the
    repo's shared e6 quantization rule, SQL-mirrored verbatim."""
    return (
        (2_000_000 * p + d) // (2 * d)
        if p >= 0
        else -((2_000_000 * (-p) + d) // (2 * d))
    )


def q_ols_multi(sf_dir: str):
    """Exact least squares of price_cents on (quantity,
    discount_pct) with intercept, solved from the normal equations by
    Cramer's rule over Python bigints — no float anywhere until the
    final e6 read-out, so the driver hash is exact.  Output: one row
    (n, b0_e6, b1_e6, b2_e6).

    Shape: each batch reduces to ONE row of nine integer moments
    (Σx, Σxxᵀ, Σxy — X'X is a fixed-domain aggregate for fixed p);
    the driver folds and solves.  Determinant magnitude ~105 bits at
    sf1 — inside DuckDB HUGEINT's 127 (documented bound; beyond that
    the moments need block-rational arithmetic)."""
    ds = _read(
        sf_dir, "lineitem", ["l_quantity", "l_discount", "l_extendedprice"]
    )

    def _partial(t: pa.Table) -> pa.Table:
        x1 = _i64_away_np(
            t.column("l_quantity").to_numpy(zero_copy_only=False), 1.0
        )
        x2 = _i64_away_np(
            t.column("l_discount").to_numpy(zero_copy_only=False), 100.0
        )
        y = _i64_away_np(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False), 100.0
        )
        vals = [
            len(x1),
            int(x1.sum()), int(x2.sum()),
            int((x1 * x1).sum()), int((x1 * x2).sum()),
            int((x2 * x2).sum()),
            int(y.sum()), int((x1 * y).sum()), int((x2 * y).sum()),
        ]
        return pa.table(
            {
                k: pa.array([v], pa.int64())
                for k, v in zip(
                    ["n", "sx1", "sx2", "s11", "s12", "s22",
                     "sy", "s1y", "s2y"],
                    vals,
                )
            }
        )

    acc = [0] * 9
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for i, name in enumerate(
            ["n", "sx1", "sx2", "s11", "s12", "s22", "sy", "s1y", "s2y"]
        ):
            acc[i] += int(pc.sum(t.column(name)).as_py())
    n, sx1, sx2, s11, s12, s22, sy, s1y, s2y = acc
    det = (
        n * (s11 * s22 - s12 * s12)
        - sx1 * (sx1 * s22 - s12 * sx2)
        + sx2 * (sx1 * s12 - s11 * sx2)
    )
    d0 = (
        sy * (s11 * s22 - s12 * s12)
        - sx1 * (s1y * s22 - s12 * s2y)
        + sx2 * (s1y * s12 - s11 * s2y)
    )
    d1 = (
        n * (s1y * s22 - s2y * s12)
        - sy * (sx1 * s22 - s12 * sx2)
        + sx2 * (sx1 * s2y - s1y * sx2)
    )
    d2 = (
        n * (s11 * s2y - s12 * s1y)
        - sx1 * (sx1 * s2y - s1y * sx2)
        + sy * (sx1 * s12 - s11 * sx2)
    )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "b0_e6": pa.array([_ols_e6(d0, det)], pa.int64()),
            "b1_e6": pa.array([_ols_e6(d1, det)], pa.int64()),
            "b2_e6": pa.array([_ols_e6(d2, det)], pa.int64()),
        }
    )


SQL_OLS_MULTI = """
WITH s AS (
  SELECT cast(count(*) AS HUGEINT) AS n,
         cast(sum(x1) AS HUGEINT) AS sx1,
         cast(sum(x2) AS HUGEINT) AS sx2,
         cast(sum(x1 * x1) AS HUGEINT) AS s11,
         cast(sum(x1 * x2) AS HUGEINT) AS s12,
         cast(sum(x2 * x2) AS HUGEINT) AS s22,
         cast(sum(y) AS HUGEINT) AS sy,
         cast(sum(x1 * y) AS HUGEINT) AS s1y,
         cast(sum(x2 * y) AS HUGEINT) AS s2y
  FROM (SELECT cast(round(l_quantity) AS BIGINT) AS x1,
               cast(round(l_discount * 100) AS BIGINT) AS x2,
               cast(round(l_extendedprice * 100) AS BIGINT) AS y
        FROM lineitem)),
d AS (
  SELECT n,
    n*(s11*s22 - s12*s12) - sx1*(sx1*s22 - s12*sx2)
      + sx2*(sx1*s12 - s11*sx2) AS det,
    sy*(s11*s22 - s12*s12) - sx1*(s1y*s22 - s12*s2y)
      + sx2*(s1y*s12 - s11*s2y) AS d0,
    n*(s1y*s22 - s2y*s12) - sy*(sx1*s22 - s12*sx2)
      + sx2*(sx1*s2y - s1y*sx2) AS d1,
    n*(s11*s2y - s12*s1y) - sx1*(sx1*s2y - s1y*sx2)
      + sy*(sx1*s12 - s11*sx2) AS d2
  FROM s)
SELECT cast(n AS BIGINT) AS n,
  cast(CASE WHEN d0 >= 0 THEN (2000000*d0 + det) // (2*det)
            ELSE -((2000000*(-d0) + det) // (2*det)) END AS BIGINT) AS b0_e6,
  cast(CASE WHEN d1 >= 0 THEN (2000000*d1 + det) // (2*det)
            ELSE -((2000000*(-d1) + det) // (2*det)) END AS BIGINT) AS b1_e6,
  cast(CASE WHEN d2 >= 0 THEN (2000000*d2 + det) // (2*det)
            ELSE -((2000000*(-d2) + det) // (2*det)) END AS BIGINT) AS b2_e6
FROM d
"""


# =====================================================================
# lexicon_scan — Aho–Corasick multi-pattern matching, actor-held
# =====================================================================

#: the scanned lexicon.  Every phrase is BORDER-FREE (no proper prefix
#: equals a suffix — asserted in tests), so occurrences of one phrase
#: cannot overlap and the SQL replace-trick's greedy non-overlapping
#: count equals the automaton's all-occurrences count.  'scan' nested
#: inside 'fast scan' exercises the suffix-link output path.
_LEXICON = ["scan", "fast scan", "hash join", "table", "sort key", "group"]


def _ac_build(lexicon: list[str]):
    """Aho–Corasick 1975: trie + failure links folded into a dense
    next-state table T (S × 256 uint16) and an accumulated output
    matrix O (S × P uint8, suffix-link closure) — built once per
    actor, a few KB for a phrase lexicon."""
    pats = [p.encode() for p in lexicon]
    goto: list[dict[int, int]] = [{}]
    out_sets: list[set[int]] = [set()]
    for pi, p in enumerate(pats):
        s = 0
        for ch in p:
            if ch not in goto[s]:
                goto.append({})
                out_sets.append(set())
                goto[s][ch] = len(goto) - 1
            s = goto[s][ch]
        out_sets[s].add(pi)
    n_states = len(goto)
    fail = [0] * n_states
    from collections import deque

    dq = deque()
    for ch, s in goto[0].items():
        dq.append(s)
    while dq:
        r = dq.popleft()
        for ch, s in goto[r].items():
            dq.append(s)
            f = fail[r]
            while f and ch not in goto[f]:
                f = fail[f]
            fail[s] = goto[f].get(ch, 0) if goto[f].get(ch, 0) != s else 0
            out_sets[s] |= out_sets[fail[s]]
    T = np.zeros((n_states, 256), dtype=np.uint16)
    for s in range(n_states):
        for ch in range(256):
            f = s
            while f and ch not in goto[f]:
                f = fail[f]
            T[s, ch] = goto[f].get(ch, 0)
    O = np.zeros((n_states, len(pats)), dtype=np.uint8)
    for s in range(n_states):
        for pi in out_sets[s]:
            O[s, pi] = 1
    return T, O


class _LexiconScanner:
    """Actor-pool stage: the compiled automaton lives in actor state
    (built once in ``__init__``); ``__call__`` steps ALL documents of
    a batch through it in lock-step — one fused gather
    ``T[states·256 + col]`` plus one output gather per character
    POSITION (a C-level op over the whole batch), never a per-byte
    Python loop.  The zero byte never occurs in text, so padding
    cycles at the root with zero output."""

    def __init__(self):
        self.T, self.O = _ac_build(_LEXICON)
        self.Tflat = self.T.astype(np.int64).reshape(-1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_large_string(col.type):
            col = pc.cast(col, pa.string())
        col = pc.fill_null(col, "")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "phrase": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                             count=n + 1, offset=col.offset * 4)
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        lens = (offs[1:] - offs[:-1]).astype(np.int64)
        L = int(lens.max()) if n else 0
        idx = offs[:-1, None].astype(np.int64) + np.arange(L)[None, :]
        valid = np.arange(L)[None, :] < lens[:, None]
        M = np.zeros((n, L), dtype=np.int64)
        M[valid] = data[idx[valid]]
        states = np.zeros(n, dtype=np.int64)
        acc = np.zeros((n, self.O.shape[1]), dtype=np.int64)
        for i in range(L):
            states = self.Tflat[states * 256 + M[:, i]]
            acc += self.O[states]
        di, pi = np.nonzero(acc)
        return pa.table(
            {
                "doc_id": pa.array(ids[di].astype(np.int64), pa.int64()),
                "phrase": pa.array(
                    np.array(_LEXICON, dtype=object)[pi], pa.string()
                ),
                "n": pa.array(acc[di, pi].astype(np.int64)),
            }
        )


def q_lexicon_scan(sf_dir: str):
    """Per-document occurrence counts of a phrase lexicon via a ONE-
    PASS Aho–Corasick scan (the PII-term / banned-phrase / lexicon-
    feature primitive — one automaton pass regardless of lexicon
    size, vs. one string scan per phrase).  Output: (doc_id, phrase,
    n) for n ≥ 1.  Map-only, zero exchange; the automaton is actor
    state (autoscaling ``concurrency=(1, 4)`` — a FIXED concurrency=4
    deadlocks a 4-CPU session: the pool insists on 4 actors × 1 CPU
    and the streaming executor then has nothing left to schedule
    around, observed as pending=4/running=0 in the tests' shared
    fixture), the scan is vectorized across the batch per character
    position."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        _LexiconScanner, batch_format="pyarrow", concurrency=(1, 4)
    )


def _sql_lexicon() -> str:
    vals = ", ".join(f"('{p}')" for p in _LEXICON)
    return f"""
WITH lex(phrase) AS (VALUES {vals})
SELECT d.doc_id, l.phrase,
       cast((length(d.text) - length(replace(d.text, l.phrase, '')))
            // length(l.phrase) AS BIGINT) AS n
FROM documents d, lex l
WHERE d.text LIKE '%' || l.phrase || '%'
"""


# =====================================================================
# self_bleu — leave-one-out clipped bigram precision (Texygen)
# =====================================================================

_SB_SHARDS = 64


def _sb_partial(batch: pa.Table) -> pa.Table:
    """(gram, doc_id, cnt, shard) — per-document bigram counts are
    EXACT within a batch (a document lives in one row); shard =
    deterministic gram hash (pd.util.hash_array — fixed-key siphash,
    stable across worker processes, the dup_ngram_fraction idiom)."""
    txt = pc.replace_substring_regex(
        batch.column("text"), pattern=r"^\s+|\s+$", replacement=""
    )
    keep = pc.and_(pc.is_valid(txt), pc.not_equal(txt, ""))
    t = batch.filter(keep)
    empty = pa.table(
        {
            "gram": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
            "shard": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    txt = pc.replace_substring_regex(
        t.column("text"), pattern=r"^\s+|\s+$", replacement=""
    )
    toks = pc.split_pattern_regex(txt, pattern=r"\s+")
    la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    flat = la.flatten().to_pandas().to_numpy()
    offs = np.asarray(la.offsets)
    if len(flat) < 2:
        return empty
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    valid = np.ones(len(flat) - 1, dtype=bool)
    valid[offs[1:-1] - 1] = False  # cross-document pairs
    row = np.searchsorted(offs[1:], np.arange(len(flat) - 1), side="right")
    g = (
        pd.DataFrame(
            {
                "doc_id": ids[row[valid]],
                "gram": pd.Series(flat[:-1][valid])
                + " "
                + pd.Series(flat[1:][valid]),
            }
        )
        .groupby(["doc_id", "gram"], sort=False)
        .size()
        .reset_index(name="cnt")
    )
    return pa.table(
        {
            "gram": pa.array(g["gram"], pa.string()),
            "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
            "cnt": pa.array(g["cnt"].to_numpy(np.int64)),
            "shard": pa.array(
                (
                    pd.util.hash_array(g["gram"].to_numpy(object))
                    % _SB_SHARDS
                ).astype(np.int64)
            ),
        }
    )


def _sb_clip(shard: pd.DataFrame) -> pd.DataFrame:
    """Leave-one-out clip per (gram, doc): max count among OTHER docs
    = second max when this doc is the unique argmax, else the max —
    all C-level grouped transforms, then a per-doc in-shard rollup."""
    cnt = shard["cnt"]
    m1 = shard.groupby("gram", sort=False)["cnt"].transform("max")
    ach = cnt == m1
    c1 = ach.groupby(shard["gram"], sort=False).transform("sum")
    m2 = (
        cnt.where(cnt < m1, other=-1)
        .groupby(shard["gram"], sort=False)
        .transform("max")
    )
    clip = np.where(ach & (c1 == 1), np.maximum(m2, 0), m1)
    return (
        pd.DataFrame(
            {
                "doc_id": shard["doc_id"],
                "hit": np.minimum(cnt.to_numpy(), clip),
                "tot": cnt.to_numpy(),
            }
        )
        .groupby("doc_id", sort=False)
        .sum()
        .reset_index()
    )


def q_self_bleu(sf_dir: str):
    """Self-BLEU core (Zhu et al. 2018, Texygen): per-document
    leave-one-out CLIPPED bigram precision against the rest of the
    corpus — the generative-diversity metric (high hit/tot ⇒ the
    document repeats corpus phrasing).  Emits integers
    (doc_id, n_bigrams, n_clip); the precision is n_clip/n_bigrams,
    left rational so the oracle is float-free.

    Shape: exact per-(doc, gram) counts per batch → ONE gram-shard
    exchange where the leave-one-out clip is (max, achiever-count,
    second-max) grouped transforms — never a per-gram UDF — plus an
    in-shard per-doc rollup → one ``groupby(doc_id)`` Sum exchange
    (domain grows with data: the keyed exchange is the honest
    shape)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    parts = (
        ds.map_batches(_sb_partial, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_sb_clip, batch_format="pandas")
    )
    parts = _schema_guard(
        parts,
        pa.schema(
            [("doc_id", pa.int64()), ("hit", pa.int64()), ("tot", pa.int64())]
        ),
    )
    agg = parts.groupby("doc_id").aggregate(
        Sum("hit", alias_name="n_clip"), Sum("tot", alias_name="n_bigrams")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "n_bigrams": pc.cast(t.column("n_bigrams"), pa.int64()),
                "n_clip": pc.cast(t.column("n_clip"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_SELF_BLEU = r"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents
  WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''),
b AS (
  SELECT doc_id, toks[i] || ' ' || toks[i+1] AS gram
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)),
c AS (SELECT doc_id, gram, count(*) AS cnt FROM b GROUP BY 1, 2),
w1 AS (SELECT *, max(cnt) OVER (PARTITION BY gram) AS m1 FROM c),
w2 AS (SELECT *,
         sum(CASE WHEN cnt = m1 THEN 1 ELSE 0 END)
           OVER (PARTITION BY gram) AS c1,
         max(CASE WHEN cnt < m1 THEN cnt ELSE -1 END)
           OVER (PARTITION BY gram) AS m2
       FROM w1)
SELECT doc_id,
       cast(sum(cnt) AS BIGINT) AS n_bigrams,
       cast(sum(least(cnt,
            CASE WHEN cnt = m1 AND c1 = 1 THEN greatest(m2, 0)
                 ELSE m1 END)) AS BIGINT) AS n_clip
FROM w2 GROUP BY doc_id
"""


# =====================================================================
# kendall_tau — exact tau-b over the bounded (quantity, discount) grid
# =====================================================================


def _tau_from_census(cells: dict[tuple[int, int], int]):
    """Exact Kendall tau-b ingredients from a (x, y) → n census:
    concordant / discordant pair counts via the strictly-lower /
    strictly-mixed quadrant sums (each distinct-cell pair counted once
    from the greater x), tie terms from the marginals — all Python
    bigints.  Works on any census size; here the grid is bounded
    (≤ ~550 cells), so the O(cells²) sweep is trivial."""
    items = sorted(cells.items())
    C = D = 0
    for i, ((x1, y1), n1) in enumerate(items):
        for (x2, y2), n2 in items[i + 1 :]:
            if x2 == x1:
                continue  # tied in x: neither concordant nor discordant
            if y2 > y1:
                C += n1 * n2
            elif y2 < y1:
                D += n1 * n2
    n = sum(cells.values())
    n0 = n * (n - 1) // 2
    rx: dict[int, int] = {}
    ry: dict[int, int] = {}
    for (x, y), c in cells.items():
        rx[x] = rx.get(x, 0) + c
        ry[y] = ry.get(y, 0) + c
    n1t = sum(v * (v - 1) // 2 for v in rx.values())
    n2t = sum(v * (v - 1) // 2 for v in ry.values())
    return C, D, n0, n1t, n2t


def q_kendall_tau(sf_dir: str):
    """Exact Kendall tau-b between l_quantity and discount_pct — the
    tie-aware rank correlation (Kendall 1945), integer end-to-end:
    concordant/discordant counts and tie terms are bigints from the
    BOUNDED (≤ 50 × 11) value-pair census; only the final
    ``tau_b_e6`` read-out touches a double, computed from the SAME
    integers on both engines (IEEE sqrt/division are correctly
    rounded, the repo's one-mirrored-double-op rule).  Output: one row
    (n, nc, nd, tau_b_e6).

    Shape: per-batch 2-D bincount partials over the fixed grid →
    driver fold (zero exchange, the emd_drift discipline), O(cells²)
    driver sweep."""
    import math

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def _partial(t: pa.Table) -> pa.Table:
        x = _i64_away_np(
            t.column("l_quantity").to_numpy(zero_copy_only=False), 1.0
        )
        y = _i64_away_np(
            t.column("l_discount").to_numpy(zero_copy_only=False), 100.0
        )
        g = (
            pd.DataFrame({"x": x, "y": y})
            .groupby(["x", "y"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "x": pa.array(g["x"].to_numpy(np.int64)),
                "y": pa.array(g["y"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    cells: dict[tuple[int, int], int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for x, y, n in zip(
            t.column("x").to_pylist(),
            t.column("y").to_pylist(),
            t.column("n").to_pylist(),
        ):
            cells[(int(x), int(y))] = cells.get((int(x), int(y)), 0) + int(n)
    C, D, n0, n1t, n2t = _tau_from_census(cells)
    n = sum(cells.values())
    tau = (C - D) / math.sqrt(float((n0 - n1t) * (n0 - n2t)))
    tau_e6 = int(math.floor(abs(tau) * 1e6 + 0.5)) * (1 if tau >= 0 else -1)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "nc": pa.array([C], pa.int64()),
            "nd": pa.array([D], pa.int64()),
            "tau_b_e6": pa.array([tau_e6], pa.int64()),
        }
    )


SQL_KENDALL = """
WITH v AS (
  SELECT cast(round(l_quantity) AS BIGINT) AS x,
         cast(round(l_discount * 100) AS BIGINT) AS y
  FROM lineitem),
c AS (SELECT x, y, cast(count(*) AS BIGINT) AS n FROM v GROUP BY 1, 2),
p AS (
  SELECT
    coalesce(sum(a.n * b.n) FILTER (WHERE (a.x < b.x AND a.y < b.y)
                                  OR (a.x > b.x AND a.y > b.y)), 0) AS nc,
    coalesce(sum(a.n * b.n) FILTER (WHERE (a.x < b.x AND a.y > b.y)
                                  OR (a.x > b.x AND a.y < b.y)), 0) AS nd
  FROM c a JOIN c b ON a.x < b.x OR (a.x = b.x AND a.y < b.y)),
tot AS (SELECT cast(sum(n) AS HUGEINT) AS n FROM c),
tx AS (SELECT sum(s * (s - 1) // 2) AS n1t
       FROM (SELECT cast(sum(n) AS HUGEINT) AS s FROM c GROUP BY x)),
ty AS (SELECT sum(s * (s - 1) // 2) AS n2t
       FROM (SELECT cast(sum(n) AS HUGEINT) AS s FROM c GROUP BY y))
SELECT cast(tot.n AS BIGINT) AS n,
       cast(p.nc AS BIGINT) AS nc,
       cast(p.nd AS BIGINT) AS nd,
       cast(CASE WHEN p.nc >= p.nd
         THEN floor(1e6 * (p.nc - p.nd)::DOUBLE
              / sqrt(((tot.n * (tot.n - 1) // 2 - tx.n1t)
                      * (tot.n * (tot.n - 1) // 2 - ty.n2t))::DOUBLE)
              + 0.5)
         ELSE -floor(1e6 * (p.nd - p.nc)::DOUBLE
              / sqrt(((tot.n * (tot.n - 1) // 2 - tx.n1t)
                      * (tot.n * (tot.n - 1) // 2 - ty.n2t))::DOUBLE)
              + 0.5)
       END AS BIGINT) AS tau_b_e6
FROM p, tot, tx, ty
"""


# =====================================================================
# cohen_kappa — chance-corrected agreement of the lang_id heuristic
# =====================================================================


def q_cohen_kappa(sf_dir: str):
    """Cohen's kappa (1960) of the ``lang_id`` heuristic against the
    corpus labels — the chance-corrected upgrade of raw accuracy over
    the same |langs|² confusion census ``lang_confusion`` emits.
    EXACT rational: κ = (N·agree − Σ_c row_c·col_c) /
    (N² − Σ_c row_c·col_c); output (n, agree, pe_num, kappa_e6), the
    e6 read-out via the shared signed half-away integer division.

    Shape: the confusion pass is batch-local (label rides beside the
    text); the |langs|²-bounded census folds on the driver — zero
    keyed exchange."""
    from ..functions.text import LangId

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    class _Confusion(LangId):
        def __call__(self, batch: pa.Table) -> pa.Table:
            preds = [
                self._predict(t) for t in batch.column("text").to_pylist()
            ]
            t = pa.table(
                {
                    "lang": batch.column("lang"),
                    "lang_pred": pa.array(preds),
                }
            )
            return t.group_by(["lang", "lang_pred"]).aggregate(
                [([], "count_all")]
            )

    census: dict[tuple[str, str], int] = {}
    for t in ds.map_batches(
        _Confusion, batch_format="pyarrow", concurrency=(1, 2)
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        for a, b, n in zip(
            t.column("lang").to_pylist(),
            t.column("lang_pred").to_pylist(),
            t.column("count_all").to_pylist(),
        ):
            census[(a, b)] = census.get((a, b), 0) + int(n)
    n = sum(census.values())
    agree = sum(v for (a, b), v in census.items() if a == b)
    rows: dict[str, int] = {}
    cols: dict[str, int] = {}
    for (a, b), v in census.items():
        rows[a] = rows.get(a, 0) + v
        cols[b] = cols.get(b, 0) + v
    pe_num = sum(rows[c] * cols.get(c, 0) for c in rows)
    k_num = n * agree - pe_num
    k_den = n * n - pe_num
    kappa_e6 = (
        (2_000_000 * k_num + k_den) // (2 * k_den)
        if k_num >= 0
        else -((2_000_000 * (-k_num) + k_den) // (2 * k_den))
    )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "agree": pa.array([agree], pa.int64()),
            "pe_num": pa.array([pe_num], pa.int64()),
            "kappa_e6": pa.array([kappa_e6], pa.int64()),
        }
    )


def _sql_cohen_kappa() -> str:
    from .relational import _sql_lang_id

    return f"""
WITH pred AS ({_sql_lang_id()}),
conf AS (
  SELECT d.lang AS a, p.lang_pred AS b, cast(count(*) AS BIGINT) AS n
  FROM documents d JOIN pred p USING (doc_id)
  GROUP BY 1, 2),
tot AS (SELECT sum(n) AS n,
               sum(n) FILTER (WHERE a = b) AS agree
        FROM conf),
pe AS (SELECT sum(r.rn * c.cn) AS pe_num
       FROM (SELECT a, sum(n) AS rn FROM conf GROUP BY a) r
       JOIN (SELECT b, sum(n) AS cn FROM conf GROUP BY b) c
         ON c.b = r.a)
SELECT cast(tot.n AS BIGINT) AS n,
       cast(tot.agree AS BIGINT) AS agree,
       cast(pe.pe_num AS BIGINT) AS pe_num,
       cast(CASE WHEN tot.n * tot.agree - pe.pe_num >= 0
         THEN (2000000 * (tot.n * tot.agree - pe.pe_num)
               + (tot.n * tot.n - pe.pe_num))
              // (2 * (tot.n * tot.n - pe.pe_num))
         ELSE -((2000000 * (pe.pe_num - tot.n * tot.agree)
               + (tot.n * tot.n - pe.pe_num))
              // (2 * (tot.n * tot.n - pe.pe_num)))
       END AS BIGINT) AS kappa_e6
FROM tot, pe
"""


QUERIES = {
    "seq_triples": q_seq_triples,
    "dtw_distance": q_dtw_distance,
    "ols_multi": q_ols_multi,
    "jenks_breaks": q_jenks_breaks,
    "lexicon_scan": q_lexicon_scan,
    "self_bleu": q_self_bleu,
    "kendall_tau": q_kendall_tau,
    "cohen_kappa": q_cohen_kappa,
}

ORACLE_SQL = {
    "seq_triples": SQL_SEQ_TRIPLES,
    "dtw_distance": SQL_DTW,
    "ols_multi": SQL_OLS_MULTI,
    "jenks_breaks": SQL_JENKS,
    "lexicon_scan": _sql_lexicon(),
    "self_bleu": SQL_SELF_BLEU,
    "kendall_tau": SQL_KENDALL,
    "cohen_kappa": _sql_cohen_kappa(),
}
