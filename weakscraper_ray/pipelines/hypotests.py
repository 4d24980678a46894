"""Round-3 continuations #18–19: classical hypothesis tests, series
diagnostics and distribution alignment — each exact-integer until (at
most) one mirrored double expression.

Group-comparison tests over the bounded 3 × 50 returnflag × quantity
census (zero keyed exchange; driver census fold):

- ``anova_f``          one-way ANOVA F (Fisher 1925): nine exact
                       int64 group moments, one mirrored double chain.
- ``kruskal_wallis``   the rank-based counterpart (1952) with the tie
                       correction — doubled mid-ranks keep rank sums
                       exact bigints (the ``spearman_rho`` discipline).
- ``levene_test``      Brown–Forsythe variance homogeneity: doubled
                       deviations |2x − 2·med_g| (exact mid-pair-sum
                       medians) feed the anova chain; doubling cancels.
- ``quantile_map``     quantile normalization A → R: pure integer
                       cross-multiplication min{w: cumR·n_A ≥ cumA·n_R}.

Series diagnostics over the daily / weekly order-count census:

- ``dft_power``        weekly periodogram: the DFT at k/7 reduces to a
                       7-cell day-of-week census; a_k, b_k are exact
                       int64 dots against e9 trig literals (the
                       ``ndcg_bm25`` literal discipline), power an
                       exact bigint (a² + b²) // 10¹².
- ``runs_test``        Wald–Wolfowitz runs over the WEEKLY series
                       (daily counts degenerate at sf0.001); exact
                       2-median classification, one mirrored z chain.
- ``perm_entropy``     Bandt–Pompe order-3 ordinal-pattern entropy:
                       exact lexicographic (value, position) ranks, a
                       6-cell census pivoted into fixed columns, H·N
                       integer via the quantized-ln discipline.
- ``durbin_watson``    serial correlation of OLS residuals with NO
                       mirrored double at all: D-scaled residuals are
                       exact bigints and D cancels in Σ(Δe)²/Σe².
- ``cochran_armitage`` binary trend across the 5 ordered priorities:
                       T·N and the N³-scaled variance exact bigints,
                       z = A·√(N/B) the one mirrored chain.

Exactness strategy: every reduction is a bounded census folded exactly
in integers per batch and combined on the driver (the ``kendall_tau``
/ ``emd_drift`` discipline — aggregate domains are FIXED or
day-bounded, never data-sized).  Each statistic's read-out is either a
pure integer (durbin_watson, quantile_map, dft_power) or ONE
fixed-order double expression over integers that are < 2⁵³ or cast
once per engine (correctly rounded on both) — the ``spearman_rho``
precedent, so the chain is bit-identical across engines.

Scale shapes: all are map-only passes whose partials are constant-size
tables; at 100 TB the driver fold stays a few KB per block and the
O(cells) / O(days) finish is constant work.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read

_US_PER_DAY = 86_400_000_000
_FLAGS = ("A", "N", "R")  #: fixed l_returnflag domain, pinned in SQL


#: sf_dir → folded census; the whole hypotests/hypotests2/nonparam
#: group-comparison family consumes this one bounded grid, so one
#: fold per process serves ~9 queries (the _NB_CENSUS_MEMO pattern)
_FLAG_CENSUS_MEMO: dict[str, dict[tuple[str, int], int]] = {}


def _flag_qty_census(sf_dir: str) -> dict[tuple[str, int], int]:
    """(returnflag, quantity) → count, folded on the driver — the
    3 × 50 bounded grid both tests consume (same fold discipline as
    measures._census_cells, keyed by the group label instead of the
    second value column).  Memoized per sf_dir (testdata is
    immutable; callers must not mutate the returned dict)."""
    if sf_dir in _FLAG_CENSUS_MEMO:
        return _FLAG_CENSUS_MEMO[sf_dir]
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def _partial(t: pa.Table) -> pa.Table:
        x = _i64_away_np(
            t.column("l_quantity").to_numpy(zero_copy_only=False), 1.0
        )
        f = t.column("l_returnflag").to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"f": f, "x": x})
            .groupby(["f", "x"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "f": pa.array(g["f"].astype(str)),
                "x": pa.array(g["x"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    cells: dict[tuple[str, int], int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for f, x, n in zip(
            t.column("f").to_pylist(),
            t.column("x").to_pylist(),
            t.column("n").to_pylist(),
        ):
            cells[(f, int(x))] = cells.get((f, int(x)), 0) + int(n)
    _FLAG_CENSUS_MEMO[sf_dir] = cells
    return cells


def _e6_signed(v: float) -> int:
    """half-away e6 read-out of a finished double (the spearman_rho
    rule)."""
    return int(math.floor(abs(v) * 1e6 + 0.5)) * (1 if v >= 0 else -1)


# =====================================================================
# anova_f — one-way ANOVA over exact integer group moments
# =====================================================================


def q_anova_f(sf_dir: str):
    """One-way ANOVA F of l_quantity across returnflag groups: the
    nine group moments (n_g, S_g = Σx, Q_g = Σx²) fold exactly from
    the bounded census (every moment < 2⁵³ → exact as a double), then
    F = (SSB/2) / (SSW/(N−3)) as ONE fixed-order double chain mirrored
    verbatim in SQL: T1 = Σ_g S_g²/n_g in (A, N, R) order,
    SSB = T1 − S²/N, SSW = Q − T1.  Output: one row of the nine
    moments + ``f_e6``."""
    cells = _flag_qty_census(sf_dir)
    n = {f: 0 for f in _FLAGS}
    s = {f: 0 for f in _FLAGS}
    q = {f: 0 for f in _FLAGS}
    for (f, x), m in cells.items():
        n[f] += m
        s[f] += m * x
        q[f] += m * x * x
    nt = sum(n.values())
    st = sum(s.values())
    qt = sum(q.values())
    # fixed-order double chain (mirrored op-for-op in SQL_ANOVA_F)
    t1 = (
        float(s["A"]) * float(s["A"]) / float(n["A"])
        + float(s["N"]) * float(s["N"]) / float(n["N"])
        + float(s["R"]) * float(s["R"]) / float(n["R"])
    )
    ssb = t1 - float(st) * float(st) / float(nt)
    ssw = float(qt) - t1
    f_stat = (ssb / 2.0) / (ssw / (float(nt) - 3.0))
    return pa.table(
        {
            "n_a": pa.array([n["A"]], pa.int64()),
            "n_n": pa.array([n["N"]], pa.int64()),
            "n_r": pa.array([n["R"]], pa.int64()),
            "s_a": pa.array([s["A"]], pa.int64()),
            "s_n": pa.array([s["N"]], pa.int64()),
            "s_r": pa.array([s["R"]], pa.int64()),
            "q_a": pa.array([q["A"]], pa.int64()),
            "q_n": pa.array([q["N"]], pa.int64()),
            "q_r": pa.array([q["R"]], pa.int64()),
            "f_e6": pa.array([_e6_signed(f_stat)], pa.int64()),
        }
    )


SQL_ANOVA_F = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
g AS (SELECT
  sum(CASE WHEN f = 'A' THEN m ELSE 0 END) AS na,
  sum(CASE WHEN f = 'N' THEN m ELSE 0 END) AS nn,
  sum(CASE WHEN f = 'R' THEN m ELSE 0 END) AS nr,
  sum(CASE WHEN f = 'A' THEN m * x ELSE 0 END) AS sa,
  sum(CASE WHEN f = 'N' THEN m * x ELSE 0 END) AS sn,
  sum(CASE WHEN f = 'R' THEN m * x ELSE 0 END) AS sr,
  sum(CASE WHEN f = 'A' THEN m * x * x ELSE 0 END) AS qa,
  sum(CASE WHEN f = 'N' THEN m * x * x ELSE 0 END) AS qn,
  sum(CASE WHEN f = 'R' THEN m * x * x ELSE 0 END) AS qr
  FROM c),
d AS (SELECT na, nn, nr, sa, sn, sr, qa, qn, qr,
             (na + nn + nr) AS nt, (sa + sn + sr) AS st,
             (qa + qn + qr) AS qt,
             (sa::DOUBLE * sa::DOUBLE / na::DOUBLE
              + sn::DOUBLE * sn::DOUBLE / nn::DOUBLE
              + sr::DOUBLE * sr::DOUBLE / nr::DOUBLE) AS t1
      FROM g),
e AS (SELECT na, nn, nr, sa, sn, sr, qa, qn, qr, nt,
             (t1 - st::DOUBLE * st::DOUBLE / nt::DOUBLE) AS ssb,
             (qt::DOUBLE - t1) AS ssw
      FROM d),
f AS (SELECT na, nn, nr, sa, sn, sr, qa, qn, qr,
             ((ssb / 2.0) / (ssw / (nt::DOUBLE - 3.0))) AS fs
      FROM e)
SELECT cast(na AS BIGINT) AS n_a, cast(nn AS BIGINT) AS n_n,
       cast(nr AS BIGINT) AS n_r,
       cast(sa AS BIGINT) AS s_a, cast(sn AS BIGINT) AS s_n,
       cast(sr AS BIGINT) AS s_r,
       cast(qa AS BIGINT) AS q_a, cast(qn AS BIGINT) AS q_n,
       cast(qr AS BIGINT) AS q_r,
       cast(CASE WHEN fs >= 0 THEN floor(abs(fs) * 1e6 + 0.5)
                 ELSE -floor(abs(fs) * 1e6 + 0.5) END AS BIGINT) AS f_e6
FROM f
"""


# =====================================================================
# kruskal_wallis — tie-corrected H over doubled mid-rank sums
# =====================================================================


def q_kruskal_wallis(sf_dir: str):
    """Tie-corrected Kruskal–Wallis H of l_quantity across returnflag
    groups.  Doubled mid-ranks from the quantity marginal
    (``measures._rank2``) keep the per-group rank sums
    R'_g = Σ_v n_{g,v}·r2(v) exact bigints; the tie term
    T = Σ_v (t_v³ − t_v) is a bigint too.  With R_g = R'_g/2,
    H = [3·T1/(N(N+1)) − 3(N+1)] / (1 − T/(N³−N)) where
    T1 = Σ_g R'_g²/n_g — ONE fixed-order double chain (group order
    A, N, R; each bigint cast once, correctly rounded on both
    engines).  Output: one row ``(n, r2_a, r2_n, r2_r, t_corr,
    h_e6)``."""
    # lazy: measures imports relational, whose tail imports this
    # module — a top-level "from .measures import" would see a
    # partially initialized module when measures is imported first
    from .measures import _rank2

    cells = _flag_qty_census(sf_dir)
    marg: dict[int, int] = {}
    for (_, x), m in cells.items():
        marg[x] = marg.get(x, 0) + m
    r2 = _rank2(marg)
    n_g = {f: 0 for f in _FLAGS}
    rp = {f: 0 for f in _FLAGS}
    for (f, x), m in cells.items():
        n_g[f] += m
        rp[f] += m * r2[x]
    nt = sum(n_g.values())
    t_corr = sum(t * t * t - t for t in marg.values())
    # fixed-order double chain (mirrored op-for-op in SQL_KRUSKAL)
    t1 = (
        float(rp["A"]) * float(rp["A"]) / float(n_g["A"])
        + float(rp["N"]) * float(rp["N"]) / float(n_g["N"])
        + float(rp["R"]) * float(rp["R"]) / float(n_g["R"])
    )
    nd = float(nt)
    h_num = 3.0 * t1 / (nd * (nd + 1.0)) - 3.0 * (nd + 1.0)
    h = h_num / (1.0 - float(t_corr) / (nd * nd * nd - nd))
    return pa.table(
        {
            "n": pa.array([nt], pa.int64()),
            "r2_a": pa.array([rp["A"]], pa.int64()),
            "r2_n": pa.array([rp["N"]], pa.int64()),
            "r2_r": pa.array([rp["R"]], pa.int64()),
            "t_corr": pa.array([t_corr], pa.int64()),
            "h_e6": pa.array([_e6_signed(h)], pa.int64()),
        }
    )


SQL_KRUSKAL = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
marg AS (SELECT x, sum(m) AS t FROM c GROUP BY x),
rk AS (SELECT x, 2 * (sum(t) OVER (ORDER BY x) - t) + t + 1 AS r2
       FROM marg),
g AS (SELECT
  sum(CASE WHEN c.f = 'A' THEN c.m ELSE 0 END) AS na,
  sum(CASE WHEN c.f = 'N' THEN c.m ELSE 0 END) AS nn,
  sum(CASE WHEN c.f = 'R' THEN c.m ELSE 0 END) AS nr,
  sum(CASE WHEN c.f = 'A' THEN c.m * rk.r2 ELSE 0 END) AS ra,
  sum(CASE WHEN c.f = 'N' THEN c.m * rk.r2 ELSE 0 END) AS rn,
  sum(CASE WHEN c.f = 'R' THEN c.m * rk.r2 ELSE 0 END) AS rr
  FROM c JOIN rk ON rk.x = c.x),
tc AS (SELECT cast(sum(t * t * t - t) AS BIGINT) AS t_corr FROM marg),
d AS (SELECT na, nn, nr, ra, rn, rr, t_corr,
             (na + nn + nr) AS nt,
             (ra::DOUBLE * ra::DOUBLE / na::DOUBLE
              + rn::DOUBLE * rn::DOUBLE / nn::DOUBLE
              + rr::DOUBLE * rr::DOUBLE / nr::DOUBLE) AS t1
      FROM g, tc),
e AS (SELECT nt, ra, rn, rr, t_corr,
             ((3.0 * t1 / (nt::DOUBLE * (nt::DOUBLE + 1.0))
               - 3.0 * (nt::DOUBLE + 1.0))
              / (1.0 - t_corr::DOUBLE
                 / (nt::DOUBLE * nt::DOUBLE * nt::DOUBLE - nt::DOUBLE)))
             AS h
      FROM d)
SELECT cast(nt AS BIGINT) AS n,
       cast(ra AS BIGINT) AS r2_a, cast(rn AS BIGINT) AS r2_n,
       cast(rr AS BIGINT) AS r2_r, t_corr,
       cast(CASE WHEN h >= 0 THEN floor(abs(h) * 1e6 + 0.5)
                 ELSE -floor(abs(h) * 1e6 + 0.5) END AS BIGINT) AS h_e6
FROM e
"""


# =====================================================================
# dft_power — weekly periodogram as an integer dot against e9 trig
# =====================================================================

#: e9-quantized cos/sin literals for the 7-point DFT, k = 0..3
#: (frequencies k/7 cycles/day); rint == half-to-even, asserted
#: against math.cos/math.sin in tests/test_round3p.py.
_COS_E9 = [
    [int(v) for v in np.rint(np.cos(2 * np.pi * k * np.arange(7) / 7) * 1e9)]
    for k in range(4)
]
_SIN_E9 = [
    [int(v) for v in np.rint(np.sin(2 * np.pi * k * np.arange(7) / 7) * 1e9)]
    for k in range(4)
]


def q_dft_power(sf_dir: str):
    """Weekly periodogram of the daily order-count series.  The DFT at
    frequency k/7 needs only day-of-week totals N_m (m = epoch-day
    mod 7): a_k = Σ_m N_m·cos_e9[k][m], b_k = Σ_m N_m·sin_e9[k][m] —
    exact int64 dot products against the quantized literals — and
    pow12_k = (a_k² + b_k²) // 10¹² an exact bigint (HUGEINT in the
    twin).  k = 0 carries the (total·10⁹)² mean line; k = 1..3 are
    the weekly harmonics.  Output: 4 rows ``(k, a_e9, b_e9, pow12)``.
    Zero keyed exchange — per-batch 7-cell partials fold on the
    driver."""
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        m = ((us // _US_PER_DAY) % 7).astype(np.int64)
        return pa.table(
            {
                "m": pa.array(np.arange(7, dtype=np.int64)),
                "n": pa.array(np.bincount(m, minlength=7).astype(np.int64)),
            }
        )

    n_m = np.zeros(7, dtype=object)
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        n_m += np.array(t.column("n").to_pylist(), dtype=object)
    ks, avs, bvs, pws = [], [], [], []
    for k in range(4):
        a = sum(int(n_m[m]) * _COS_E9[k][m] for m in range(7))
        b = sum(int(n_m[m]) * _SIN_E9[k][m] for m in range(7))
        ks.append(k)
        avs.append(a)
        bvs.append(b)
        pws.append((a * a + b * b) // 10**12)
    return pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "a_e9": pa.array(avs, pa.int64()),
            "b_e9": pa.array(bvs, pa.int64()),
            "pow12": pa.array(pws, pa.int64()),
        }
    )


def _sql_dft() -> str:
    cos_case = {
        k: " ".join(
            f"WHEN {m} THEN {_COS_E9[k][m]}::BIGINT" for m in range(7)
        )
        for k in range(4)
    }
    sin_case = {
        k: " ".join(
            f"WHEN {m} THEN {_SIN_E9[k][m]}::BIGINT" for m in range(7)
        )
        for k in range(4)
    }
    arms = "\nUNION ALL\n".join(
        f"""SELECT {k}::BIGINT AS k,
       cast(sum(n * (CASE m {cos_case[k]} END)) AS BIGINT) AS a_e9,
       cast(sum(n * (CASE m {sin_case[k]} END)) AS BIGINT) AS b_e9,
       cast((cast(sum(n * (CASE m {cos_case[k]} END)) AS HUGEINT)
             * cast(sum(n * (CASE m {cos_case[k]} END)) AS HUGEINT)
             + cast(sum(n * (CASE m {sin_case[k]} END)) AS HUGEINT)
             * cast(sum(n * (CASE m {sin_case[k]} END)) AS HUGEINT))
            // 1000000000000 AS BIGINT) AS pow12
FROM dow"""
        for k in range(4)
    )
    return f"""
WITH dow AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) % 7 AS m,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1)
{arms}
"""


SQL_DFT_POWER = _sql_dft()


# =====================================================================
# levene_test — Brown–Forsythe homogeneity of variance (median form)
# =====================================================================


def _med2(marg: dict[int, int]) -> int:
    """2·median of a census: odd n → 2·x((n+1)/2); even n →
    x(n/2) + x(n/2+1) — always an integer, mirrored by the SQL twin's
    cumulative-window form."""
    n = sum(marg.values())
    lo_pos, hi_pos = (n + 1) // 2, n // 2 + 1
    lo = hi = None
    cum = 0
    for v in sorted(marg):
        cum += marg[v]
        if lo is None and cum >= lo_pos:
            lo = v
        if hi is None and cum >= hi_pos:
            hi = v
            break
    return lo + hi


def q_levene_test(sf_dir: str):
    """Brown–Forsythe test (Levene 1960, median variant — Brown &
    Forsythe 1974) of quantity-variance homogeneity across returnflag
    groups: z = |x − med_g| per observation, then the one-way ANOVA F
    over z.  DOUBLED deviations z2 = |2x − 2·med_g| keep everything
    integer (2·med_g is the exact mid-pair sum from the census; the
    doubling cancels in F).  Same fixed-order double chain as
    ``anova_f`` over the z2 moments.  Output: one row ``(m2_a, m2_n,
    m2_r, n, s_z, q_z, w_e6)`` — group 2-medians, total count, Σz2,
    Σz2² and the statistic."""
    cells = _flag_qty_census(sf_dir)
    margs: dict[str, dict[int, int]] = {f: {} for f in _FLAGS}
    for (f, x), m in cells.items():
        margs[f][x] = margs[f].get(x, 0) + m
    m2 = {f: _med2(margs[f]) for f in _FLAGS}
    n = {f: 0 for f in _FLAGS}
    s = {f: 0 for f in _FLAGS}
    q = {f: 0 for f in _FLAGS}
    for (f, x), m in cells.items():
        z2 = abs(2 * x - m2[f])
        n[f] += m
        s[f] += m * z2
        q[f] += m * z2 * z2
    nt = sum(n.values())
    st = sum(s.values())
    qt = sum(q.values())
    t1 = (
        float(s["A"]) * float(s["A"]) / float(n["A"])
        + float(s["N"]) * float(s["N"]) / float(n["N"])
        + float(s["R"]) * float(s["R"]) / float(n["R"])
    )
    ssb = t1 - float(st) * float(st) / float(nt)
    ssw = float(qt) - t1
    w = (ssb / 2.0) / (ssw / (float(nt) - 3.0))
    return pa.table(
        {
            "m2_a": pa.array([m2["A"]], pa.int64()),
            "m2_n": pa.array([m2["N"]], pa.int64()),
            "m2_r": pa.array([m2["R"]], pa.int64()),
            "n": pa.array([nt], pa.int64()),
            "s_z": pa.array([st], pa.int64()),
            "q_z": pa.array([qt], pa.int64()),
            "w_e6": pa.array([_e6_signed(w)], pa.int64()),
        }
    )


SQL_LEVENE = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
cum AS (SELECT f, x, m,
               sum(m) OVER (PARTITION BY f ORDER BY x) AS cm,
               sum(m) OVER (PARTITION BY f) AS n
        FROM c),
med AS (SELECT f,
          min(CASE WHEN cm >= (n + 1) // 2 THEN x END)
          + min(CASE WHEN cm >= n // 2 + 1 THEN x END) AS m2
        FROM cum GROUP BY f),
z AS (SELECT c.f, abs(2 * c.x - med.m2) AS z2, c.m
      FROM c JOIN med ON med.f = c.f),
g AS (SELECT
  sum(CASE WHEN f = 'A' THEN m ELSE 0 END) AS na,
  sum(CASE WHEN f = 'N' THEN m ELSE 0 END) AS nn,
  sum(CASE WHEN f = 'R' THEN m ELSE 0 END) AS nr,
  sum(CASE WHEN f = 'A' THEN m * z2 ELSE 0 END) AS sa,
  sum(CASE WHEN f = 'N' THEN m * z2 ELSE 0 END) AS sn,
  sum(CASE WHEN f = 'R' THEN m * z2 ELSE 0 END) AS sr,
  sum(CASE WHEN f = 'A' THEN m * z2 * z2 ELSE 0 END) AS qa,
  sum(CASE WHEN f = 'N' THEN m * z2 * z2 ELSE 0 END) AS qn,
  sum(CASE WHEN f = 'R' THEN m * z2 * z2 ELSE 0 END) AS qr
  FROM z),
d AS (SELECT (na + nn + nr) AS nt, (sa + sn + sr) AS st,
             (qa + qn + qr) AS qt,
             (sa::DOUBLE * sa::DOUBLE / na::DOUBLE
              + sn::DOUBLE * sn::DOUBLE / nn::DOUBLE
              + sr::DOUBLE * sr::DOUBLE / nr::DOUBLE) AS t1
      FROM g),
e AS (SELECT nt, st, qt,
             (t1 - st::DOUBLE * st::DOUBLE / nt::DOUBLE) AS ssb,
             (qt::DOUBLE - t1) AS ssw, t1
      FROM d),
f AS (SELECT nt, st, qt,
             ((ssb / 2.0) / (ssw / (nt::DOUBLE - 3.0))) AS w
      FROM e)
SELECT (SELECT m2 FROM med WHERE f = 'A') AS m2_a,
       (SELECT m2 FROM med WHERE f = 'N') AS m2_n,
       (SELECT m2 FROM med WHERE f = 'R') AS m2_r,
       cast(nt AS BIGINT) AS n, cast(st AS BIGINT) AS s_z,
       cast(qt AS BIGINT) AS q_z,
       cast(CASE WHEN w >= 0 THEN floor(abs(w) * 1e6 + 0.5)
                 ELSE -floor(abs(w) * 1e6 + 0.5) END AS BIGINT) AS w_e6
FROM f
"""


# =====================================================================
# runs_test — Wald–Wolfowitz randomness test over the daily series
# =====================================================================


def q_runs_test(sf_dir: str):
    """Wald–Wolfowitz runs test of the WEEKLY order-count series
    (weekly, not daily: at the smallest test scale daily counts take
    ~3 distinct values and the below-median class is empty, which
    degenerates σ to 0; weekly totals spread 1..11 even at sf0.001):
    classify each week above/below the series median (weeks AT the
    median are dropped, the standard tie treatment; the 2-median
    mid-pair sum from ``_med2`` keeps the comparison 2c ≷ m2 exact),
    count runs R in week order, and read out the normal approximation
    z = (R − μ)/σ with μ = 2n₁n₂/n + 1 — one mirrored fixed-order
    double chain.  Output: one row ``(n_above, n_below, n_runs,
    z_e6)``.  Zero keyed exchange (day-census fold, regrouped to
    weeks on the driver); the run count is O(weeks) driver work."""
    from .measures import _day_census

    day_census = _day_census(sf_dir)
    census: dict[int, int] = {}
    for d, n in day_census.items():
        census[d // 7] = census.get(d // 7, 0) + n
    days = sorted(census)
    c = [census[d] for d in days]
    marg: dict[int, int] = {}
    for v in c:
        marg[v] = marg.get(v, 0) + 1
    m2 = _med2(marg)
    signs = [1 if 2 * v > m2 else 0 for v in c if 2 * v != m2]
    n1 = sum(signs)
    n2 = len(signs) - n1
    r = 1 + sum(a != b for a, b in zip(signs, signs[1:])) if signs else 0
    nn = float(n1 + n2)
    mu = 2.0 * float(n1) * float(n2) / nn + 1.0
    var = (
        2.0
        * float(n1)
        * float(n2)
        * (2.0 * float(n1) * float(n2) - nn)
        / (nn * nn * (nn - 1.0))
    )
    z = (float(r) - mu) / math.sqrt(var)
    return pa.table(
        {
            "n_above": pa.array([n1], pa.int64()),
            "n_below": pa.array([n2], pa.int64()),
            "n_runs": pa.array([r], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


SQL_RUNS_TEST = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) // 7 AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
marg AS (SELECT n AS v, cast(count(*) AS BIGINT) AS m FROM c GROUP BY n),
cum AS (SELECT v, sum(m) OVER (ORDER BY v) AS cm,
               sum(m) OVER () AS nt
        FROM marg),
med AS (SELECT min(CASE WHEN cm >= (nt + 1) // 2 THEN v END)
               + min(CASE WHEN cm >= nt // 2 + 1 THEN v END) AS m2
        FROM cum),
s AS (SELECT d, CASE WHEN 2 * n > m2 THEN 1 ELSE 0 END AS sg
      FROM c, med WHERE 2 * n <> m2),
runs AS (SELECT sg, lag(sg) OVER (ORDER BY d) AS prev FROM s),
agg AS (SELECT cast(sum(sg) AS BIGINT) AS n1,
               cast(count(*) - sum(sg) AS BIGINT) AS n2,
               cast(1 + sum(CASE WHEN prev IS NOT NULL AND sg <> prev
                                 THEN 1 ELSE 0 END) AS BIGINT) AS r
        FROM runs),
z AS (SELECT n1, n2, r,
        ((r::DOUBLE - (2.0 * n1::DOUBLE * n2::DOUBLE
                       / (n1 + n2)::DOUBLE + 1.0))
         / sqrt(2.0 * n1::DOUBLE * n2::DOUBLE
                * (2.0 * n1::DOUBLE * n2::DOUBLE - (n1 + n2)::DOUBLE)
                / ((n1 + n2)::DOUBLE * (n1 + n2)::DOUBLE
                   * ((n1 + n2)::DOUBLE - 1.0)))) AS zz
      FROM agg)
SELECT n1 AS n_above, n2 AS n_below, r AS n_runs,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


# =====================================================================
# perm_entropy — Bandt–Pompe ordinal-pattern entropy (order 3)
# =====================================================================


def q_perm_entropy(sf_dir: str):
    """Permutation entropy (Bandt & Pompe 2002, order m = 3) of the
    daily order-count series: each consecutive triple maps to one of
    six ordinal patterns via EXACT lexicographic (value, position)
    ranks (the deterministic tie rule — plain BP assumes distinct
    values), the 6-cell pattern census folds, and the entropy
    read-out stays integer:
    H·N (e6-scaled) = N·e6(ln N) − Σ_k m_k·e6(ln m_k) with the
    repo's quantized-ln discipline (kn_bigram / token_entropy).
    Output: one row ``(n_windows, p0..p5, hq_e6n)`` — the six pattern
    counts pivoted into fixed columns (a 6-row float sum would be
    order-sensitive) plus the integer entropy numerator."""
    from .measures import _day_census

    census = _day_census(sf_dir)
    days = sorted(census)
    c = np.array([census[d] for d in days], dtype=np.int64)
    a, b, d3 = c[:-2], c[1:-1], c[2:]
    # rank_i = #{j != i: (c_j, j) < (c_i, i)} lexicographic
    r0 = (b < a).astype(np.int64) + (d3 < a).astype(np.int64)
    r1 = ((a < b) | (a == b)).astype(np.int64) + ((d3 < b)).astype(
        np.int64
    )
    r2 = ((a < d3) | (a == d3)).astype(np.int64) + (
        (b < d3) | (b == d3)
    ).astype(np.int64)
    pat = r0 * 9 + r1 * 3 + r2
    # base-3 encoding of the rank triple is injective; remap the six
    # legal codes to 0..5 in ascending order
    legal = np.array([5, 7, 11, 15, 19, 21], dtype=np.int64)
    counts = np.array(
        [(pat == code).sum() for code in legal], dtype=np.int64
    )
    n_w = int(counts.sum())

    def _ln_e6(v: int) -> int:
        return int(_i64_away_np(np.log(np.array([float(v)])), 1e6)[0])

    hq = n_w * _ln_e6(n_w) - sum(
        int(m) * _ln_e6(int(m)) for m in counts if m > 0
    )
    cols = {
        "n_windows": pa.array([n_w], pa.int64()),
    }
    for i in range(6):
        cols[f"p{i}"] = pa.array([int(counts[i])], pa.int64())
    cols["hq_e6n"] = pa.array([hq], pa.int64())
    return pa.table(cols)


SQL_PERM_ENTROPY = """
WITH c AS (
  SELECT cast(o_orderdate AS DATE) AS d, cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
w AS (SELECT n AS a,
             lead(n, 1) OVER (ORDER BY d) AS b,
             lead(n, 2) OVER (ORDER BY d) AS c3
      FROM c),
p AS (SELECT
        ((CASE WHEN b < a THEN 1 ELSE 0 END)
         + (CASE WHEN c3 < a THEN 1 ELSE 0 END)) * 9
        + ((CASE WHEN a <= b THEN 1 ELSE 0 END)
           + (CASE WHEN c3 < b THEN 1 ELSE 0 END)) * 3
        + ((CASE WHEN a <= c3 THEN 1 ELSE 0 END)
           + (CASE WHEN b <= c3 THEN 1 ELSE 0 END)) AS pat
      FROM w WHERE b IS NOT NULL AND c3 IS NOT NULL),
cnt AS (SELECT
  cast(sum(CASE WHEN pat = 5 THEN 1 ELSE 0 END) AS BIGINT) AS p0,
  cast(sum(CASE WHEN pat = 7 THEN 1 ELSE 0 END) AS BIGINT) AS p1,
  cast(sum(CASE WHEN pat = 11 THEN 1 ELSE 0 END) AS BIGINT) AS p2,
  cast(sum(CASE WHEN pat = 15 THEN 1 ELSE 0 END) AS BIGINT) AS p3,
  cast(sum(CASE WHEN pat = 19 THEN 1 ELSE 0 END) AS BIGINT) AS p4,
  cast(sum(CASE WHEN pat = 21 THEN 1 ELSE 0 END) AS BIGINT) AS p5,
  cast(count(*) AS BIGINT) AS nw
  FROM p)
SELECT nw AS n_windows, p0, p1, p2, p3, p4, p5,
       cast(nw * cast(round(ln(nw::DOUBLE) * 1000000, 0) AS BIGINT)
            - (CASE WHEN p0 > 0 THEN p0 *
                 cast(round(ln(p0::DOUBLE) * 1000000, 0) AS BIGINT)
               ELSE 0 END
               + CASE WHEN p1 > 0 THEN p1 *
                   cast(round(ln(p1::DOUBLE) * 1000000, 0) AS BIGINT)
                 ELSE 0 END
               + CASE WHEN p2 > 0 THEN p2 *
                   cast(round(ln(p2::DOUBLE) * 1000000, 0) AS BIGINT)
                 ELSE 0 END
               + CASE WHEN p3 > 0 THEN p3 *
                   cast(round(ln(p3::DOUBLE) * 1000000, 0) AS BIGINT)
                 ELSE 0 END
               + CASE WHEN p4 > 0 THEN p4 *
                   cast(round(ln(p4::DOUBLE) * 1000000, 0) AS BIGINT)
                 ELSE 0 END
               + CASE WHEN p5 > 0 THEN p5 *
                   cast(round(ln(p5::DOUBLE) * 1000000, 0) AS BIGINT)
                 ELSE 0 END) AS BIGINT) AS hq_e6n
FROM cnt
"""


# =====================================================================
# quantile_map — quantile normalization between two group censuses
# =====================================================================


def q_quantile_map(sf_dir: str):
    """Quantile normalization map from returnflag group A onto group
    R (the distribution-alignment transform: feature scaling across
    cohorts / batch-effect removal): each A-value v maps to the
    SMALLEST R-value w whose cumulative share reaches v's, i.e.
    min{w : cumR(w)·n_A ≥ cumA(v)·n_R} — pure integer
    cross-multiplication, no float quantiles anywhere.  Output: one
    row per distinct A value ``(v, cum_a, mapped)``.  Zero keyed
    exchange (both censuses fold driver-side)."""
    cells = _flag_qty_census(sf_dir)
    ca: dict[int, int] = {}
    cr: dict[int, int] = {}
    for (f, x), m in cells.items():
        if f == "A":
            ca[x] = ca.get(x, 0) + m
        elif f == "R":
            cr[x] = cr.get(x, 0) + m
    na, nr = sum(ca.values()), sum(cr.values())
    r_vals = sorted(cr)
    r_cum = []
    cum = 0
    for w in r_vals:
        cum += cr[w]
        r_cum.append(cum)
    out_v, out_c, out_m = [], [], []
    cum_a = 0
    for v in sorted(ca):
        cum_a += ca[v]
        mapped = None
        for w, cw in zip(r_vals, r_cum):
            if cw * na >= cum_a * nr:
                mapped = w
                break
        out_v.append(v)
        out_c.append(cum_a)
        out_m.append(mapped if mapped is not None else r_vals[-1])
    return pa.table(
        {
            "v": pa.array(out_v, pa.int64()),
            "cum_a": pa.array(out_c, pa.int64()),
            "mapped": pa.array(out_m, pa.int64()),
        }
    )


SQL_QUANTILE_MAP = """
WITH c AS (
  SELECT cast(round(l_quantity) AS BIGINT) AS x,
         cast(sum(CASE WHEN l_returnflag = 'A' THEN 1 ELSE 0 END)
              AS BIGINT) AS ma,
         cast(sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
              AS BIGINT) AS mr
  FROM lineitem WHERE l_returnflag IN ('A', 'R') GROUP BY 1),
n AS (SELECT sum(ma) AS na, sum(mr) AS nr FROM c),
ac AS (SELECT x AS v, sum(ma) OVER (ORDER BY x) AS cum_a
       FROM c WHERE ma > 0),
rc AS (SELECT x AS w, sum(mr) OVER (ORDER BY x) AS cum_r
       FROM c WHERE mr > 0)
SELECT ac.v, cast(ac.cum_a AS BIGINT) AS cum_a,
       cast(coalesce(min(CASE WHEN rc.cum_r * n.na >= ac.cum_a * n.nr
                               THEN rc.w END),
                     (SELECT max(w) FROM rc)) AS BIGINT) AS mapped
FROM ac, rc, n
GROUP BY ac.v, ac.cum_a, n.na, n.nr
"""


# =====================================================================
# durbin_watson — serial-correlation statistic, pure integer end to end
# =====================================================================


def q_durbin_watson(sf_dir: str):
    """Durbin–Watson statistic (Durbin & Watson 1950) of the daily
    order-count series' OLS-detrended residuals — and unlike the
    z-statistics above it needs NO mirrored double at all: with
    D = n·Σt² − (Σt)² (t = day − min_day), the D-scaled residual
    eD_t = D·c_t − (a_num + b_num·t) is an exact bigint (a_num, b_num
    the exact OLS intercept/slope numerators), and D cancels in
    DW = Σ(eD_t − eD_{t−1})² / Σ eD_t² — one shared half-away e6
    integer division.  Consecutive observed days in day order (gaps
    treated as adjacent observations, the series convention shared
    with ``autocorr_daily``).  Output: one row ``(n_days, dw_e6)``.
    Zero keyed exchange; O(days) driver work on the folded census."""
    from .measures import _day_census
    from .patterns import _ols_e6

    census = _day_census(sf_dir)
    days = sorted(census)
    t0 = days[0]
    ts = [d - t0 for d in days]
    cs = [census[d] for d in days]
    n = len(ts)
    s_t = sum(ts)
    s_tt = sum(t * t for t in ts)
    s_c = sum(cs)
    s_tc = sum(t * c for t, c in zip(ts, cs))
    dd = n * s_tt - s_t * s_t
    b_num = n * s_tc - s_t * s_c
    a_num = s_c * s_tt - s_t * s_tc
    e = [dd * c - (a_num + b_num * t) for t, c in zip(ts, cs)]
    num = sum((x - y) ** 2 for x, y in zip(e[1:], e[:-1]))
    den = sum(x * x for x in e)
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "dw_e6": pa.array([_ols_e6(num, den)], pa.int64()),
        }
    )


SQL_DURBIN_WATSON = """
WITH c AS (
  SELECT cast(datediff('day', TIMESTAMP '1970-01-01', o_orderdate)
              AS BIGINT) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
t AS (SELECT d - (SELECT min(d) FROM c) AS t, n FROM c),
p AS (SELECT cast(count(*) AS HUGEINT) AS nn,
             cast(sum(t) AS HUGEINT) AS st,
             cast(sum(t * t) AS HUGEINT) AS stt,
             cast(sum(n) AS HUGEINT) AS sc,
             cast(sum(t * n) AS HUGEINT) AS stc
      FROM t),
e AS (SELECT t.t,
             (p.nn * p.stt - p.st * p.st) * t.n
             - ((p.sc * p.stt - p.st * p.stc)
                + (p.nn * p.stc - p.st * p.sc) * t.t) AS ed
      FROM t, p),
w AS (SELECT ed, lag(ed) OVER (ORDER BY t) AS prev FROM e),
agg AS (SELECT sum(CASE WHEN prev IS NULL THEN 0
                        ELSE (ed - prev) * (ed - prev) END) AS num,
               sum(ed * ed) AS den
        FROM w)
SELECT (SELECT cast(count(*) AS BIGINT) FROM c) AS n_days,
       cast((2000000 * num + den) // (2 * den) AS BIGINT) AS dw_e6
FROM agg
"""


# =====================================================================
# cochran_armitage — trend in a binary outcome across ordered groups
# =====================================================================


def q_cochran_armitage(sf_dir: str):
    """Cochran–Armitage trend test (Cochran 1954, Armitage 1955) of
    the 'F'-status share across the five ORDERED order priorities
    (scores s = 1..5, the leading digit): with r_i = #F and n_i the
    group sizes, both T·N = Σ s_i(r_i·N − n_i·R) and
    V·N³-scaled = R(N−R)·(N·Σn_i s_i² − (Σn_i s_i)²) are exact
    bigints, and z = T/√Var = A·√(N/B) is the one mirrored chain
    (B stays an intermediate — it exceeds int64 at sf ≥ 0.1, so only
    its correctly-rounded double enters the read-out on both
    engines).  Output: one row ``(n, n_pos, t_num, z_e6)``.  Zero
    keyed exchange (5×|status| bounded census fold)."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])

    def _partial(t: pa.Table) -> pa.Table:
        s = pc.utf8_slice_codeunits(
            t.column("o_orderpriority"), 0, 1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = (
            t.column("o_orderstatus").to_numpy(zero_copy_only=False) == "F"
        ).astype(np.int64)
        g = (
            pd.DataFrame({"s": s, "pos": pos})
            .groupby("s", sort=False)
            .agg(n=("pos", "size"), r=("pos", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "s": pa.array(g["s"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "r": pa.array(g["r"].to_numpy(np.int64)),
            }
        )

    cen: dict[int, list[int]] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for s, n, r in zip(
            t.column("s").to_pylist(),
            t.column("n").to_pylist(),
            t.column("r").to_pylist(),
        ):
            e = cen.setdefault(int(s), [0, 0])
            e[0] += int(n)
            e[1] += int(r)
    nt = sum(v[0] for v in cen.values())
    rt = sum(v[1] for v in cen.values())
    a = sum(s * (v[1] * nt - v[0] * rt) for s, v in cen.items())
    sns = sum(v[0] * s for s, v in cen.items())
    snss = sum(v[0] * s * s for s, v in cen.items())
    b = rt * (nt - rt) * (nt * snss - sns * sns)
    z = float(a) * math.sqrt(float(nt) / float(b))
    return pa.table(
        {
            "n": pa.array([nt], pa.int64()),
            "n_pos": pa.array([rt], pa.int64()),
            "t_num": pa.array([a], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


SQL_COCHRAN_ARMITAGE = """
WITH c AS (
  SELECT cast(substr(o_orderpriority, 1, 1) AS BIGINT) AS s,
         cast(count(*) AS BIGINT) AS n,
         cast(sum(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END)
              AS BIGINT) AS r
  FROM orders GROUP BY 1),
tot AS (SELECT cast(sum(n) AS HUGEINT) AS nt,
               cast(sum(r) AS HUGEINT) AS rt,
               cast(sum(n * s) AS HUGEINT) AS sns,
               cast(sum(n * s * s) AS HUGEINT) AS snss
        FROM c),
a AS (SELECT cast(sum(s * (c.r * tot.nt - c.n * tot.rt)) AS HUGEINT) AS t_num
      FROM c, tot),
b AS (SELECT tot.rt * (tot.nt - tot.rt)
             * (tot.nt * tot.snss - tot.sns * tot.sns) AS v_num
      FROM tot),
z AS (SELECT cast(tot.nt AS BIGINT) AS n, cast(tot.rt AS BIGINT) AS n_pos,
             cast(a.t_num AS BIGINT) AS t_num,
             (a.t_num::DOUBLE
              * sqrt(tot.nt::DOUBLE / b.v_num::DOUBLE)) AS zz
      FROM a, b, tot)
SELECT n, n_pos, t_num,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


# =====================================================================
# tukey_q — Tukey–Kramer post-hoc pairwise studentized-range stats
# =====================================================================


def q_tukey_q(sf_dir: str):
    """Tukey–Kramer post-hoc statistics (Tukey 1949; Kramer 1956 for
    unequal n) for the three returnflag pairs after ``anova_f``:
    q_ij = |mean_i − mean_j| / √(MSW/2 · (1/n_i + 1/n_j)) from the
    same nine exact census moments — the read-out an analyst runs the
    moment the omnibus F rejects.  One mirrored fixed-order double
    chain per pair (means and MSW from < 2⁵³ integers; pair order
    pinned (A,N), (A,R), (N,R)).  Output: 3 rows
    ``(g_a, g_b, q_e6)``.  Zero keyed exchange (census fold shared
    with anova_f)."""
    cells = _flag_qty_census(sf_dir)
    n = {f: 0 for f in _FLAGS}
    s = {f: 0 for f in _FLAGS}
    q = {f: 0 for f in _FLAGS}
    for (f, x), m in cells.items():
        n[f] += m
        s[f] += m * x
        q[f] += m * x * x
    nt = sum(n.values())
    qt = sum(q.values())
    t1 = (
        float(s["A"]) * float(s["A"]) / float(n["A"])
        + float(s["N"]) * float(s["N"]) / float(n["N"])
        + float(s["R"]) * float(s["R"]) / float(n["R"])
    )
    msw = (float(qt) - t1) / (float(nt) - 3.0)
    rows = []
    for a, b in (("A", "N"), ("A", "R"), ("N", "R")):
        diff = abs(
            float(s[a]) / float(n[a]) - float(s[b]) / float(n[b])
        )
        se = math.sqrt(
            msw / 2.0 * (1.0 / float(n[a]) + 1.0 / float(n[b]))
        )
        rows.append((a, b, _e6_signed(diff / se)))
    return pa.table(
        {
            "g_a": pa.array([r[0] for r in rows], pa.string()),
            "g_b": pa.array([r[1] for r in rows], pa.string()),
            "q_e6": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


SQL_TUKEY_Q = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
g AS (SELECT
  sum(CASE WHEN f = 'A' THEN m ELSE 0 END) AS na,
  sum(CASE WHEN f = 'N' THEN m ELSE 0 END) AS nn,
  sum(CASE WHEN f = 'R' THEN m ELSE 0 END) AS nr,
  sum(CASE WHEN f = 'A' THEN m * x ELSE 0 END) AS sa,
  sum(CASE WHEN f = 'N' THEN m * x ELSE 0 END) AS sn,
  sum(CASE WHEN f = 'R' THEN m * x ELSE 0 END) AS sr,
  sum(CASE WHEN f = 'A' THEN m * x * x ELSE 0 END) AS qa,
  sum(CASE WHEN f = 'N' THEN m * x * x ELSE 0 END) AS qn,
  sum(CASE WHEN f = 'R' THEN m * x * x ELSE 0 END) AS qr
  FROM c),
d AS (SELECT na, nn, nr, sa, sn, sr,
             ((qa + qn + qr)::DOUBLE
              - (sa::DOUBLE * sa::DOUBLE / na::DOUBLE
                 + sn::DOUBLE * sn::DOUBLE / nn::DOUBLE
                 + sr::DOUBLE * sr::DOUBLE / nr::DOUBLE))
             / ((na + nn + nr)::DOUBLE - 3.0) AS msw
      FROM g),
p AS (
  SELECT 'A' AS g_a, 'N' AS g_b,
         abs(sa::DOUBLE / na::DOUBLE - sn::DOUBLE / nn::DOUBLE)
         / sqrt(msw / 2.0 * (1.0 / na::DOUBLE + 1.0 / nn::DOUBLE)) AS qq
  FROM d
  UNION ALL
  SELECT 'A', 'R',
         abs(sa::DOUBLE / na::DOUBLE - sr::DOUBLE / nr::DOUBLE)
         / sqrt(msw / 2.0 * (1.0 / na::DOUBLE + 1.0 / nr::DOUBLE))
  FROM d
  UNION ALL
  SELECT 'N', 'R',
         abs(sn::DOUBLE / nn::DOUBLE - sr::DOUBLE / nr::DOUBLE)
         / sqrt(msw / 2.0 * (1.0 / nn::DOUBLE + 1.0 / nr::DOUBLE))
  FROM d)
SELECT g_a, g_b,
       cast(floor(abs(qq) * 1e6 + 0.5) AS BIGINT) AS q_e6
FROM p
"""


# =====================================================================
# friedman_test + page_trend — blocked ranks over days × priorities
# =====================================================================


def _day_prio_ranks(sf_dir: str):
    """(b, k, per-treatment doubled rank sums R'_j, Σ r'², per-cell
    doubled ranks) over the days × 5-priorities count grid — the
    blocked-design census both tests consume.  Missing (day, prio)
    cells COUNT AS ZERO (every block ranks all k treatments, the
    textbook design); day-bounded domain → driver fold, zero keyed
    exchange."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = (us // _US_PER_DAY).astype(np.int64)
        pr = pc.utf8_slice_codeunits(
            t.column("o_orderpriority"), 0, 1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        g = (
            pd.DataFrame({"d": day, "p": pr})
            .groupby(["d", "p"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "d": pa.array(g["d"].to_numpy(np.int64)),
                "p": pa.array(g["p"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    cells: dict[tuple[int, int], int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for d, p, n in zip(
            t.column("d").to_pylist(),
            t.column("p").to_pylist(),
            t.column("n").to_pylist(),
        ):
            cells[(int(d), int(p))] = cells.get((int(d), int(p)), 0) + int(n)
    days = sorted({d for d, _ in cells})
    k = 5
    r_sum = {j: 0 for j in range(1, k + 1)}
    sq_sum = 0
    for d in days:
        vals = {j: cells.get((d, j), 0) for j in range(1, k + 1)}
        marg: dict[int, int] = {}
        for v in vals.values():
            marg[v] = marg.get(v, 0) + 1
        from .measures import _rank2

        r2 = _rank2(marg)
        for j in range(1, k + 1):
            rr = r2[vals[j]]
            r_sum[j] += rr
            sq_sum += rr * rr
    return len(days), k, r_sum, sq_sum


def q_friedman_test(sf_dir: str):
    """Friedman test (Friedman 1937, tie-corrected form) of whether
    the five order priorities receive systematically different daily
    volumes, blocking by day: within each day the 5 counts get
    doubled mid-ranks (the ``_rank2`` rule — doubling keeps every
    sum integral), and with R'_j = Σ_days r'_j,
    χ² = (k−1)·B/C where 4B = Σ_j (R'_j − b(k+1))² and
    4C = Σ r'² − b·k(k+1)² — a PURE INTEGER rational (no mirrored
    double anywhere; the 4s cancel), released with the shared
    half-away e6 division.  Output: one row
    ``(b, k, r2_1..r2_5, chi2_e6)``."""
    from .patterns import _ols_e6

    b, k, r_sum, sq_sum = _day_prio_ranks(sf_dir)
    b4 = sum((r_sum[j] - b * (k + 1)) ** 2 for j in range(1, k + 1))
    c4 = sq_sum - b * k * (k + 1) ** 2
    cols = {
        "b": pa.array([b], pa.int64()),
        "k": pa.array([k], pa.int64()),
    }
    for j in range(1, k + 1):
        cols[f"r2_{j}"] = pa.array([r_sum[j]], pa.int64())
    cols["chi2_e6"] = pa.array([_ols_e6((k - 1) * b4, c4)], pa.int64())
    return pa.table(cols)


def q_page_trend(sf_dir: str):
    """Page's L trend test (Page 1963) for the ORDERED alternative
    over the same blocked design (priorities 1..5 are ordinal):
    2L = Σ_j j·R'_j is an exact integer from the doubled rank sums,
    with E[2L] = b·k(k+1)²/2 and (under no ties)
    144·Var(2L) = 4·b·k²(k+1)²(k−1)·... — the classical normal
    approximation z = (2L − E[2L]) / √(b·k²(k+1)²(k−1)/36) is the one
    mirrored double chain (computed from identical integers on both
    engines; the doubled scale folds into the constants).  Output:
    one row ``(b, k, l2_stat, z_e6)``."""
    b, k, r_sum, _ = _day_prio_ranks(sf_dir)
    l2 = sum(j * r_sum[j] for j in range(1, k + 1))
    e2 = b * k * (k + 1) ** 2 // 2  # E[2L] = 2·b·k(k+1)²/4, exact
    var2 = (
        float(b) * float(k * k) * float((k + 1) * (k + 1)) * float(k - 1)
    ) / 36.0  # Var(2L) = 4·Var(L), Var(L) = b k²(k+1)²(k−1)/144
    z = (float(l2) - float(e2)) / math.sqrt(var2)
    return pa.table(
        {
            "b": pa.array([b], pa.int64()),
            "k": pa.array([k], pa.int64()),
            "l2_stat": pa.array([l2], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


_SQL_DAY_PRIO_RANKS = """
c0 AS (
  SELECT cast(datediff('day', TIMESTAMP '1970-01-01', o_orderdate)
              AS BIGINT) AS d,
         cast(substr(o_orderpriority, 1, 1) AS BIGINT) AS p,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1, 2),
grid AS (
  SELECT dd.d, pp.p, coalesce(c0.n, 0) AS n
  FROM (SELECT DISTINCT d FROM c0) dd
  CROSS JOIN range(1, 6) pp(p)
  LEFT JOIN c0 ON c0.d = dd.d AND c0.p = pp.p),
rk AS (
  SELECT d, p, n,
         2 * (rank() OVER (PARTITION BY d ORDER BY n) - 1)
         + count(*) OVER (PARTITION BY d, n) + 1 AS r2
  FROM grid),
rs AS (SELECT p, cast(sum(r2) AS BIGINT) AS rsum FROM rk GROUP BY p),
tot AS (SELECT (SELECT cast(count(DISTINCT d) AS BIGINT) FROM c0) AS b,
               5::BIGINT AS k,
               (SELECT cast(sum(r2 * r2) AS BIGINT) FROM rk) AS sq)
"""


SQL_FRIEDMAN = f"""
WITH {_SQL_DAY_PRIO_RANKS},
bsum AS (SELECT cast(sum((rs.rsum - tot.b * (tot.k + 1))
                         * (rs.rsum - tot.b * (tot.k + 1))) AS BIGINT)
                AS b4
         FROM rs, tot),
csum AS (SELECT cast(tot.sq - tot.b * tot.k * (tot.k + 1) * (tot.k + 1)
                     AS BIGINT) AS c4
         FROM tot)
SELECT tot.b, tot.k,
       (SELECT rsum FROM rs WHERE p = 1) AS r2_1,
       (SELECT rsum FROM rs WHERE p = 2) AS r2_2,
       (SELECT rsum FROM rs WHERE p = 3) AS r2_3,
       (SELECT rsum FROM rs WHERE p = 4) AS r2_4,
       (SELECT rsum FROM rs WHERE p = 5) AS r2_5,
       cast((2000000 * ((tot.k - 1) * cast(bsum.b4 AS HUGEINT))
             + csum.c4) // (2 * cast(csum.c4 AS HUGEINT)) AS BIGINT)
         AS chi2_e6
FROM tot, bsum, csum
"""


SQL_PAGE_TREND = f"""
WITH {_SQL_DAY_PRIO_RANKS},
l AS (SELECT cast(sum(p * rsum) AS BIGINT) AS l2 FROM rs),
z AS (SELECT tot.b, tot.k, l.l2,
             ((l.l2::DOUBLE
               - (tot.b * tot.k * (tot.k + 1) * (tot.k + 1) // 2)::DOUBLE)
              / sqrt((tot.b::DOUBLE * (tot.k * tot.k)::DOUBLE
                      * ((tot.k + 1) * (tot.k + 1))::DOUBLE
                      * (tot.k - 1)::DOUBLE) / 36.0)) AS zz
      FROM tot, l)
SELECT b, k, l2 AS l2_stat,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


QUERIES = {
    "anova_f": q_anova_f,
    "kruskal_wallis": q_kruskal_wallis,
    "dft_power": q_dft_power,
    "levene_test": q_levene_test,
    "runs_test": q_runs_test,
    "perm_entropy": q_perm_entropy,
    "quantile_map": q_quantile_map,
    "durbin_watson": q_durbin_watson,
    "cochran_armitage": q_cochran_armitage,
    "friedman_test": q_friedman_test,
    "page_trend": q_page_trend,
    "tukey_q": q_tukey_q,
}

ORACLE_SQL = {
    "anova_f": SQL_ANOVA_F,
    "kruskal_wallis": SQL_KRUSKAL,
    "dft_power": SQL_DFT_POWER,
    "levene_test": SQL_LEVENE,
    "runs_test": SQL_RUNS_TEST,
    "perm_entropy": SQL_PERM_ENTROPY,
    "quantile_map": SQL_QUANTILE_MAP,
    "durbin_watson": SQL_DURBIN_WATSON,
    "cochran_armitage": SQL_COCHRAN_ARMITAGE,
    "friedman_test": SQL_FRIEDMAN,
    "page_trend": SQL_PAGE_TREND,
    "tukey_q": SQL_TUKEY_Q,
}
