"""Round-3 continuation #20: classical hypothesis tests II — the
nonparametric / paired / ordered-alternative companions of the
continuation-18/19 family, each exact-integer until (at most) one
mirrored fixed-order double chain.

Group-comparison tests over the bounded 3 × 50 returnflag × quantity
census (shared with ``anova_f``; zero keyed exchange):

- ``mood_median``       Mood's median test (Brown & Mood 1951): the
                        2 × 3 above/below-grand-median table is pure
                        integers (at-median dropped, the ``runs_test``
                        tie rule); Pearson χ² one mirrored chain.
- ``jonckheere_trend``  Jonckheere–Terpstra (1954) ordered-alternative
                        test under the pinned order A < N < R: the
                        doubled statistic 2U and the three
                        tie-correction terms are exact bigints.
- ``bartlett_test``     Bartlett (1937) variance homogeneity: group
                        variances are exact rationals from the nine
                        census moments; each ln term is e6-quantized
                        BEFORE combination (the ``kn_bigram`` ln
                        discipline) so the χ² numerator is integer.

Paired / binary designs:

- ``mcnemar_test``      McNemar (1947, Edwards-corrected) marginal
                        homogeneity of two deterministic document
                        quality predictors — χ² = (|b−c|−1)²/(b+c) a
                        PURE integer rational (no double anywhere).
- ``wilcoxon_signed``   Wilcoxon (1945) signed-rank over day-paired
                        priority-1 vs priority-2 order counts: doubled
                        mid-ranks of |d| keep W and the tie-corrected
                        12·Var exact bigints.

Series diagnostics over the daily / weekly order-count census:

- ``cox_stuart``        Cox & Stuart (1955) trend sign test: first-half
                        vs second-half pairing, z = (2S⁺ − m)/√m.
- ``pettitt_test``      Pettitt (1979) changepoint: U_t = t(n+1) −
                        Σ_{i≤t} R'_i with doubled mid-ranks — every
                        U_t an exact integer, K = max|U_t| pure
                        integer, NO double chain at all.
- ``ljung_box``         Ljung & Box (1978) portmanteau Q over lags
                        1..7 of the daily series: n-scaled deviations
                        e_i = n·x_i − S make every autocorrelation an
                        exact bigint ratio; Q one mirrored chain.

Exactness strategy: identical to ``hypotests`` — bounded/day-bounded
censuses folded exactly in integers on the driver, statistics read out
either pure-integer (mcnemar, pettitt) or as ONE fixed-order double
chain over integers each cast once per engine (the ``spearman_rho`` /
``cochran_armitage`` precedent: a single bigint→double cast is
correctly rounded on both engines).

Scale shapes: all map-only passes with constant-size partials; at
100 TB the driver fold stays a few KB per block and every finish is
O(cells) / O(days) constant work.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read
from .hypotests import _FLAGS, _e6_signed, _flag_qty_census, _med2

_US_PER_DAY = 86_400_000_000


def _ols_e6(p: int, d: int) -> int:
    """Lazy proxy for patterns._ols_e6 (the shared half-away e6
    integer division) — lazy for the same worker-unpickle
    circular-import reason as measures.py / graphstats.py."""
    from .patterns import _ols_e6 as _f

    return _f(p, d)


# =====================================================================
# mood_median — k-sample median test over the returnflag census
# =====================================================================


def q_mood_median(sf_dir: str):
    """Mood's median test (Mood 1950; Brown & Mood 1951) of whether
    the three returnflag groups share a common l_quantity median:
    classify each row above/below the pooled grand median (2x ≷ m2
    exact via the ``_med2`` mid-pair sum; rows AT the median are
    dropped — the ``runs_test`` tie rule), pivot into the 2 × 3
    integer table, and read out Pearson χ² as ONE fixed-order double
    chain (groups in (A, N, R) order, above-term then below-term;
    every E = row·col/N is a ratio of < 2⁵³ integers).  Output: one
    row ``(a_a, a_n, a_r, b_a, b_n, b_r, chi2_e6)``.  Zero keyed
    exchange (census fold shared with anova_f)."""
    cells = _flag_qty_census(sf_dir)
    marg: dict[int, int] = {}
    for (_, x), m in cells.items():
        marg[x] = marg.get(x, 0) + m
    m2 = _med2(marg)
    above = {f: 0 for f in _FLAGS}
    below = {f: 0 for f in _FLAGS}
    for (f, x), m in cells.items():
        if 2 * x > m2:
            above[f] += m
        elif 2 * x < m2:
            below[f] += m
    ta = sum(above.values())
    tb = sum(below.values())
    nt = ta + tb
    chi = 0.0
    # fixed-order chain mirrored op-for-op in SQL_MOOD_MEDIAN
    for f in _FLAGS:
        ng = above[f] + below[f]
        ea = float(ta) * float(ng) / float(nt)
        eb = float(tb) * float(ng) / float(nt)
        chi += (float(above[f]) - ea) * (float(above[f]) - ea) / ea
        chi += (float(below[f]) - eb) * (float(below[f]) - eb) / eb
    return pa.table(
        {
            "a_a": pa.array([above["A"]], pa.int64()),
            "a_n": pa.array([above["N"]], pa.int64()),
            "a_r": pa.array([above["R"]], pa.int64()),
            "b_a": pa.array([below["A"]], pa.int64()),
            "b_n": pa.array([below["N"]], pa.int64()),
            "b_r": pa.array([below["R"]], pa.int64()),
            "chi2_e6": pa.array([_e6_signed(chi)], pa.int64()),
        }
    )


SQL_MOOD_MEDIAN = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
marg AS (SELECT x AS v, cast(sum(m) AS BIGINT) AS mm FROM c GROUP BY x),
cum AS (SELECT v, sum(mm) OVER (ORDER BY v) AS cm,
               sum(mm) OVER () AS nt
        FROM marg),
med AS (SELECT min(CASE WHEN cm >= (nt + 1) // 2 THEN v END)
               + min(CASE WHEN cm >= nt // 2 + 1 THEN v END) AS m2
        FROM cum),
p AS (SELECT
  sum(CASE WHEN f = 'A' AND 2 * x > m2 THEN m ELSE 0 END) AS aa,
  sum(CASE WHEN f = 'N' AND 2 * x > m2 THEN m ELSE 0 END) AS an,
  sum(CASE WHEN f = 'R' AND 2 * x > m2 THEN m ELSE 0 END) AS ar,
  sum(CASE WHEN f = 'A' AND 2 * x < m2 THEN m ELSE 0 END) AS ba,
  sum(CASE WHEN f = 'N' AND 2 * x < m2 THEN m ELSE 0 END) AS bn,
  sum(CASE WHEN f = 'R' AND 2 * x < m2 THEN m ELSE 0 END) AS br
  FROM c, med),
t AS (SELECT aa, an, ar, ba, bn, br,
             aa + an + ar AS ta, ba + bn + br AS tb,
             aa + an + ar + ba + bn + br AS nt
      FROM p),
z AS (SELECT aa, an, ar, ba, bn, br,
  (aa::DOUBLE - ta::DOUBLE * (aa + ba)::DOUBLE / nt::DOUBLE)
    * (aa::DOUBLE - ta::DOUBLE * (aa + ba)::DOUBLE / nt::DOUBLE)
    / (ta::DOUBLE * (aa + ba)::DOUBLE / nt::DOUBLE)
  + (ba::DOUBLE - tb::DOUBLE * (aa + ba)::DOUBLE / nt::DOUBLE)
    * (ba::DOUBLE - tb::DOUBLE * (aa + ba)::DOUBLE / nt::DOUBLE)
    / (tb::DOUBLE * (aa + ba)::DOUBLE / nt::DOUBLE)
  + (an::DOUBLE - ta::DOUBLE * (an + bn)::DOUBLE / nt::DOUBLE)
    * (an::DOUBLE - ta::DOUBLE * (an + bn)::DOUBLE / nt::DOUBLE)
    / (ta::DOUBLE * (an + bn)::DOUBLE / nt::DOUBLE)
  + (bn::DOUBLE - tb::DOUBLE * (an + bn)::DOUBLE / nt::DOUBLE)
    * (bn::DOUBLE - tb::DOUBLE * (an + bn)::DOUBLE / nt::DOUBLE)
    / (tb::DOUBLE * (an + bn)::DOUBLE / nt::DOUBLE)
  + (ar::DOUBLE - ta::DOUBLE * (ar + br)::DOUBLE / nt::DOUBLE)
    * (ar::DOUBLE - ta::DOUBLE * (ar + br)::DOUBLE / nt::DOUBLE)
    / (ta::DOUBLE * (ar + br)::DOUBLE / nt::DOUBLE)
  + (br::DOUBLE - tb::DOUBLE * (ar + br)::DOUBLE / nt::DOUBLE)
    * (br::DOUBLE - tb::DOUBLE * (ar + br)::DOUBLE / nt::DOUBLE)
    / (tb::DOUBLE * (ar + br)::DOUBLE / nt::DOUBLE) AS chi
  FROM t)
SELECT cast(aa AS BIGINT) AS a_a, cast(an AS BIGINT) AS a_n,
       cast(ar AS BIGINT) AS a_r, cast(ba AS BIGINT) AS b_a,
       cast(bn AS BIGINT) AS b_n, cast(br AS BIGINT) AS b_r,
       cast(CASE WHEN chi >= 0 THEN floor(abs(chi) * 1e6 + 0.5)
                 ELSE -floor(abs(chi) * 1e6 + 0.5) END AS BIGINT) AS chi2_e6
FROM z
"""


# =====================================================================
# mcnemar_test — paired binary predictors over documents
# =====================================================================

_MCN_LEN = 300  #: predictor A: char length ≥ 300 (near the corpus median)
_MCN_SPACES = 55  #: predictor B: space count ≥ 55 (median space count)


def q_mcnemar_test(sf_dir: str):
    """McNemar's test (McNemar 1947; Edwards 1948 continuity form) of
    whether two deterministic document quality predictors — A:
    char-length ≥ 300, B: space-count ≥ 55 — disagree symmetrically:
    with b = #(A ∧ ¬B) and c = #(¬A ∧ B),
    χ² = (max(|b−c|−1, 0))² / (b+c) is a PURE integer rational read
    out via the shared half-away e6 division (no double anywhere).
    Output: one row ``(n_docs, b_cell, c_cell, chi2_e6)``.  Zero
    keyed exchange (4-cell census fold)."""
    ds = _read(sf_dir, "documents", ["text"])

    def _partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column("text"), "")
        ln = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
        sp = pc.count_substring(txt, " ").to_numpy(zero_copy_only=False)
        a = ln >= _MCN_LEN
        bb = sp >= _MCN_SPACES
        return pa.table(
            {
                "n": pa.array([len(ln)], pa.int64()),
                "b": pa.array([int(np.sum(a & ~bb))], pa.int64()),
                "c": pa.array([int(np.sum(~a & bb))], pa.int64()),
            }
        )

    n = b = c = 0
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        n += sum(t.column("n").to_pylist())
        b += sum(t.column("b").to_pylist())
        c += sum(t.column("c").to_pylist())
    num = max(abs(b - c) - 1, 0) ** 2
    chi2_e6 = _ols_e6(num, b + c) if (b + c) > 0 else 0
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "b_cell": pa.array([b], pa.int64()),
            "c_cell": pa.array([c], pa.int64()),
            "chi2_e6": pa.array([chi2_e6], pa.int64()),
        }
    )


SQL_MCNEMAR = """
WITH f AS (
  SELECT length(coalesce(text, '')) >= 300 AS a,
         (length(coalesce(text, ''))
          - length(replace(coalesce(text, ''), ' ', ''))) >= 55 AS b
  FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n,
             cast(sum(CASE WHEN a AND NOT b THEN 1 ELSE 0 END)
                  AS BIGINT) AS bb,
             cast(sum(CASE WHEN NOT a AND b THEN 1 ELSE 0 END)
                  AS BIGINT) AS cc
      FROM f)
SELECT n AS n_docs, bb AS b_cell, cc AS c_cell,
       CASE WHEN bb + cc = 0 THEN 0
            ELSE (2000000 * greatest(abs(bb - cc) - 1, 0)
                          * greatest(abs(bb - cc) - 1, 0)
                  + (bb + cc)) // (2 * (bb + cc))
       END AS chi2_e6
FROM p
"""


# =====================================================================
# cox_stuart — first-half / second-half trend sign test
# =====================================================================


def q_cox_stuart(sf_dir: str):
    """Cox–Stuart trend test (Cox & Stuart 1955) of the daily
    order-count series: pair day i with day i + (n − ⌊n/2⌋) (the
    middle day is dropped when n is odd — the textbook pairing),
    count S⁺ = #(later > earlier) over the m non-tied pairs, and read
    out z = (2S⁺ − m)/√m — one mirrored fixed-order chain over exact
    integers.  Output: one row ``(n_days, n_pairs, n_pos, z_e6)``.
    Zero keyed exchange (day-census fold; O(days) driver pairing)."""
    from .measures import _day_census

    census = _day_census(sf_dir)
    days = sorted(census)
    cvals = [census[d] for d in days]
    n = len(cvals)
    h = n // 2
    off = n - h
    pos = neg = 0
    for i in range(h):
        if cvals[i + off] > cvals[i]:
            pos += 1
        elif cvals[i + off] < cvals[i]:
            neg += 1
    m = pos + neg
    z = (2.0 * float(pos) - float(m)) / math.sqrt(float(m))
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "n_pairs": pa.array([m], pa.int64()),
            "n_pos": pa.array([pos], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


SQL_COX_STUART = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY d) AS rn,
             count(*) OVER () AS nt
      FROM c),
pr AS (SELECT a.n AS x, b.n AS y
       FROM r a JOIN r b
         ON b.rn = a.rn + (a.nt - a.nt // 2)
       WHERE a.rn <= a.nt // 2),
agg AS (SELECT (SELECT max(nt) FROM r) AS n_days,
               cast(sum(CASE WHEN y > x THEN 1 ELSE 0 END)
                    + sum(CASE WHEN y < x THEN 1 ELSE 0 END)
                    AS BIGINT) AS m,
               cast(sum(CASE WHEN y > x THEN 1 ELSE 0 END)
                    AS BIGINT) AS pos
        FROM pr),
z AS (SELECT n_days, m, pos,
             (2.0 * pos::DOUBLE - m::DOUBLE) / sqrt(m::DOUBLE) AS zz
      FROM agg)
SELECT cast(n_days AS BIGINT) AS n_days, m AS n_pairs, pos AS n_pos,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


# =====================================================================
# jonckheere_trend — ordered-alternative k-sample test (A < N < R)
# =====================================================================


def q_jonckheere_trend(sf_dir: str):
    """Jonckheere–Terpstra test (Terpstra 1952; Jonckheere 1954) for
    the ORDERED alternative that l_quantity stochastically increases
    along the pinned returnflag order A < N < R: the doubled statistic
    2U = Σ_{g<h} Σ_{x∈g, y∈h} (2·[y>x] + [y=x]) is an exact bigint
    from the bounded 3 × 50 census (an O(50²·3) driver sweep), the
    mean enters as 4·E[U] = N² − Σ n_g², and the Hollander–Wolfe
    tie-corrected variance terms

        A = N(N−1)(2N+5) − Σ_g n_g(n_g−1)(2n_g+5) − Σ_t t(t−1)(2t+5)
        B = [Σ_g n_g(n_g−1)(n_g−2)]·[Σ_t t(t−1)(t−2)]
        C = [Σ_g n_g(n_g−1)]·[Σ_t t(t−1)]

    are exact bigints (B needs HUGEINT in the twin).  The read-out
    z = (ΔU/4) / √(A/72 + B/(36·D₃) + C/(8·D₂)) with ΔU = 4U − 4E,
    D₃ = N(N−1)(N−2), D₂ = N(N−1), is the ONE mirrored fixed-order
    double chain (each bigint cast once per engine — the
    ``cochran_armitage`` precedent).  Output: one row
    ``(n_rows, u2_stat, d4_num, z_e6)``.  Zero keyed exchange (census
    fold shared with anova_f / mood_median)."""
    cells = _flag_qty_census(sf_dir)
    order = {"A": 0, "N": 1, "R": 2}
    gv: dict[int, dict[int, int]] = {0: {}, 1: {}, 2: {}}
    for (f, x), m in cells.items():
        o = order[f]
        gv[o][x] = gv[o].get(x, 0) + m
    u2 = 0
    for a in range(3):
        for b in range(a + 1, 3):
            for x, ma in gv[a].items():
                for y, mb in gv[b].items():
                    if y > x:
                        u2 += 2 * ma * mb
                    elif y == x:
                        u2 += ma * mb
    ng = [sum(gv[o].values()) for o in range(3)]
    n = sum(ng)
    sn2 = sum(v * v for v in ng)
    ga = sum(v * (v - 1) * (2 * v + 5) for v in ng)
    gb = sum(v * (v - 1) * (v - 2) for v in ng)
    gc = sum(v * (v - 1) for v in ng)
    marg: dict[int, int] = {}
    for (_, x), m in cells.items():
        marg[x] = marg.get(x, 0) + m
    ta = sum(t * (t - 1) * (2 * t + 5) for t in marg.values())
    tb = sum(t * (t - 1) * (t - 2) for t in marg.values())
    tc = sum(t * (t - 1) for t in marg.values())
    d4 = 2 * u2 - (n * n - sn2)
    aa = n * (n - 1) * (2 * n + 5) - ga - ta
    bb = gb * tb
    cc = gc * tc
    d3 = n * (n - 1) * (n - 2)
    d2 = n * (n - 1)
    # fixed-order chain mirrored op-for-op in SQL_JONCKHEERE
    z = (float(d4) / 4.0) / math.sqrt(
        float(aa) / 72.0
        + float(bb) / (36.0 * float(d3))
        + float(cc) / (8.0 * float(d2))
    )
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "u2_stat": pa.array([u2], pa.int64()),
            "d4_num": pa.array([d4], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


SQL_JONCKHEERE = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
cc AS (SELECT CASE f WHEN 'A' THEN 0 WHEN 'N' THEN 1 ELSE 2 END AS o,
              x, m
       FROM c),
u AS (SELECT cast(sum(cast(a.m AS HUGEINT) * b.m
                      * (CASE WHEN b.x > a.x THEN 2
                              WHEN b.x = a.x THEN 1 ELSE 0 END))
             AS HUGEINT) AS u2
      FROM cc a JOIN cc b ON a.o < b.o),
g AS (SELECT o, cast(sum(m) AS BIGINT) AS ng FROM cc GROUP BY o),
gs AS (SELECT cast(sum(ng) AS BIGINT) AS n,
              cast(sum(cast(ng AS HUGEINT) * ng) AS HUGEINT) AS sn2,
              cast(sum(cast(ng AS HUGEINT) * (ng - 1) * (2 * ng + 5))
                   AS HUGEINT) AS ga,
              cast(sum(cast(ng AS HUGEINT) * (ng - 1) * (ng - 2))
                   AS HUGEINT) AS gb,
              cast(sum(cast(ng AS HUGEINT) * (ng - 1)) AS HUGEINT) AS gc
       FROM g),
t AS (SELECT x, cast(sum(m) AS BIGINT) AS tm FROM c GROUP BY x),
ts AS (SELECT cast(sum(cast(tm AS HUGEINT) * (tm - 1) * (2 * tm + 5))
                   AS HUGEINT) AS ta,
              cast(sum(cast(tm AS HUGEINT) * (tm - 1) * (tm - 2))
                   AS HUGEINT) AS tb,
              cast(sum(cast(tm AS HUGEINT) * (tm - 1)) AS HUGEINT) AS tc
       FROM t),
f AS (SELECT gs.n, u.u2,
             2 * u.u2 - (cast(gs.n AS HUGEINT) * gs.n - gs.sn2) AS d4,
             cast(gs.n AS HUGEINT) * (gs.n - 1) * (2 * gs.n + 5)
               - gs.ga - ts.ta AS aa,
             gs.gb * ts.tb AS bb,
             gs.gc * ts.tc AS cx,
             cast(gs.n AS HUGEINT) * (gs.n - 1) * (gs.n - 2) AS d3,
             cast(gs.n AS HUGEINT) * (gs.n - 1) AS d2
      FROM gs, u, ts),
z AS (SELECT n, u2, d4,
             (d4::DOUBLE / 4.0)
             / sqrt(aa::DOUBLE / 72.0
                    + bb::DOUBLE / (36.0 * d3::DOUBLE)
                    + cx::DOUBLE / (8.0 * d2::DOUBLE)) AS zz
      FROM f)
SELECT cast(n AS BIGINT) AS n_rows, cast(u2 AS BIGINT) AS u2_stat,
       cast(d4 AS BIGINT) AS d4_num,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


# =====================================================================
# bartlett_test — variance homogeneity over the census moments
# =====================================================================


def q_bartlett_test(sf_dir: str):
    """Bartlett's test (Bartlett 1937) of l_quantity variance
    homogeneity across the three returnflag groups.  Group variances
    are exact rationals from the nine census moments — s²_g =
    V_g / d_g with V_g = n_g·Q_g − S_g² and d_g = n_g(n_g−1) — and
    the pooled variance is s²_p = W / (P·(N−k)) with P = Π n_g and
    W = Σ_g V_g·(P/n_g) (every term an exact bigint; P/n_g divides
    exactly).  Each ln is e6-quantized with the shared half-away rule
    BEFORE combination (the ``kn_bigram`` ln discipline), so the
    numerator (N−k)·lp − Σ(n_g−1)·l_g is an exact e6-scaled integer.
    The Bartlett correction C = 1 + (Σ 1/(n_g−1) − 1/(N−k))/(3(k−1))
    enters as the exact fraction T_num/T_den (common denominator
    (N−k)·Π(n_g−1)), and χ² = (num/10⁶) / (1 + T_num/(6·T_den)) is
    the one mirrored chain.  Output: one row ``(n_a, n_n, n_r,
    l_a_e6, l_n_e6, l_r_e6, lp_e6, chi2_e6)``.  Zero keyed exchange
    (census fold shared with anova_f)."""
    cells = _flag_qty_census(sf_dir)
    n = {f: 0 for f in _FLAGS}
    s = {f: 0 for f in _FLAGS}
    q = {f: 0 for f in _FLAGS}
    for (f, x), m in cells.items():
        n[f] += m
        s[f] += m * x
        q[f] += m * x * x
    nt = sum(n.values())
    k = 3
    vg = {f: n[f] * q[f] - s[f] * s[f] for f in _FLAGS}
    p_all = 1
    for f in _FLAGS:
        p_all *= n[f]
    w = sum(vg[f] * (p_all // n[f]) for f in _FLAGS)
    lp = _e6_signed(math.log(float(w) / float(p_all * (nt - k))))
    lg = {
        f: _e6_signed(math.log(float(vg[f]) / float(n[f] * (n[f] - 1))))
        for f in _FLAGS
    }
    num_e6 = (nt - k) * lp - sum((n[f] - 1) * lg[f] for f in _FLAGS)
    pg = 1
    for f in _FLAGS:
        pg *= n[f] - 1
    t_den = (nt - k) * pg
    t_num = (nt - k) * sum(pg // (n[f] - 1) for f in _FLAGS) - pg
    # fixed-order chain mirrored op-for-op in SQL_BARTLETT
    chi = (float(num_e6) / 1e6) / (
        1.0 + float(t_num) / (6.0 * float(t_den))
    )
    return pa.table(
        {
            "n_a": pa.array([n["A"]], pa.int64()),
            "n_n": pa.array([n["N"]], pa.int64()),
            "n_r": pa.array([n["R"]], pa.int64()),
            "l_a_e6": pa.array([lg["A"]], pa.int64()),
            "l_n_e6": pa.array([lg["N"]], pa.int64()),
            "l_r_e6": pa.array([lg["R"]], pa.int64()),
            "lp_e6": pa.array([lp], pa.int64()),
            "chi2_e6": pa.array([_e6_signed(chi)], pa.int64()),
        }
    )


SQL_BARTLETT = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
mo AS (SELECT
  cast(sum(CASE WHEN f = 'A' THEN m ELSE 0 END) AS BIGINT) AS na,
  cast(sum(CASE WHEN f = 'N' THEN m ELSE 0 END) AS BIGINT) AS nn,
  cast(sum(CASE WHEN f = 'R' THEN m ELSE 0 END) AS BIGINT) AS nr,
  cast(sum(CASE WHEN f = 'A' THEN m * x ELSE 0 END) AS BIGINT) AS sa,
  cast(sum(CASE WHEN f = 'N' THEN m * x ELSE 0 END) AS BIGINT) AS sn,
  cast(sum(CASE WHEN f = 'R' THEN m * x ELSE 0 END) AS BIGINT) AS sr,
  cast(sum(CASE WHEN f = 'A' THEN m * x * x ELSE 0 END) AS BIGINT) AS qa,
  cast(sum(CASE WHEN f = 'N' THEN m * x * x ELSE 0 END) AS BIGINT) AS qn,
  cast(sum(CASE WHEN f = 'R' THEN m * x * x ELSE 0 END) AS BIGINT) AS qr
  FROM c),
v AS (SELECT na, nn, nr, na + nn + nr AS nt,
             cast(na AS HUGEINT) * qa - cast(sa AS HUGEINT) * sa AS va,
             cast(nn AS HUGEINT) * qn - cast(sn AS HUGEINT) * sn AS vn,
             cast(nr AS HUGEINT) * qr - cast(sr AS HUGEINT) * sr AS vr
      FROM mo),
w AS (SELECT *,
             va * nn * nr + vn * na * nr + vr * na * nn AS ww,
             cast(na AS HUGEINT) * nn * nr AS pp
      FROM v),
l AS (SELECT *,
  cast(CASE WHEN ln(ww::DOUBLE / (pp * (nt - 3))::DOUBLE) >= 0
            THEN floor(abs(ln(ww::DOUBLE / (pp * (nt - 3))::DOUBLE))
                       * 1e6 + 0.5)
            ELSE -floor(abs(ln(ww::DOUBLE / (pp * (nt - 3))::DOUBLE))
                        * 1e6 + 0.5) END AS BIGINT) AS lp,
  cast(CASE WHEN ln(va::DOUBLE / (cast(na AS HUGEINT) * (na - 1))::DOUBLE)
              >= 0
            THEN floor(abs(ln(va::DOUBLE
                              / (cast(na AS HUGEINT) * (na - 1))::DOUBLE))
                       * 1e6 + 0.5)
            ELSE -floor(abs(ln(va::DOUBLE
                               / (cast(na AS HUGEINT) * (na - 1))::DOUBLE))
                        * 1e6 + 0.5) END AS BIGINT) AS la,
  cast(CASE WHEN ln(vn::DOUBLE / (cast(nn AS HUGEINT) * (nn - 1))::DOUBLE)
              >= 0
            THEN floor(abs(ln(vn::DOUBLE
                              / (cast(nn AS HUGEINT) * (nn - 1))::DOUBLE))
                       * 1e6 + 0.5)
            ELSE -floor(abs(ln(vn::DOUBLE
                               / (cast(nn AS HUGEINT) * (nn - 1))::DOUBLE))
                        * 1e6 + 0.5) END AS BIGINT) AS ln_,
  cast(CASE WHEN ln(vr::DOUBLE / (cast(nr AS HUGEINT) * (nr - 1))::DOUBLE)
              >= 0
            THEN floor(abs(ln(vr::DOUBLE
                              / (cast(nr AS HUGEINT) * (nr - 1))::DOUBLE))
                       * 1e6 + 0.5)
            ELSE -floor(abs(ln(vr::DOUBLE
                               / (cast(nr AS HUGEINT) * (nr - 1))::DOUBLE))
                        * 1e6 + 0.5) END AS BIGINT) AS lr
  FROM w),
nm AS (SELECT *,
              cast(nt - 3 AS HUGEINT) * lp
                - (cast(na - 1 AS HUGEINT) * la
                   + cast(nn - 1 AS HUGEINT) * ln_
                   + cast(nr - 1 AS HUGEINT) * lr) AS nume6,
              cast(nt - 3 AS HUGEINT)
                * (cast(na - 1 AS HUGEINT) * (nn - 1) * (nr - 1)) AS tden,
              cast(nt - 3 AS HUGEINT)
                * (cast(nn - 1 AS HUGEINT) * (nr - 1)
                   + cast(na - 1 AS HUGEINT) * (nr - 1)
                   + cast(na - 1 AS HUGEINT) * (nn - 1))
                - cast(na - 1 AS HUGEINT) * (nn - 1) * (nr - 1) AS tnum
       FROM l),
z AS (SELECT *,
             (nume6::DOUBLE / 1e6)
             / (1.0 + tnum::DOUBLE / (6.0 * tden::DOUBLE)) AS chi
      FROM nm)
SELECT na AS n_a, nn AS n_n, nr AS n_r,
       la AS l_a_e6, ln_ AS l_n_e6, lr AS l_r_e6, lp AS lp_e6,
       cast(CASE WHEN chi >= 0 THEN floor(abs(chi) * 1e6 + 0.5)
                 ELSE -floor(abs(chi) * 1e6 + 0.5) END AS BIGINT)
         AS chi2_e6
FROM z
"""


# =====================================================================
# wilcoxon_signed — day-paired priority-1 vs priority-2 volumes
# =====================================================================


def _day_two_prio(sf_dir: str) -> dict[tuple[int, int], int]:
    """(epoch-day, priority∈{1,2}) → order count, folded on the
    driver (the ``_day_census`` discipline restricted to the two
    paired treatments; day-bounded domain, zero keyed exchange)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = (us // _US_PER_DAY).astype(np.int64)
        pr = pc.utf8_slice_codeunits(
            t.column("o_orderpriority"), 0, 1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (pr == 1) | (pr == 2)
        g = (
            pd.DataFrame({"d": day[keep], "p": pr[keep]})
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
        for d, p, m in zip(
            t.column("d").to_pylist(),
            t.column("p").to_pylist(),
            t.column("n").to_pylist(),
        ):
            cells[(int(d), int(p))] = cells.get((int(d), int(p)), 0) + int(m)
    return cells


def q_wilcoxon_signed(sf_dir: str):
    """Wilcoxon signed-rank test (Wilcoxon 1945, tie-corrected) of
    whether URGENT (priority 1) and HIGH (priority 2) order volumes
    differ, pairing by day: d = n₁ − n₂ per day with any 1/2-priority
    order (a missing treatment counts 0), zero differences dropped
    (the textbook rule), |d| ranked with DOUBLED mid-ranks (the
    ``_rank2`` rule) so 2W⁺ = Σ_{d>0} r′ and 2E = n(n+1)/2 are exact
    integers and the tie-corrected 48·Var(W⁺) = 2n(n+1)(2n+1) −
    Σ_t(t³−t) is an exact bigint; z = ((2W⁺ − 2E)/2) / √(v48/48) is
    the one mirrored chain.  Output: one row ``(n_pairs, w2_pos, v48,
    z_e6)``.  Zero keyed exchange (day-bounded census fold)."""
    cells = _day_two_prio(sf_dir)
    from .measures import _rank2

    days = sorted({d for d, _ in cells})
    diffs = []
    for d in days:
        dv = cells.get((d, 1), 0) - cells.get((d, 2), 0)
        if dv != 0:
            diffs.append(dv)
    marg: dict[int, int] = {}
    for dv in diffs:
        a = abs(dv)
        marg[a] = marg.get(a, 0) + 1
    r2 = _rank2(marg)
    w2 = sum(r2[abs(dv)] for dv in diffs if dv > 0)
    npair = len(diffs)
    e2 = npair * (npair + 1) // 2
    tie = sum(t * t * t - t for t in marg.values())
    v48 = 2 * npair * (npair + 1) * (2 * npair + 1) - tie
    # fixed-order chain mirrored op-for-op in SQL_WILCOXON
    z = ((float(w2) - float(e2)) / 2.0) / math.sqrt(float(v48) / 48.0)
    return pa.table(
        {
            "n_pairs": pa.array([npair], pa.int64()),
            "w2_pos": pa.array([w2], pa.int64()),
            "v48": pa.array([v48], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


SQL_WILCOXON = """
WITH c0 AS (
  SELECT cast(datediff('day', TIMESTAMP '1970-01-01', o_orderdate)
              AS BIGINT) AS d,
         cast(substr(o_orderpriority, 1, 1) AS BIGINT) AS p,
         cast(count(*) AS BIGINT) AS n
  FROM orders
  WHERE substr(o_orderpriority, 1, 1) IN ('1', '2')
  GROUP BY 1, 2),
pairs AS (
  SELECT d,
         sum(CASE WHEN p = 1 THEN n ELSE 0 END)
           - sum(CASE WHEN p = 2 THEN n ELSE 0 END) AS df
  FROM c0 GROUP BY d),
dd AS (SELECT df, abs(df) AS ad FROM pairs WHERE df <> 0),
rk AS (SELECT df,
              2 * (rank() OVER (ORDER BY ad) - 1)
                + count(*) OVER (PARTITION BY ad) + 1 AS r2
       FROM dd),
tg AS (SELECT ad, cast(count(*) AS BIGINT) AS tc FROM dd GROUP BY ad),
agg AS (SELECT
  (SELECT cast(count(*) AS BIGINT) FROM rk) AS n,
  (SELECT cast(coalesce(sum(CASE WHEN df > 0 THEN r2 ELSE 0 END), 0)
          AS BIGINT) FROM rk) AS w2,
  (SELECT cast(coalesce(sum(tc * tc * tc - tc), 0) AS BIGINT) FROM tg)
    AS tie),
v AS (SELECT n, w2,
             2 * n * (n + 1) * (2 * n + 1) - tie AS v48
      FROM agg),
z AS (SELECT n, w2, v48,
             ((w2::DOUBLE - ((n * (n + 1)) // 2)::DOUBLE) / 2.0)
               / sqrt(v48::DOUBLE / 48.0) AS zz
      FROM v)
SELECT n AS n_pairs, w2 AS w2_pos, cast(v48 AS BIGINT) AS v48,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


# =====================================================================
# pettitt_test — rank-based changepoint over the daily series
# =====================================================================


def q_pettitt_test(sf_dir: str):
    """Pettitt changepoint test (Pettitt 1979) of the daily
    order-count series: with DOUBLED mid-ranks r′ (the ``_rank2``
    rule), U_t = Σ_{i≤t} r′_i − t(n+1) is EXACTLY the textbook
    U_t = Σ_{i≤t} Σ_{j>t} sgn(x_i − x_j) including ties (Σ_j sgn(x_i
    − x_j) = 2R_i − n − 1 holds for mid-ranks; the within-prefix
    double sum cancels by antisymmetry — proven in the test
    contract), so K = max_{1≤t<n} |U_t| and the earliest argmax t*
    are PURE integers — no double chain at all.  Output: one row
    ``(n_days, k_stat, t_star, u_star)``.  Zero keyed exchange
    (day-census fold; O(n log n) driver sweep)."""
    from .measures import _day_census, _rank2

    census = _day_census(sf_dir)
    days = sorted(census)
    xs = [census[d] for d in days]
    n = len(xs)
    marg: dict[int, int] = {}
    for x in xs:
        marg[x] = marg.get(x, 0) + 1
    r2 = _rank2(marg)
    best_k = -1
    best_t = 0
    best_u = 0
    cum = 0
    for t in range(1, n):
        cum += r2[xs[t - 1]]
        ut = cum - t * (n + 1)
        if abs(ut) > best_k:
            best_k, best_t, best_u = abs(ut), t, ut
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "k_stat": pa.array([best_k], pa.int64()),
            "t_star": pa.array([best_t], pa.int64()),
            "u_star": pa.array([best_u], pa.int64()),
        }
    )


SQL_PETTITT = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
r AS (SELECT d, n, row_number() OVER (ORDER BY d) AS rn,
             count(*) OVER () AS nt
      FROM c),
rk AS (SELECT rn, nt,
              2 * (rank() OVER (ORDER BY n) - 1)
                + count(*) OVER (PARTITION BY n) + 1 AS r2
       FROM r),
u AS (SELECT rn, nt,
             cast(sum(r2) OVER (ORDER BY rn) AS BIGINT)
               - rn * (nt + 1) AS ut
      FROM rk),
best AS (SELECT nt, rn, ut FROM u WHERE rn < nt
         ORDER BY abs(ut) DESC, rn ASC LIMIT 1)
SELECT cast(nt AS BIGINT) AS n_days, cast(abs(ut) AS BIGINT) AS k_stat,
       cast(rn AS BIGINT) AS t_star, cast(ut AS BIGINT) AS u_star
FROM best
"""


# =====================================================================
# ljung_box — portmanteau autocorrelation test, lags 1..7
# =====================================================================

_LB_LAGS = 7  #: weekly horizon, pinned in the SQL twin


def q_ljung_box(sf_dir: str):
    """Ljung–Box portmanteau test (Ljung & Box 1978) of the daily
    order-count series at lags 1..7: n-scaled deviations E_i = n·x_i
    − S (S = Σx) make every autocorrelation an exact bigint ratio
    r_k = Num_k/Den with Num_k = Σ E_i·E_{i+k} and Den = Σ E_i² (the
    n² factors cancel), and Q = n(n+2)·Σ_k r_k²/(n−k) is the ONE
    mirrored fixed-order chain (k = 1..7 left-to-right, each bigint
    cast once).  Output: one row ``(n_days, e2_sum, num_1, q_e6)``.
    Zero keyed exchange (day-census fold; O(n·7) driver sweep)."""
    from .measures import _day_census

    census = _day_census(sf_dir)
    days = sorted(census)
    xs = [census[d] for d in days]
    n = len(xs)
    s = sum(xs)
    ev = [n * x - s for x in xs]
    den = sum(e * e for e in ev)
    nums = [
        sum(ev[i] * ev[i + k] for i in range(n - k))
        for k in range(1, _LB_LAGS + 1)
    ]
    # fixed-order chain mirrored op-for-op in SQL_LJUNG_BOX
    acc = 0.0
    for k in range(1, _LB_LAGS + 1):
        r = float(nums[k - 1]) / float(den)
        acc = acc + r * r / float(n - k)
    qq = float(n * (n + 2)) * acc
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "e2_sum": pa.array([den], pa.int64()),
            "num_1": pa.array([nums[0]], pa.int64()),
            "q_e6": pa.array([_e6_signed(qq)], pa.int64()),
        }
    )


def _sql_ljung_box() -> str:
    terms = " + ".join(
        f"(SELECT nm FROM nums WHERE k = {k})::DOUBLE / den.dn::DOUBLE"
        f" * ((SELECT nm FROM nums WHERE k = {k})::DOUBLE"
        f" / den.dn::DOUBLE) / (den.n - {k})::DOUBLE"
        for k in range(1, _LB_LAGS + 1)
    )
    return f"""
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY d) AS rn,
             count(*) OVER () AS nt,
             cast(sum(n) OVER () AS BIGINT) AS s
      FROM c),
e AS (SELECT rn, cast(nt * n - s AS BIGINT) AS ev FROM r),
den AS (SELECT cast(sum(cast(ev AS HUGEINT) * ev) AS BIGINT) AS dn,
               (SELECT cast(max(nt) AS BIGINT) FROM r) AS n
        FROM e),
nums AS (SELECT b.rn - a.rn AS k,
                cast(sum(cast(a.ev AS HUGEINT) * b.ev) AS BIGINT) AS nm
         FROM e a JOIN e b ON b.rn - a.rn BETWEEN 1 AND {_LB_LAGS}
         GROUP BY 1),
q AS (SELECT den.n, den.dn,
             (SELECT nm FROM nums WHERE k = 1) AS n1,
             cast(den.n * (den.n + 2) AS DOUBLE) * ({terms}) AS qq
      FROM den)
SELECT n AS n_days, dn AS e2_sum, n1 AS num_1,
       cast(CASE WHEN qq >= 0 THEN floor(abs(qq) * 1e6 + 0.5)
                 ELSE -floor(abs(qq) * 1e6 + 0.5) END AS BIGINT) AS q_e6
FROM q
"""


SQL_LJUNG_BOX = _sql_ljung_box()


QUERIES = {
    "mood_median": q_mood_median,
    "mcnemar_test": q_mcnemar_test,
    "cox_stuart": q_cox_stuart,
    "jonckheere_trend": q_jonckheere_trend,
    "bartlett_test": q_bartlett_test,
    "wilcoxon_signed": q_wilcoxon_signed,
    "pettitt_test": q_pettitt_test,
    "ljung_box": q_ljung_box,
}

ORACLE_SQL = {
    "mood_median": SQL_MOOD_MEDIAN,
    "mcnemar_test": SQL_MCNEMAR,
    "cox_stuart": SQL_COX_STUART,
    "jonckheere_trend": SQL_JONCKHEERE,
    "bartlett_test": SQL_BARTLETT,
    "wilcoxon_signed": SQL_WILCOXON,
    "pettitt_test": SQL_PETTITT,
    "ljung_box": SQL_LJUNG_BOX,
}
