"""Round-3 continuation #21: nonparametric statistics III — the
goodness-of-fit / independence / blocked-binary / robust-location
companions of the hypotests/hypotests2 family, each exact-integer
until (at most) one mirrored double division.

- ``cramer_vonmises``  Two-sample Cramér–von Mises (Anderson 1962) of
                       quantity A-vs-R: with DOUBLED mid-ranks the
                       rank-deviation sum 4U = n·Σ(r′−2i)² +
                       m·Σ(s′−2j)² is an exact bigint (per-cell
                       closed-form Σ(c−2i)² over consecutive
                       within-group positions), T one mirrored chain.
- ``hoeffding_d``      Hoeffding's D independence statistic (Hoeffding
                       1948; Hollander–Wolfe computational form) over
                       the bounded (quantity, discount) census —
                       doubled marginal mid-ranks 2R, 2S and
                       QUADRUPLED bivariate ranks 4Q make the three
                       D-sums exact 16-scaled bigints; one mirrored
                       HUGEINT division read out at e9.
- ``cochran_q``        Cochran's Q (Cochran 1950) of whether THREE
                       deterministic document quality predictors mark
                       the same share of documents, blocking by
                       document: Q = 2·Σ(3C_j−T)² / (3·(3T−ΣR²)) is a
                       PURE integer rational from the 8-cell pattern
                       census (no double anywhere) — the k = 3
                       generalization of ``mcnemar_test`` (contrast:
                       McNemar is the k = 2 marginal table with the
                       Edwards correction; Q is the blocked
                       row-sum/column-sum identity, uncorrected).
- ``hodges_lehmann``   Hodges–Lehmann pseudo-median (1963) of the
                       daily order-count series: the median of all
                       n(n+1)/2 Walsh averages (x_i+x_j)/2, i ≤ j —
                       4·HL is an exact integer via the Walsh-SUM
                       census (≤ |values|² cells) and the ``_med2``
                       mid-pair rule; NO double at all.

Exactness strategy: identical to hypotests2 — bounded/day-bounded
censuses folded exactly in integers on the driver, statistics read out
pure-integer (cochran_q, hodges_lehmann) or as ONE fixed-order double
chain over bigints each cast once per engine.

Scale shapes: all map-only passes with constant-size partials; the
driver finish is O(cells) / O(cells²) over bounded domains (≤ 50×11
value grids, 8 predictor patterns, ≤ |distinct daily counts|² Walsh
cells).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read
from .hypotests import _e6_signed, _flag_qty_census

_US_PER_DAY = 86_400_000_000


def _ols_e6(p: int, d: int) -> int:
    """Lazy proxy for patterns._ols_e6 (shared half-away e6 integer
    division) — lazy for the worker-unpickle circular-import reason
    documented in measures.py."""
    from .patterns import _ols_e6 as _f

    return _f(p, d)


# =====================================================================
# cramer_vonmises — two-sample CvM over the returnflag census
# =====================================================================


def _sq_dev_sum(c: int, lo: int, hi: int) -> int:
    """Σ_{i=lo..hi} (c − 2i)² in closed form (exact ints): the
    within-group consecutive positions of a census cell all share the
    same doubled pooled mid-rank c."""
    t = hi - lo + 1
    si = (lo + hi) * t // 2
    h = lambda n: n * (n + 1) * (2 * n + 1) // 6  # noqa: E731
    si2 = h(hi) - h(lo - 1)
    return t * c * c - 4 * c * si + 4 * si2


def q_cramer_vonmises(sf_dir: str):
    """Two-sample Cramér–von Mises test (Anderson 1962, rank form) of
    whether A-flag and R-flag l_quantity share a distribution:
    with pooled DOUBLED mid-ranks r′ (the ``_rank2`` rule) and
    within-sample positions i (resp. j), the rank-deviation sum

        4U = n·Σ_{i}(r′_i − 2i)² + m·Σ_{j}(s′_j − 2j)²

    is an exact bigint — each census cell contributes the closed-form
    Σ(c − 2i)² over its consecutive within-group positions — and
    T = 4U/(4·N·m·n) − (4mn − 1)/(6N) is the ONE mirrored chain
    (each bigint cast once; 4U needs HUGEINT in the twin and is NOT
    emitted — it crosses int64 already at sf0.1).  Output: one row
    ``(n_a, n_r, t_e6)``.  Zero keyed exchange (census fold shared
    with anova_f)."""
    from .measures import _rank2

    cells = _flag_qty_census(sf_dir)
    ga: dict[int, int] = {}
    gr: dict[int, int] = {}
    for (f, x), m in cells.items():
        if f == "A":
            ga[x] = ga.get(x, 0) + m
        elif f == "R":
            gr[x] = gr.get(x, 0) + m
    pooled: dict[int, int] = {}
    for d in (ga, gr):
        for v, m in d.items():
            pooled[v] = pooled.get(v, 0) + m
    r2 = _rank2(pooled)
    n = sum(ga.values())
    m = sum(gr.values())
    u4 = 0
    for grp, w in ((ga, n), (gr, m)):
        cum = 0
        for v in sorted(grp):
            cnt = grp[v]
            u4 += w * _sq_dev_sum(r2[v], cum + 1, cum + cnt)
            cum += cnt
    nt = n + m
    # fixed-order chain mirrored op-for-op in SQL_CRAMER_VONMISES
    t_stat = float(u4) / (4.0 * float(nt) * float(m) * float(n)) - (
        4.0 * float(m) * float(n) - 1.0
    ) / (6.0 * float(nt))
    return pa.table(
        {
            "n_a": pa.array([n], pa.int64()),
            "n_r": pa.array([m], pa.int64()),
            "t_e6": pa.array([_e6_signed(t_stat)], pa.int64()),
        }
    )


SQL_CRAMER_VONMISES = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem WHERE l_returnflag IN ('A', 'R') GROUP BY 1, 2),
marg AS (SELECT x, cast(sum(m) AS BIGINT) AS mm FROM c GROUP BY x),
rk AS (SELECT x,
              2 * (cast(sum(mm) OVER (ORDER BY x) AS BIGINT) - mm) + mm + 1
                AS r2
       FROM marg),
pos AS (SELECT c.f, c.x, c.m, rk.r2,
               cast(sum(c.m) OVER (PARTITION BY c.f ORDER BY c.x)
                    AS BIGINT) - c.m AS lo0
        FROM c JOIN rk USING (x)),
dev AS (SELECT f,
  cast(sum(
    cast(m AS HUGEINT) * r2 * r2
    - 4 * cast(r2 AS HUGEINT)
        * ((lo0 + 1 + lo0 + m) * m // 2)
    + 4 * (cast(lo0 + m AS HUGEINT) * (lo0 + m + 1) * (2 * (lo0 + m) + 1)
             // 6
           - cast(lo0 AS HUGEINT) * (lo0 + 1) * (2 * lo0 + 1) // 6)
  ) AS HUGEINT) AS sq
  FROM pos GROUP BY f),
sz AS (SELECT
  (SELECT cast(sum(m) AS BIGINT) FROM c WHERE f = 'A') AS n,
  (SELECT cast(sum(m) AS BIGINT) FROM c WHERE f = 'R') AS m),
u AS (SELECT sz.n, sz.m,
             (SELECT sq FROM dev WHERE f = 'A') * sz.n
               + (SELECT sq FROM dev WHERE f = 'R') * sz.m AS u4
      FROM sz),
z AS (SELECT n, m, u4,
             u4::DOUBLE / (4.0 * (n + m)::DOUBLE * m::DOUBLE * n::DOUBLE)
               - (4.0 * m::DOUBLE * n::DOUBLE - 1.0)
                 / (6.0 * (n + m)::DOUBLE) AS tt
      FROM u)
SELECT n AS n_a, m AS n_r,
       cast(CASE WHEN tt >= 0 THEN floor(abs(tt) * 1e6 + 0.5)
                 ELSE -floor(abs(tt) * 1e6 + 0.5) END AS BIGINT) AS t_e6
FROM z
"""


# =====================================================================
# hoeffding_d — nonparametric independence over the value-pair census
# =====================================================================


def q_hoeffding_d(sf_dir: str):
    """Hoeffding's D test of independence (Hoeffding 1948) between
    l_quantity and discount_pct, in the Hollander–Wolfe computational
    form over the bounded ≤ 50 × 11 value-pair census: with doubled
    marginal mid-ranks 2R, 2S and QUADRUPLED bivariate mid-ranks
    4Q_i = 3 + Σ_cells m'·w_x·w_y (w = 2 if strictly less, 1 if
    equal, 0 else — the self term cancels the ½·½ tie weight), the
    three sums

        16·D1 = Σ m·(4Q−4)(4Q−8)
        16·D2 = Σ m·(2R−2)(2R−4)(2S−2)(2S−4)
        16·D3 = Σ m·(2R−4)(2S−4)(4Q−4)

    are exact bigints from an O(cells²) driver sweep, and
    D = 30·[(n−2)(n−3)·D1′ + D2′ − 2(n−2)·D3′] / (16·n(n−1)(n−2)(n−3)(n−4))
    is ONE mirrored HUGEINT division read out at e9 (D is tiny under
    independence; e6 would lose it; the interior sums stay Python
    bigints / HUGEINTs and are NOT emitted — d1_16 alone crosses
    int64 just past sf0.1).  Output: one row ``(n_rows, d_e9)``.
    Zero keyed exchange (census fold shared with kendall_tau /
    spearman_rho)."""
    from .measures import _census_cells, _rank2

    cells = _census_cells(sf_dir)
    mx: dict[int, int] = {}
    my: dict[int, int] = {}
    for (x, y), m in cells.items():
        mx[x] = mx.get(x, 0) + m
        my[y] = my.get(y, 0) + m
    rx, ry = _rank2(mx), _rank2(my)
    n = sum(cells.values())
    items = sorted(cells.items())
    d1_16 = d2_16 = d3_16 = 0
    for (x, y), m in items:
        q4 = 3
        for (x2, y2), m2 in items:
            wx = 2 if x2 < x else (1 if x2 == x else 0)
            if wx == 0:
                continue
            wy = 2 if y2 < y else (1 if y2 == y else 0)
            q4 += m2 * wx * wy
        r2v, s2v = rx[x], ry[y]
        d1_16 += m * (q4 - 4) * (q4 - 8)
        d2_16 += m * (r2v - 2) * (r2v - 4) * (s2v - 2) * (s2v - 4)
        d3_16 += m * (r2v - 4) * (s2v - 4) * (q4 - 4)
    num = 30 * ((n - 2) * (n - 3) * d1_16 + d2_16 - 2 * (n - 2) * d3_16)
    den = 16 * n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
    # one mirrored division over bigints each cast once (SQL twin)
    d_stat = float(num) / float(den)
    d_e9 = int(np.floor(abs(d_stat) * 1e9 + 0.5)) * (1 if d_stat >= 0 else -1)
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "d_e9": pa.array([d_e9], pa.int64()),
        }
    )


SQL_HOEFFDING = """
WITH c AS (
  SELECT cast(round(l_quantity) AS BIGINT) AS x,
         cast(round(l_discount * 100) AS BIGINT) AS y,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem GROUP BY 1, 2),
mx AS (SELECT x, cast(sum(m) AS BIGINT) AS mm FROM c GROUP BY x),
my AS (SELECT y, cast(sum(m) AS BIGINT) AS mm FROM c GROUP BY y),
rx AS (SELECT x,
              2 * (cast(sum(mm) OVER (ORDER BY x) AS BIGINT) - mm) + mm + 1
                AS r2
       FROM mx),
ry AS (SELECT y,
              2 * (cast(sum(mm) OVER (ORDER BY y) AS BIGINT) - mm) + mm + 1
                AS s2
       FROM my),
q AS (SELECT a.x, a.y, a.m,
             3 + cast(coalesce(sum(
                 b.m * (CASE WHEN b.x < a.x THEN 2
                             WHEN b.x = a.x THEN 1 ELSE 0 END)
                     * (CASE WHEN b.y < a.y THEN 2
                             WHEN b.y = a.y THEN 1 ELSE 0 END)), 0)
                 AS BIGINT) AS q4
      FROM c a LEFT JOIN c b
        ON b.x <= a.x AND b.y <= a.y
      GROUP BY a.x, a.y, a.m),
s AS (SELECT
  cast(sum(cast(q.m AS HUGEINT) * (q4 - 4) * (q4 - 8)) AS HUGEINT) AS d1,
  cast(sum(cast(q.m AS HUGEINT) * (rx.r2 - 2) * (rx.r2 - 4)
           * (ry.s2 - 2) * (ry.s2 - 4)) AS HUGEINT) AS d2,
  cast(sum(cast(q.m AS HUGEINT) * (rx.r2 - 4) * (ry.s2 - 4) * (q4 - 4))
       AS HUGEINT) AS d3,
  cast(sum(q.m) AS BIGINT) AS n
  FROM q JOIN rx USING (x) JOIN ry USING (y)),
f AS (SELECT n,
             30 * (cast(n - 2 AS HUGEINT) * (n - 3) * d1 + d2
                   - 2 * cast(n - 2 AS HUGEINT) * d3) AS num,
             16 * cast(n AS HUGEINT) * (n - 1) * (n - 2) * (n - 3)
                * (n - 4) AS den
      FROM s),
z AS (SELECT n, num::DOUBLE / den::DOUBLE AS dd FROM f)
SELECT n AS n_rows,
       cast(CASE WHEN dd >= 0 THEN floor(abs(dd) * 1e9 + 0.5)
                 ELSE -floor(abs(dd) * 1e9 + 0.5) END AS BIGINT) AS d_e9
FROM z
"""


# =====================================================================
# cochran_q — blocked binary k = 3 treatment homogeneity
# =====================================================================

_CQ_LEN = 300  #: predictor A: char length ≥ 300 (mcnemar's A)
_CQ_SPACES = 55  #: predictor B: space count ≥ 55 (mcnemar's B)
_CQ_A = 25  #: predictor C: ≥ 25 'a' characters (median 'a'-count)


def q_cochran_q(sf_dir: str):
    """Cochran's Q test (Cochran 1950) of whether THREE deterministic
    document quality predictors — A: length ≥ 300, B: spaces ≥ 55,
    C: 'a'-count ≥ 25 — mark the same share of documents, blocking by
    document.  From the 8-cell (a, b, c)-pattern census: column sums
    C_j, T = ΣC_j, ΣR² = Σ_docs (a+b+c)², and

        Q = 2·Σ_j (3·C_j − T)² / (3·(3T − ΣR²))

    is a PURE integer rational (the k = 3 specialization of
    k(k−1)Σ(C_j − T/k)²/(kT − ΣR²); no double anywhere), read out via
    the shared half-away e6 division.  Contrast ``mcnemar_test``: the
    k = 2 marginal-table form with the Edwards correction; Q is the
    uncorrected blocked row/column identity.  Output: one row
    ``(n_docs, c_a, c_b, c_c, q_e6)``.  Zero keyed exchange (8-cell
    census fold)."""
    ds = _read(sf_dir, "documents", ["text"])

    def _partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column("text"), "")
        ln = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
        sp = pc.count_substring(txt, " ").to_numpy(zero_copy_only=False)
        dt = pc.count_substring(txt, "a").to_numpy(zero_copy_only=False)
        code = (
            (ln >= _CQ_LEN).astype(np.int64) * 4
            + (sp >= _CQ_SPACES).astype(np.int64) * 2
            + (dt >= _CQ_A).astype(np.int64)
        )
        g = pd.Series(code).value_counts()
        return pa.table(
            {
                "pat": pa.array(g.index.to_numpy(np.int64)),
                "n": pa.array(g.to_numpy(np.int64)),
            }
        )

    census: dict[int, int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for p, m in zip(t.column("pat").to_pylist(), t.column("n").to_pylist()):
            census[int(p)] = census.get(int(p), 0) + int(m)
    n_docs = sum(census.values())
    ca = sum(m for p, m in census.items() if p & 4)
    cb = sum(m for p, m in census.items() if p & 2)
    cc = sum(m for p, m in census.items() if p & 1)
    t_tot = ca + cb + cc
    r2sum = sum(
        m * (bin(p).count("1")) ** 2 for p, m in census.items()
    )
    num = 2 * sum((3 * cj - t_tot) ** 2 for cj in (ca, cb, cc))
    den = 3 * (3 * t_tot - r2sum)
    q_e6 = _ols_e6(num, den) if den > 0 else 0
    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "c_a": pa.array([ca], pa.int64()),
            "c_b": pa.array([cb], pa.int64()),
            "c_c": pa.array([cc], pa.int64()),
            "q_e6": pa.array([q_e6], pa.int64()),
        }
    )


SQL_COCHRAN_Q = """
WITH f AS (
  SELECT CASE WHEN length(coalesce(text, '')) >= 300 THEN 1 ELSE 0 END
           AS a,
         CASE WHEN (length(coalesce(text, ''))
                    - length(replace(coalesce(text, ''), ' ', ''))) >= 55
              THEN 1 ELSE 0 END AS b,
         CASE WHEN (length(coalesce(text, ''))
                    - length(replace(coalesce(text, ''), 'a', ''))) >= 25
              THEN 1 ELSE 0 END AS c
  FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n,
             cast(sum(a) AS BIGINT) AS ca,
             cast(sum(b) AS BIGINT) AS cb,
             cast(sum(c) AS BIGINT) AS cc,
             cast(sum((a + b + c) * (a + b + c)) AS BIGINT) AS r2
      FROM f),
q AS (SELECT n, ca, cb, cc,
             2 * ((3 * ca - (ca + cb + cc)) * (3 * ca - (ca + cb + cc))
                  + (3 * cb - (ca + cb + cc)) * (3 * cb - (ca + cb + cc))
                  + (3 * cc - (ca + cb + cc)) * (3 * cc - (ca + cb + cc)))
               AS num,
             3 * (3 * (ca + cb + cc) - r2) AS den
      FROM p)
SELECT n AS n_docs, ca AS c_a, cb AS c_b, cc AS c_c,
       CASE WHEN den <= 0 THEN 0
            ELSE cast((2000000 * cast(num AS HUGEINT) + den)
                      // (2 * cast(den AS HUGEINT)) AS BIGINT)
       END AS q_e6
FROM q
"""


# =====================================================================
# hodges_lehmann — pseudo-median of the daily series (pure integer)
# =====================================================================


def q_hodges_lehmann(sf_dir: str):
    """Hodges–Lehmann pseudo-median (Hodges & Lehmann 1963) of the
    daily order-count series: the median of all n(n+1)/2 Walsh
    averages (x_i + x_j)/2 over i ≤ j.  Over the bounded value census
    the Walsh-SUM multiset has ≤ |values|² cells — pair (u < v)
    contributes c_u·c_v copies of u+v, u = v contributes
    c_u(c_u+1)/2 — and 4·HL = 2·median(w) is an exact integer via the
    ``_med2`` mid-pair rule.  NO double anywhere.  Output: one row
    ``(n_days, n_walsh, hl4)``.  Zero keyed exchange (day-census
    fold; O(values²) driver sweep)."""
    from .measures import _day_census
    from .hypotests import _med2

    census = _day_census(sf_dir)
    vals: dict[int, int] = {}
    for x in census.values():
        vals[x] = vals.get(x, 0) + 1
    walsh: dict[int, int] = {}
    items = sorted(vals.items())
    for i, (u, cu) in enumerate(items):
        walsh[2 * u] = walsh.get(2 * u, 0) + cu * (cu + 1) // 2
        for v, cv in items[i + 1:]:
            walsh[u + v] = walsh.get(u + v, 0) + cu * cv
    n = sum(vals.values())
    nw = sum(walsh.values())
    hl4 = _med2(walsh)
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "n_walsh": pa.array([nw], pa.int64()),
            "hl4": pa.array([hl4], pa.int64()),
        }
    )


SQL_HODGES_LEHMANN = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
v AS (SELECT n AS x, cast(count(*) AS BIGINT) AS cnt FROM c GROUP BY n),
w AS (
  SELECT a.x + b.x AS ws,
         cast(sum(CASE WHEN a.x = b.x THEN a.cnt * (a.cnt + 1) // 2
                       ELSE a.cnt * b.cnt END) AS BIGINT) AS m
  FROM v a JOIN v b ON a.x <= b.x
  GROUP BY 1),
cum AS (SELECT ws, cast(sum(m) OVER (ORDER BY ws) AS BIGINT) AS cm,
               cast(sum(m) OVER () AS BIGINT) AS nw
        FROM w),
med AS (SELECT max(nw) AS nw,
               min(CASE WHEN cm >= (nw + 1) // 2 THEN ws END)
                 + min(CASE WHEN cm >= nw // 2 + 1 THEN ws END) AS hl4
        FROM cum)
SELECT (SELECT cast(count(*) AS BIGINT) FROM c) AS n_days,
       nw AS n_walsh, cast(hl4 AS BIGINT) AS hl4
FROM med
"""


# =====================================================================
# mood_scale — rank-based two-sample dispersion test
# =====================================================================


def q_mood_scale(sf_dir: str):
    """Mood's scale test (Mood 1954) of whether A-flag and R-flag
    l_quantity differ in DISPERSION: with pooled doubled mid-ranks
    r′, the 4-scaled scores a′ = (r′ − N − 1)² make W4 = Σ_A a′ an
    exact bigint, and the exact finite-population moments under H0
    (sampling m of N scores without replacement) are

        E[W4] = m·T4/N,   T4 = Σ_all a′,   T8 = Σ_all a′²
        Var[W4] = m·n·(N·T8 − T4²) / (N²(N−1))

    so z = (N·W4 − m·T4) / √(m·n·(N·T8 − T4²)/(N−1)) is the ONE
    mirrored chain over exact bigints (T8 needs HUGEINT; the N scale
    of the numerator cancels the N² in the variance).  This is the
    tie-exact form — no tie-correction lookup table, the mid-rank
    scores themselves carry the ties.  Contrast ``levene_test`` /
    ``bartlett_test`` (moment-based dispersion) and ``mood_median``
    (the same author's LOCATION test).  Output: one row ``(n_a, n_r,
    w4_stat, z_e6)``.  Zero keyed exchange (census fold shared with
    anova_f)."""
    from .measures import _rank2

    cells = _flag_qty_census(sf_dir)
    ga: dict[int, int] = {}
    gr: dict[int, int] = {}
    for (f, x), m in cells.items():
        if f == "A":
            ga[x] = ga.get(x, 0) + m
        elif f == "R":
            gr[x] = gr.get(x, 0) + m
    pooled: dict[int, int] = {}
    for d in (ga, gr):
        for v, m in d.items():
            pooled[v] = pooled.get(v, 0) + m
    r2 = _rank2(pooled)
    m_a = sum(ga.values())
    n_r = sum(gr.values())
    nt = m_a + n_r
    w4 = sum(c * (r2[v] - nt - 1) ** 2 for v, c in ga.items())
    t4 = sum(c * (r2[v] - nt - 1) ** 2 for v, c in pooled.items())
    t8 = sum(c * (r2[v] - nt - 1) ** 4 for v, c in pooled.items())
    num = nt * w4 - m_a * t4
    # fixed-order chain mirrored op-for-op in SQL_MOOD_SCALE
    z = float(num) / math.sqrt(
        float(m_a) * float(n_r) * float(nt * t8 - t4 * t4) / float(nt - 1)
    )
    return pa.table(
        {
            "n_a": pa.array([m_a], pa.int64()),
            "n_r": pa.array([n_r], pa.int64()),
            "w4_stat": pa.array([w4], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


def q_ansari_bradley(sf_dir: str):
    """Ansari–Bradley scale test (Ansari & Bradley 1960) on the same
    A-flag vs R-flag l_quantity framing as ``mood_scale`` — the OTHER
    classical rank dispersion test (linear folded scores
    min(rank, N+1−rank) vs Mood's squared deviations), with a
    different sensitivity profile near the center of the pooled
    sample; shipping both mirrors the standard stats-package pairing
    (scipy has ``ansari`` and ``mood`` side by side).

    Tie-exact via doubled mid-ranks r′ (the ``mood_scale`` device):
    doubled scores s′ = min(r′, 2(N+1) − r′) are exact ints, and
    with W2 = Σ_A s′, T1 = Σ_all s′, T2 = Σ_all s′² the exact
    finite-population H0 moments give the ONE mirrored chain

        z = (N·W2 − m·T1) / √(m·n·(N·T2 − T1²)/(N−1))

    (the doubling cancels identically between numerator and √Var, so
    z equals the single-rank form).  Output: one row
    ``(n_a, n_r, w2_stat, z_e6)``.  Zero keyed exchange — the same
    shared census fold as mood_scale/anova_f."""
    from .measures import _rank2

    cells = _flag_qty_census(sf_dir)
    ga: dict[int, int] = {}
    pooled: dict[int, int] = {}
    for (f, x), m in cells.items():
        if f == "A":
            ga[x] = ga.get(x, 0) + m
        if f in ("A", "R"):
            pooled[x] = pooled.get(x, 0) + m
    r2 = _rank2(pooled)
    nt = sum(pooled.values())
    m_a = sum(ga.values())
    n_r = nt - m_a

    def s2(v: int) -> int:
        return min(r2[v], 2 * (nt + 1) - r2[v])

    w2 = sum(c * s2(v) for v, c in ga.items())
    t1 = sum(c * s2(v) for v, c in pooled.items())
    t2 = sum(c * s2(v) ** 2 for v, c in pooled.items())
    num = nt * w2 - m_a * t1
    # fixed-order chain mirrored op-for-op in SQL_ANSARI_BRADLEY
    z = float(num) / math.sqrt(
        float(m_a) * float(n_r) * float(nt * t2 - t1 * t1) / float(nt - 1)
    )
    return pa.table(
        {
            "n_a": pa.array([m_a], pa.int64()),
            "n_r": pa.array([n_r], pa.int64()),
            "w2_stat": pa.array([w2], pa.int64()),
            "z_e6": pa.array([_e6_signed(z)], pa.int64()),
        }
    )


SQL_ANSARI_BRADLEY = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem WHERE l_returnflag IN ('A', 'R') GROUP BY 1, 2),
marg AS (SELECT x, cast(sum(m) AS BIGINT) AS mm FROM c GROUP BY x),
nn AS (SELECT cast(sum(mm) AS BIGINT) AS nt FROM marg),
rk AS (SELECT x,
              2 * (cast(sum(mm) OVER (ORDER BY x) AS BIGINT) - mm) + mm + 1
                AS r2,
              mm
       FROM marg),
sc AS (SELECT rk.x, rk.mm,
              cast(least(rk.r2, 2 * (nn.nt + 1) - rk.r2) AS HUGEINT) AS s2
       FROM rk, nn),
tots AS (SELECT cast(sum(mm * s2) AS HUGEINT) AS t1,
                cast(sum(mm * s2 * s2) AS HUGEINT) AS t2
         FROM sc),
w AS (SELECT cast(sum(c.m * sc.s2) AS HUGEINT) AS w2,
             cast(sum(c.m) AS BIGINT) AS ma
      FROM c JOIN sc ON sc.x = c.x WHERE c.f = 'A'),
z AS (SELECT w.ma, nn.nt - w.ma AS nr, w.w2,
             (nn.nt * w.w2 - w.ma * tots.t1)::DOUBLE
               / sqrt(w.ma::DOUBLE * (nn.nt - w.ma)::DOUBLE
                      * (nn.nt * tots.t2 - tots.t1 * tots.t1)::DOUBLE
                      / (nn.nt - 1)::DOUBLE) AS zz
      FROM w, nn, tots)
SELECT ma AS n_a, cast(nr AS BIGINT) AS n_r, cast(w2 AS BIGINT) AS w2_stat,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


SQL_MOOD_SCALE = """
WITH c AS (
  SELECT l_returnflag AS f, cast(round(l_quantity) AS BIGINT) AS x,
         cast(count(*) AS BIGINT) AS m
  FROM lineitem WHERE l_returnflag IN ('A', 'R') GROUP BY 1, 2),
marg AS (SELECT x, cast(sum(m) AS BIGINT) AS mm FROM c GROUP BY x),
nn AS (SELECT cast(sum(mm) AS BIGINT) AS nt FROM marg),
rk AS (SELECT x,
              2 * (cast(sum(mm) OVER (ORDER BY x) AS BIGINT) - mm) + mm + 1
                AS r2,
              mm
       FROM marg),
sc AS (SELECT rk.x, rk.mm,
              cast(rk.r2 - nn.nt - 1 AS HUGEINT)
                * (rk.r2 - nn.nt - 1) AS a4
       FROM rk, nn),
tots AS (SELECT cast(sum(mm * a4) AS HUGEINT) AS t4,
                cast(sum(mm * a4 * a4) AS HUGEINT) AS t8
         FROM sc),
w AS (SELECT cast(sum(c.m * sc.a4) AS HUGEINT) AS w4,
             cast(sum(c.m) AS BIGINT) AS ma
      FROM c JOIN sc ON sc.x = c.x WHERE c.f = 'A'),
z AS (SELECT w.ma, nn.nt - w.ma AS nr, w.w4,
             (nn.nt * w.w4 - w.ma * tots.t4)::DOUBLE
               / sqrt(w.ma::DOUBLE * (nn.nt - w.ma)::DOUBLE
                      * (nn.nt * tots.t8 - tots.t4 * tots.t4)::DOUBLE
                      / (nn.nt - 1)::DOUBLE) AS zz
      FROM w, nn, tots)
SELECT ma AS n_a, cast(nr AS BIGINT) AS n_r, cast(w4 AS BIGINT) AS w4_stat,
       cast(CASE WHEN zz >= 0 THEN floor(abs(zz) * 1e6 + 0.5)
                 ELSE -floor(abs(zz) * 1e6 + 0.5) END AS BIGINT) AS z_e6
FROM z
"""


# =====================================================================
# hurst_rs — rescaled-range Hurst exponent of the daily series
# =====================================================================

_HURST_SIZES = (8, 16, 32, 64)  #: dyadic block sizes, log2 = 3..6


def q_hurst_rs(sf_dir: str):
    """Rescaled-range Hurst exponent (Hurst 1951; Mandelbrot & Wallis
    1969) of the daily order-count series.  For each dyadic block
    size s ∈ {8, 16, 32, 64}: partition the day-ordered series into
    ⌊n/s⌋ blocks; per block the s-scaled deviations E_i = s·x_i − S_b
    make the cumulative-deviate range R_int = max(D) − min(D) and
    ΣE² exact ints, and R/S = R_int/√(ΣE²/s); each block's ratio is
    e6-quantized BEFORE the per-size sum (the ``avg_precision``
    order-independence rule; zero-variance blocks are skipped on both
    engines).  y_s = log2(Σq/(kept·10⁶)) is one mirrored chain per
    size, e6-quantized, and the Hurst slope over t = log2 s ∈
    {3,4,5,6} is the PURE integer H_e6 = Σ(2t−9)·y_e6 / 10
    (Σ(t−t̄)² = 5, half-away).  Output: one row ``(n_days, y8_e6,
    y16_e6, y32_e6, y64_e6, h_e6)``.  Zero keyed exchange
    (day-census fold; O(n) driver ladder — the haar_energy shape)."""
    from .measures import _day_census

    census = _day_census(sf_dir)
    days = sorted(census)
    xs = [census[d] for d in days]
    n = len(xs)
    ys = []
    for s in _HURST_SIZES:
        nb = n // s
        total_e6 = 0
        kept = 0
        for b in range(nb):
            blk = xs[b * s:(b + 1) * s]
            sb = sum(blk)
            ev = [s * x - sb for x in blk]
            e2 = sum(e * e for e in ev)
            if e2 == 0:
                continue
            cum = 0
            mx = -(10**30)
            mn = 10**30
            for e in ev:
                cum += e
                if cum > mx:
                    mx = cum
                if cum < mn:
                    mn = cum
            ratio = float(mx - mn) / math.sqrt(float(e2) / float(s))
            total_e6 += _e6_signed(ratio)
            kept += 1
        if kept == 0:
            ys.append(0)
        else:
            y = math.log2(float(total_e6) / float(kept * 1_000_000))
            ys.append(_e6_signed(y))
    num = sum((2 * t - 9) * y for t, y in zip((3, 4, 5, 6), ys))
    h_e6 = (
        (2 * num + 10) // 20 if num >= 0 else -((2 * (-num) + 10) // 20)
    )
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "y8_e6": pa.array([ys[0]], pa.int64()),
            "y16_e6": pa.array([ys[1]], pa.int64()),
            "y32_e6": pa.array([ys[2]], pa.int64()),
            "y64_e6": pa.array([ys[3]], pa.int64()),
            "h_e6": pa.array([h_e6], pa.int64()),
        }
    )


SQL_HURST = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY d) - 1 AS rn,
             count(*) OVER () AS nt
      FROM c),
blk AS (SELECT s.s, r.rn // s.s AS b, r.rn % s.s AS i, r.n
        FROM r, (SELECT unnest([8, 16, 32, 64]) AS s) s
        WHERE r.rn < (r.nt // s.s) * s.s),
bs AS (SELECT s, b, cast(sum(n) AS BIGINT) AS sb FROM blk GROUP BY s, b),
e AS (SELECT blk.s, blk.b, blk.i,
             cast(blk.s * blk.n - bs.sb AS BIGINT) AS ev
      FROM blk JOIN bs USING (s, b)),
cd AS (SELECT s, b, ev,
              cast(sum(ev) OVER (PARTITION BY s, b ORDER BY i)
                   AS BIGINT) AS cum
       FROM e),
agg AS (SELECT s, b,
               max(cum) - min(cum) AS r_int,
               cast(sum(cast(ev AS HUGEINT) * ev) AS BIGINT) AS e2
        FROM cd GROUP BY s, b),
q AS (SELECT s,
             CASE WHEN e2 = 0 THEN NULL
                  ELSE cast(floor(abs(r_int::DOUBLE
                                      / sqrt(e2::DOUBLE / s::DOUBLE))
                                  * 1e6 + 0.5) AS BIGINT)
             END AS rs_e6
      FROM agg),
ys AS (SELECT s, cast(coalesce(sum(rs_e6), 0) AS BIGINT) AS tot,
              cast(count(rs_e6) AS BIGINT) AS kept
       FROM q GROUP BY s),
yv AS (SELECT s,
              CASE WHEN kept = 0 THEN 0
                   ELSE cast(CASE
                     WHEN log2(tot::DOUBLE / (kept * 1000000)::DOUBLE) >= 0
                     THEN floor(abs(log2(tot::DOUBLE
                                         / (kept * 1000000)::DOUBLE))
                                * 1e6 + 0.5)
                     ELSE -floor(abs(log2(tot::DOUBLE
                                          / (kept * 1000000)::DOUBLE))
                                 * 1e6 + 0.5)
                   END AS BIGINT)
              END AS y_e6
       FROM ys),
sl AS (SELECT cast(sum((2 * (CASE s WHEN 8 THEN 3 WHEN 16 THEN 4
                                    WHEN 32 THEN 5 ELSE 6 END) - 9)
                       * y_e6) AS BIGINT) AS num
       FROM yv)
SELECT (SELECT cast(max(nt) AS BIGINT) FROM r) AS n_days,
       (SELECT y_e6 FROM yv WHERE s = 8) AS y8_e6,
       (SELECT y_e6 FROM yv WHERE s = 16) AS y16_e6,
       (SELECT y_e6 FROM yv WHERE s = 32) AS y32_e6,
       (SELECT y_e6 FROM yv WHERE s = 64) AS y64_e6,
       cast(CASE WHEN num >= 0 THEN (2 * num + 10) // 20
                 ELSE -((2 * (-num) + 10) // 20) END AS BIGINT) AS h_e6
FROM sl
"""


# =====================================================================
# sample_entropy — series regularity (Richman & Moorman 2000)
# =====================================================================

_SE_M = 2  #: template length m (A uses m+1), pinned in the SQL twin


def q_sample_entropy(sf_dir: str):
    """Sample entropy (Richman & Moorman 2000) of the daily
    order-count series at m = 2: with the integer tolerance r =
    max(1, (q3 − q1)/4) from EXACT census quartiles (positions
    ⌈n/4⌉ and ⌈3n/4⌉ in the cumulative value census), B counts pairs
    i < j ≤ n−2 of length-2 templates with integer Chebyshev distance
    ≤ r, A the same for length-3 — both PURE integer counts (one
    vectorized O(n²) driver sweep over the folded series; the
    restriction to the first n−2 templates is the Richman–Moorman
    convention that keeps A and B comparable).  SampEn = ln(B/A) is
    the one mirrored chain (−ln(A/B); pinned −1 when A = 0).
    Output: one row ``(n_days, r_tol, b_cnt, a_cnt, sampen_e6)``.
    Zero keyed exchange (day-census fold)."""
    from .measures import _day_census

    census = _day_census(sf_dir)
    days = sorted(census)
    xs = np.array([census[d] for d in days], dtype=np.int64)
    n = len(xs)
    marg: dict[int, int] = {}
    for x in xs.tolist():
        marg[x] = marg.get(x, 0) + 1
    q1 = q3 = None
    p1, p3 = (n + 3) // 4, (3 * n + 3) // 4
    cum = 0
    for v in sorted(marg):
        cum += marg[v]
        if q1 is None and cum >= p1:
            q1 = v
        if q3 is None and cum >= p3:
            q3 = v
            break
    r_tol = max(1, (q3 - q1) // 4)
    nt = n - _SE_M  # templates 0..nt-1 for both m and m+1
    d0 = np.abs(xs[:nt, None] - xs[None, :nt])
    d1 = np.abs(xs[1:nt + 1, None] - xs[None, 1:nt + 1])
    d2 = np.abs(xs[2:nt + 2, None] - xs[None, 2:nt + 2])
    iu = np.triu_indices(nt, k=1)
    chem = np.maximum(d0[iu], d1[iu])
    b_cnt = int(np.sum(chem <= r_tol))
    a_cnt = int(np.sum(np.maximum(chem, d2[iu]) <= r_tol))
    if a_cnt == 0:
        se = -1
    else:
        # one mirrored chain: -ln(A/B) = ln(B::D / A::D)
        se = _e6_signed(math.log(float(b_cnt) / float(a_cnt)))
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "r_tol": pa.array([r_tol], pa.int64()),
            "b_cnt": pa.array([b_cnt], pa.int64()),
            "a_cnt": pa.array([a_cnt], pa.int64()),
            "sampen_e6": pa.array([se], pa.int64()),
        }
    )


SQL_SAMPLE_ENTROPY = """
WITH c AS (
  SELECT datediff('day', TIMESTAMP '1970-01-01', o_orderdate) AS d,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY d) AS rn,
             count(*) OVER () AS nt
      FROM c),
marg AS (SELECT n AS v, cast(count(*) AS BIGINT) AS mm FROM c GROUP BY n),
cum AS (SELECT v, sum(mm) OVER (ORDER BY v) AS cm,
               sum(mm) OVER () AS n_all
        FROM marg),
tol AS (SELECT greatest(1,
                 (min(CASE WHEN cm >= (3 * n_all + 3) // 4 THEN v END)
                  - min(CASE WHEN cm >= (n_all + 3) // 4 THEN v END)) // 4)
               AS r_tol
        FROM cum),
t AS (SELECT a.rn, a.n AS x0, b1.n AS x1, b2.n AS x2, a.nt
      FROM r a JOIN r b1 ON b1.rn = a.rn + 1
               JOIN r b2 ON b2.rn = a.rn + 2
      WHERE a.rn <= a.nt - 2),
p AS (SELECT cast(sum(CASE WHEN greatest(abs(a.x0 - b.x0),
                                          abs(a.x1 - b.x1)) <= tol.r_tol
                           THEN 1 ELSE 0 END) AS BIGINT) AS b_cnt,
             cast(sum(CASE WHEN greatest(abs(a.x0 - b.x0),
                                          abs(a.x1 - b.x1),
                                          abs(a.x2 - b.x2)) <= tol.r_tol
                           THEN 1 ELSE 0 END) AS BIGINT) AS a_cnt
      FROM t a JOIN t b ON b.rn > a.rn, tol)
SELECT (SELECT cast(max(nt) AS BIGINT) FROM r) AS n_days,
       cast(tol.r_tol AS BIGINT) AS r_tol, p.b_cnt, p.a_cnt,
       CASE WHEN p.a_cnt = 0 THEN -1
            ELSE cast(CASE
              WHEN ln(p.b_cnt::DOUBLE / p.a_cnt::DOUBLE) >= 0
              THEN floor(abs(ln(p.b_cnt::DOUBLE / p.a_cnt::DOUBLE))
                         * 1e6 + 0.5)
              ELSE -floor(abs(ln(p.b_cnt::DOUBLE / p.a_cnt::DOUBLE))
                          * 1e6 + 0.5)
            END AS BIGINT)
       END AS sampen_e6
FROM p, tol
"""


QUERIES = {
    "cramer_vonmises": q_cramer_vonmises,
    "hoeffding_d": q_hoeffding_d,
    "cochran_q": q_cochran_q,
    "hodges_lehmann": q_hodges_lehmann,
    "mood_scale": q_mood_scale,
    "ansari_bradley": q_ansari_bradley,
    "hurst_rs": q_hurst_rs,
    "sample_entropy": q_sample_entropy,
}

ORACLE_SQL = {
    "cramer_vonmises": SQL_CRAMER_VONMISES,
    "hoeffding_d": SQL_HOEFFDING,
    "cochran_q": SQL_COCHRAN_Q,
    "hodges_lehmann": SQL_HODGES_LEHMANN,
    "mood_scale": SQL_MOOD_SCALE,
    "ansari_bradley": SQL_ANSARI_BRADLEY,
    "hurst_rs": SQL_HURST,
    "sample_entropy": SQL_SAMPLE_ENTROPY,
}
