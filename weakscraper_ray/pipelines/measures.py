"""Round-3 continuation #17: classical corpus / series / association
measures, each exact-integer until one mirrored read-out.

- ``yule_k``        Yule's characteristic K (Yule 1944), the
                    repetitiveness read-out of a training corpus'
                    word-frequency spectrum: K = 10⁴·(S₂−N)/N² with
                    N = total tokens, S₂ = Σ m_w² over per-type
                    counts.  Template-heavy / synthetic text drives K
                    up; natural prose sits low — the corpus-quality
                    cousin of ``zipf_slope``.
- ``spearman_rho``  tie-corrected Spearman rank correlation between
                    l_quantity and discount_pct — Pearson over average
                    ranks, computed from the same BOUNDED (≤ 50 × 11)
                    value-pair census as ``kendall_tau`` (doubled
                    ranks keep every sum an integer; doubling cancels
                    in the correlation).
- ``mann_kendall``  the Mann–Kendall trend test (Mann 1945, Kendall
                    1975) over the daily order-count series: exact S
                    statistic, tie-corrected 18·Var(S) as a bigint,
                    and the continuity-corrected z read-out.
- ``good_turing``   the Good–Turing frequency-of-frequencies table
                    (Good 1953): r* = (r+1)·N_{r+1}/N_r for r ≤ 10 as
                    pure integer rationals — the unseen-mass /
                    low-count re-estimation primitive under every
                    count-based LM smoother.
- ``heaps_law``     Heaps'-law vocabulary-growth exponent V(N)≈K·N^β
                    over 16 doc-id-order checkpoints via the shared
                    quantized-log OLS — the "has the vocabulary
                    saturated?" corpus-scaling audit.
- ``kendall_w``     Kendall & Babington Smith (1939) coefficient of
                    concordance treating three per-document metrics
                    as m = 3 raters — tie-corrected W as a pure
                    integer rational via doubled average ranks; the
                    "do my quality signals agree on an ordering?" /
                    judge-ensemble consistency audit.

Exactness strategy (the repo's census convention): every input is a
bounded census — vocabulary counts (Heaps-law bound), a ≤ 50×11 value
grid, ≤ #days daily totals — folded exactly in integers; the single
final expression (a division or z-score) is mirrored op-for-op against
DuckDB with the shared half-away e6 rule or one identical double
expression computed from identical integers on both engines.

Scale shapes: yule_k pays ONE keyed exchange whose payload is the
vocabulary, not the corpus (the ``oov_rate`` pass-1 discipline), then
folds three scalars; spearman_rho and mann_kendall are zero-exchange —
per-batch 2-D bincount / day-census partials fold on the driver
(the ``emd_drift`` / ``kendall_tau`` discipline), because their
aggregate domains are FIXED or day-bounded, never data-sized.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read

# NOTE: _ols_e6 must be imported LAZILY (inside functions): this
# module is imported by relational's tail, so when a Ray worker
# unpickles a class defined in patterns.py, patterns is the in-flight
# outermost import and a top-level `from .patterns import` here sees a
# partially initialized module (observed: every lexicon_scan actor
# died in a restart loop under the 4-CPU test session — the mlprep
# _WS lesson).
_US_PER_DAY = 86_400_000_000

def _ols_e6(p: int, d: int) -> int:
    """Lazy proxy for patterns._ols_e6 — see import note above."""
    from .patterns import _ols_e6 as _f

    return _f(p, d)



# =====================================================================
# yule_k — Yule's characteristic of the corpus word-frequency spectrum
# =====================================================================


def q_yule_k(sf_dir: str):
    """Yule's K over the documents corpus: one vocabulary-bounded
    ``groupby(word)`` exchange (payload = per-batch distinct terms,
    the Heaps-law bound shared with ``oov_rate``/``zipf_slope``), then
    per-block scalar partials (N, types, S₂) folded on the driver —
    the spectrum never materializes.  Output: one row
    ``(n_tokens, n_types, s2, yule_k_e6)``; K = 10⁴·(S₂−N)/N² ≥ 0 via
    the shared half-away e6 integer division, so the row is
    partitioning-independent and hash-exact."""
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["text"])

    def _vocab_partial(batch: pa.Table) -> pa.Table:
        _, toks = _explode_tokens(batch)
        t = pa.table({"w": pa.array(toks, pa.string())})
        return t.group_by("w").aggregate([("w", "count")])

    counts = (
        ds.map_batches(_vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("w_count", alias_name="m"))
    )

    def _spectrum_partial(batch: pa.Table) -> pa.Table:
        m = batch.column("m").to_numpy(zero_copy_only=False).astype(object)
        return pa.table(
            {
                "n": pa.array([int(m.sum())], pa.int64()),
                "types": pa.array([len(m)], pa.int64()),
                "s2": pa.array([int((m * m).sum())], pa.int64()),
            }
        )

    n = types = s2 = 0
    for t in counts.map_batches(
        _spectrum_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        n += sum(t.column("n").to_pylist())
        types += sum(t.column("types").to_pylist())
        s2 += sum(t.column("s2").to_pylist())
    k_e6 = _ols_e6(10_000 * (s2 - n), n * n)
    return pa.table(
        {
            "n_tokens": pa.array([n], pa.int64()),
            "n_types": pa.array([types], pa.int64()),
            "s2": pa.array([s2], pa.int64()),
            "yule_k_e6": pa.array([k_e6], pa.int64()),
        }
    )


SQL_YULE_K = r"""
WITH tk AS (
  SELECT unnest(string_split_regex(lower(text), '\s+')) AS w
  FROM documents),
c AS (SELECT w, cast(count(*) AS BIGINT) AS m FROM tk WHERE w <> ''
      GROUP BY w),
s AS (SELECT cast(sum(m) AS HUGEINT) AS n,
             cast(count(*) AS BIGINT) AS types,
             cast(sum(m * m) AS HUGEINT) AS s2
      FROM c)
SELECT cast(n AS BIGINT) AS n_tokens,
       types AS n_types,
       cast(s2 AS BIGINT) AS s2,
       cast((2000000 * (10000 * (s2 - n)) + n * n) // (2 * n * n)
            AS BIGINT) AS yule_k_e6
FROM s
"""


# =====================================================================
# chao1_richness — nonparametric vocabulary-size estimation
# =====================================================================


def q_chao1_richness(sf_dir: str):
    """Chao1 species-richness estimate (Chao 1984) of the corpus
    VOCABULARY — how many word types the corpus would reveal with
    unbounded sampling, from the observed spectrum alone: with f1 =
    hapax count and f2 = dis-legomena count, the bias-corrected form

        Chao1 = types + f1·(f1 − 1) / (2·(f2 + 1))

    is a PURE integer rational (defined even at f2 = 0), read out as
    ``chao1_e6 = 10⁶·types + e6(f1(f1−1)/(2(f2+1)))`` with the shared
    half-away division.  The coverage read-out an LLM-corpus curator
    wants beside ``yule_k`` (repetitiveness) and ``zipf_slope``
    (decay): types/Chao1 ≈ sample completeness.  Shape: the same ONE
    vocabulary-bounded exchange as ``yule_k`` (payload = per-batch
    distinct terms), then a 3-scalar spectrum fold.  Output: one row
    ``(n_types, f1, f2, chao1_e6)``."""
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["text"])

    def _vocab_partial(batch: pa.Table) -> pa.Table:
        _, toks = _explode_tokens(batch)
        t = pa.table({"w": pa.array(toks, pa.string())})
        return t.group_by("w").aggregate([("w", "count")])

    counts = (
        ds.map_batches(_vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("w_count", alias_name="m"))
    )

    def _spec(batch: pa.Table) -> pa.Table:
        m = batch.column("m").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "types": pa.array([len(m)], pa.int64()),
                "f1": pa.array([int((m == 1).sum())], pa.int64()),
                "f2": pa.array([int((m == 2).sum())], pa.int64()),
            }
        )

    types = f1 = f2 = 0
    for t in counts.map_batches(_spec, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        types += sum(t.column("types").to_pylist())
        f1 += sum(t.column("f1").to_pylist())
        f2 += sum(t.column("f2").to_pylist())
    chao1_e6 = 1_000_000 * types + _ols_e6(f1 * (f1 - 1), 2 * (f2 + 1))
    return pa.table(
        {
            "n_types": pa.array([types], pa.int64()),
            "f1": pa.array([f1], pa.int64()),
            "f2": pa.array([f2], pa.int64()),
            "chao1_e6": pa.array([chao1_e6], pa.int64()),
        }
    )


SQL_CHAO1 = r"""
WITH tk AS (
  SELECT unnest(string_split_regex(lower(text), '\s+')) AS w
  FROM documents),
c AS (SELECT w, cast(count(*) AS BIGINT) AS m FROM tk WHERE w <> ''
      GROUP BY w),
s AS (SELECT cast(count(*) AS BIGINT) AS types,
             cast(coalesce(sum(CASE WHEN m = 1 THEN 1 ELSE 0 END), 0)
                  AS BIGINT) AS f1,
             cast(coalesce(sum(CASE WHEN m = 2 THEN 1 ELSE 0 END), 0)
                  AS BIGINT) AS f2
      FROM c)
SELECT types AS n_types, f1, f2,
       1000000 * types
         + (2000000 * (f1 * (f1 - 1)) + 2 * (f2 + 1))
           // (2 * (2 * (f2 + 1))) AS chao1_e6
FROM s
"""


# =====================================================================
# spearman_rho — tie-corrected rank correlation from the value census
# =====================================================================


#: sf_dir → folded value-pair census (spearman_rho + hoeffding_d)
_CELLS_MEMO: dict[str, dict[tuple[int, int], int]] = {}


def _census_cells(sf_dir: str) -> dict[tuple[int, int], int]:
    """(quantity, discount_pct) → count census, folded on the driver —
    the bounded-grid partial shared with ``kendall_tau`` (patterns.py),
    re-derived here so neither module imports the other's privates.
    Memoized per sf_dir (immutable testdata; callers must not mutate)."""
    if sf_dir in _CELLS_MEMO:
        return _CELLS_MEMO[sf_dir]
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
    _CELLS_MEMO[sf_dir] = cells
    return cells


def _rank2(marg: dict[int, int]) -> dict[int, int]:
    """value → 2·(average mid-rank) over a marginal census; doubling
    keeps tied mid-ranks (k + (t+1)/2) integral."""
    out, cum = {}, 0
    for v in sorted(marg):
        out[v] = 2 * cum + marg[v] + 1
        cum += marg[v]
    return out


def q_spearman_rho(sf_dir: str):
    """Tie-corrected Spearman ρ (Spearman 1904; mid-rank form) between
    l_quantity and discount_pct: Pearson over 2×-scaled average ranks,
    every sum a Python bigint from the ≤ 50×11 census, one mirrored
    double read-out ``rho_e6`` (identical num/den integers → identical
    IEEE divide/sqrt on both engines).  Output: one row
    ``(n, nx, ny, rho_e6)``.  Zero keyed exchange (census partials
    fold on the driver)."""
    cells = _census_cells(sf_dir)
    mx: dict[int, int] = {}
    my: dict[int, int] = {}
    for (x, y), n in cells.items():
        mx[x] = mx.get(x, 0) + n
        my[y] = my.get(y, 0) + n
    rx, ry = _rank2(mx), _rank2(my)
    n_tot = sum(cells.values())
    sx = sy = sxy = sxx = syy = 0
    for (x, y), n in cells.items():
        a, b = rx[x], ry[y]
        sx += n * a
        sy += n * b
        sxy += n * a * b
        sxx += n * a * a
        syy += n * b * b
    num = n_tot * sxy - sx * sy
    denx = n_tot * sxx - sx * sx
    deny = n_tot * syy - sy * sy
    rho = float(num) / math.sqrt(float(denx) * float(deny))
    rho_e6 = int(math.floor(abs(rho) * 1e6 + 0.5)) * (1 if rho >= 0 else -1)
    return pa.table(
        {
            "n": pa.array([n_tot], pa.int64()),
            "nx": pa.array([len(mx)], pa.int64()),
            "ny": pa.array([len(my)], pa.int64()),
            "rho_e6": pa.array([rho_e6], pa.int64()),
        }
    )


SQL_SPEARMAN = """
WITH v AS (
  SELECT cast(round(l_quantity) AS BIGINT) AS x,
         cast(round(l_discount * 100) AS BIGINT) AS y
  FROM lineitem),
c AS (SELECT x, y, cast(count(*) AS BIGINT) AS n FROM v GROUP BY 1, 2),
gx AS (SELECT x, sum(n) AS t FROM c GROUP BY x),
gy AS (SELECT y, sum(n) AS t FROM c GROUP BY y),
rx AS (SELECT x, 2 * (sum(t) OVER (ORDER BY x) - t) + t + 1 AS r FROM gx),
ry AS (SELECT y, 2 * (sum(t) OVER (ORDER BY y) - t) + t + 1 AS r FROM gy),
j AS (SELECT cast(c.n AS HUGEINT) AS n,
             cast(rx.r AS HUGEINT) AS a,
             cast(ry.r AS HUGEINT) AS b
      FROM c JOIN rx ON rx.x = c.x JOIN ry ON ry.y = c.y),
s AS (SELECT sum(n) AS nt, sum(n * a) AS sx, sum(n * b) AS sy,
             sum(n * a * b) AS sxy, sum(n * a * a) AS sxx,
             sum(n * b * b) AS syy
      FROM j),
f AS (SELECT cast(nt AS BIGINT) AS n,
             (SELECT cast(count(*) AS BIGINT) FROM gx) AS nx,
             (SELECT cast(count(*) AS BIGINT) FROM gy) AS ny,
             (nt * sxy - sx * sy) AS num,
             (nt * sxx - sx * sx) AS denx,
             (nt * syy - sy * sy) AS deny
      FROM s)
SELECT n, nx, ny,
       cast(CASE WHEN num >= 0
         THEN floor(1e6 * num::DOUBLE
                    / sqrt(denx::DOUBLE * deny::DOUBLE) + 0.5)
         ELSE -floor(1e6 * (-num)::DOUBLE
                    / sqrt(denx::DOUBLE * deny::DOUBLE) + 0.5)
       END AS BIGINT) AS rho_e6
FROM f
"""


# =====================================================================
# mann_kendall — trend test over the daily order-count series
# =====================================================================


#: sf_dir → folded day census; ~14 series statistics consume this one
#: bounded fold, so one pass per process (the _NB_CENSUS_MEMO pattern)
_DAY_CENSUS_MEMO: dict[str, dict[int, int]] = {}


def _day_census(sf_dir: str) -> dict[int, int]:
    """epoch-day → order count, folded on the driver (the
    ``autocorr_daily`` discipline: per-batch partials are ≤ #days
    rows, the domain is day-bounded, zero keyed exchange).  Shared by
    the whole daily-series statistics family.  Memoized per sf_dir
    (testdata is immutable; callers must not mutate the returned
    dict)."""
    if sf_dir in _DAY_CENSUS_MEMO:
        return _DAY_CENSUS_MEMO[sf_dir]
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        g = pd.Series(us // _US_PER_DAY).value_counts()
        return pa.table(
            {
                "day": pa.array(g.index.to_numpy(np.int64)),
                "n": pa.array(g.to_numpy(np.int64)),
            }
        )

    census: dict[int, int] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for d, n in zip(t.column("day").to_pylist(), t.column("n").to_pylist()):
            census[int(d)] = census.get(int(d), 0) + int(n)
    _DAY_CENSUS_MEMO[sf_dir] = census
    return census


def q_mann_kendall(sf_dir: str):
    """Mann–Kendall trend test of the daily order-count series:
    S = Σ_{i<j} sgn(c_j − c_i) over days in date order, tie-corrected
    18·Var(S) = n(n−1)(2n+5) − Σ_t t(t−1)(2t+5) (both exact bigints),
    and the continuity-corrected z = (S∓1)/√(Var S) as the one
    mirrored double.  Output: one row ``(n_days, s_stat, var18,
    z_e6)``.

    Shape: per-batch day-census partials (≤ #days rows each) fold on
    the driver — zero keyed exchange (the ``autocorr_daily``
    discipline); the O(days²) sign sweep runs on the ≤ few-thousand-day
    folded series."""
    census = _day_census(sf_dir)
    days = sorted(census)
    c = np.array([census[d] for d in days], dtype=np.int64)
    n = len(c)
    # S via the per-j "less-before minus greater-before" identity,
    # O(n²) on the bounded day series (int8 sign matrix ≈ 6 MB).
    sgn = np.sign(c[None, :] - c[:, None])
    s_stat = int(np.triu(sgn, k=1).sum())
    var18 = n * (n - 1) * (2 * n + 5)
    for t_sz in pd.Series(c).value_counts():
        t_sz = int(t_sz)
        var18 -= t_sz * (t_sz - 1) * (2 * t_sz + 5)
    if s_stat > 0:
        z = (s_stat - 1) / math.sqrt(var18 / 18.0)
    elif s_stat < 0:
        z = (s_stat + 1) / math.sqrt(var18 / 18.0)
    else:
        z = 0.0
    z_e6 = int(math.floor(abs(z) * 1e6 + 0.5)) * (1 if z >= 0 else -1)
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "s_stat": pa.array([s_stat], pa.int64()),
            "var18": pa.array([var18], pa.int64()),
            "z_e6": pa.array([z_e6], pa.int64()),
        }
    )


SQL_MANN_KENDALL = """
WITH c AS (
  SELECT cast(o_orderdate AS DATE) AS d, cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
p AS (SELECT coalesce(sum(CASE WHEN b.n > a.n THEN 1
                               WHEN b.n < a.n THEN -1 ELSE 0 END), 0) AS s
      FROM c a JOIN c b ON a.d < b.d),
t AS (SELECT coalesce(sum(t * (t - 1) * (2 * t + 5)), 0) AS corr
      FROM (SELECT cast(count(*) AS BIGINT) AS t FROM c GROUP BY n)),
f AS (SELECT (SELECT cast(count(*) AS BIGINT) FROM c) AS nd,
             cast(p.s AS BIGINT) AS s, t.corr AS corr
      FROM p, t)
SELECT nd AS n_days, s AS s_stat,
       cast(nd * (nd - 1) * (2 * nd + 5) - corr AS BIGINT) AS var18,
       cast(CASE
         WHEN s > 0 THEN floor(1e6 * (s - 1)::DOUBLE
           / sqrt((nd * (nd - 1) * (2 * nd + 5) - corr)::DOUBLE / 18.0)
           + 0.5)
         WHEN s < 0 THEN -floor(1e6 * (-s - 1)::DOUBLE
           / sqrt((nd * (nd - 1) * (2 * nd + 5) - corr)::DOUBLE / 18.0)
           + 0.5)
         ELSE 0 END AS BIGINT) AS z_e6
FROM f
"""


# =====================================================================
# matrix_profile — all-pairs nearest-subsequence distances (Yeh 2016)
# =====================================================================

_MP_W = 7  #: subsequence window (one week of the daily series)


def q_matrix_profile(sf_dir: str):
    """Matrix profile (Yeh et al. 2016, ICDM) of the daily order-count
    series under NON-normalized squared Euclidean distance — the
    all-pairs nearest-subsequence index behind motif discovery and
    discord (anomaly) detection.  For every length-7 window i:
    the minimum dist²(i, j) over all j with |i − j| ≥ w (the standard
    trivial-match exclusion zone) and its argmin (ties → smallest j).
    Integer counts → every distance is an exact int64
    (Σ of 7 squared diffs ≤ 7·(Δcount)²), so min and argmin are exact
    on both engines — the z-normalized variant would put a float mean
    and σ in every window; the non-normalized profile is the
    hash-exact family member (documented choice).  Output: one row
    per window ``(idx, nn_idx, nn_dist2)``.

    Shape: day census folds driver-side (zero keyed exchange); the
    O(n²) window sweep is ONE numpy matmul (W·Wᵀ over the ≤ 2500×7
    window matrix) — constant work at any corpus size."""
    census = _day_census(sf_dir)
    days = sorted(census)
    c = np.array([census[d] for d in days], dtype=np.int64)
    n_w = len(c) - _MP_W + 1
    idx = np.arange(n_w)
    W = np.lib.stride_tricks.sliding_window_view(c, _MP_W).astype(
        np.int64
    )
    s2 = np.einsum("ij,ij->i", W, W)
    d2 = s2[:, None] + s2[None, :] - 2 * (W @ W.T)
    excl = np.abs(idx[:, None] - idx[None, :]) < _MP_W
    big = np.iinfo(np.int64).max
    d2 = np.where(excl, big, d2)
    nn_dist = d2.min(axis=1)
    nn_idx = d2.argmin(axis=1)  # first minimum = smallest j
    return pa.table(
        {
            "idx": pa.array(idx.astype(np.int64)),
            "nn_idx": pa.array(nn_idx.astype(np.int64)),
            "nn_dist2": pa.array(nn_dist.astype(np.int64)),
        }
    )


SQL_MATRIX_PROFILE = f"""
WITH c AS (
  SELECT cast(o_orderdate AS DATE) AS d, cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
w AS (SELECT row_number() OVER (ORDER BY d) - 1 AS i,
             n AS c0,
             lead(n, 1) OVER (ORDER BY d) AS c1,
             lead(n, 2) OVER (ORDER BY d) AS c2,
             lead(n, 3) OVER (ORDER BY d) AS c3,
             lead(n, 4) OVER (ORDER BY d) AS c4,
             lead(n, 5) OVER (ORDER BY d) AS c5,
             lead(n, 6) OVER (ORDER BY d) AS c6
      FROM c),
win AS (SELECT * FROM w WHERE c6 IS NOT NULL),
pairs AS (
  SELECT a.i AS idx, b.i AS j,
         (a.c0 - b.c0) * (a.c0 - b.c0) + (a.c1 - b.c1) * (a.c1 - b.c1)
         + (a.c2 - b.c2) * (a.c2 - b.c2) + (a.c3 - b.c3) * (a.c3 - b.c3)
         + (a.c4 - b.c4) * (a.c4 - b.c4) + (a.c5 - b.c5) * (a.c5 - b.c5)
         + (a.c6 - b.c6) * (a.c6 - b.c6) AS d2
  FROM win a JOIN win b ON abs(a.i - b.i) >= {_MP_W}),
best AS (SELECT idx, j, d2,
                row_number() OVER (PARTITION BY idx
                                   ORDER BY d2 ASC, j ASC) AS rn
         FROM pairs)
SELECT idx, j AS nn_idx, cast(d2 AS BIGINT) AS nn_dist2
FROM best WHERE rn = 1
"""


# =====================================================================
# haar_energy — dyadic Haar detail energies of the daily series
# =====================================================================

_HAAR_LEVELS = 4


def q_haar_energy(sf_dir: str):
    """Unnormalized Haar wavelet detail energies (Haar 1910; the
    multi-resolution energy signature behind change/seasonality
    screening): at level k (block 2^k), each FULL block of
    consecutive days contributes coeff = (first-half sum) − (second-
    half sum), and energy_k = Σ coeff² — all exact int64 because the
    normalizing 2^(−k/2) is dropped symmetrically (documented: the
    e-ladder across levels is energy_k / 2^k).  Days index by rank in
    day order (gaps adjacent, the series convention).  Output: one
    row per level ``(level, n_coeffs, energy)``.  Zero keyed
    exchange — the day census folds, the ladder is O(n) driver
    work."""
    census = _day_census(sf_dir)
    days = sorted(census)
    c = np.array([census[d] for d in days], dtype=np.int64)
    rows = []
    for k in range(1, _HAAR_LEVELS + 1):
        b = 1 << k
        n_b = len(c) // b
        if n_b == 0:
            rows.append((k, 0, 0))
            continue
        blocks = c[: n_b * b].reshape(n_b, b)
        half = b // 2
        coeff = blocks[:, :half].sum(axis=1) - blocks[:, half:].sum(axis=1)
        rows.append((k, n_b, int((coeff.astype(object) ** 2).sum())))
    return pa.table(
        {
            "level": pa.array([r[0] for r in rows], pa.int64()),
            "n_coeffs": pa.array([r[1] for r in rows], pa.int64()),
            "energy": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


SQL_HAAR_ENERGY = f"""
WITH c AS (
  SELECT cast(o_orderdate AS DATE) AS d, cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1),
ix AS (SELECT row_number() OVER (ORDER BY d) - 1 AS i, n FROM c),
lv AS (SELECT k FROM range(1, {_HAAR_LEVELS + 1}) t(k)),
co AS (
  SELECT lv.k, ix.i // (1 << lv.k) AS blk,
         sum(CASE WHEN (ix.i % (1 << lv.k)) < (1 << (lv.k - 1))
                  THEN ix.n ELSE -ix.n END) AS coeff,
         count(*) AS m
  FROM ix, lv GROUP BY 1, 2),
full_blocks AS (SELECT k, coeff FROM co WHERE m = (1 << k))
SELECT lv.k AS level,
       cast(coalesce(count(f.coeff), 0) AS BIGINT) AS n_coeffs,
       cast(coalesce(sum(f.coeff * f.coeff), 0) AS BIGINT) AS energy
FROM lv LEFT JOIN full_blocks f ON f.k = lv.k
GROUP BY lv.k
"""


# =====================================================================
# good_turing — frequency-of-frequencies smoothing table (Good 1953)
# =====================================================================

_GT_RMAX = 10


def q_good_turing(sf_dir: str):
    """Good–Turing smoothed-count table over the corpus BIGRAM
    spectrum (Good 1953) — the unseen-mass / low-count re-estimation
    primitive every count-based LM smoother builds on, and the
    spectrum the Katz back-off cutoff is read from (GT runs on n-gram
    counts, where hapaxes actually occur — the unigram vocabulary
    here is too small to carry low counts): for each raw count r the
    smoothed count is

        r* = (r + 1) · N_{r+1} / N_r

    with N_r = number of bigram types seen exactly r times.  Distinct
    from ``chao1_richness`` (which consumes only f1/f2 to estimate
    VOCABULARY size): this emits the full low-r re-estimation table a
    smoother consumes, whose r=1 row also yields the leave-one-out
    unseen-probability mass N_1/N.

    Exactness: N_r are exact bigint counts; r* is a PURE integer
    rational read out with the shared half-away e6 rule (0 when
    N_r = 0, mirrored by CASE in SQL), so the 10-row output is
    partitioning-independent and hash-exact.

    Shape: ONE bigram-vocabulary-bounded ``groupby(bigram)`` exchange
    (the ``bigram_topk`` partial: payload = per-batch distinct
    bigrams), then per-block bincount partials over the FIXED domain
    r ≤ 11 fold on the driver — zero additional keyed exchange (the
    emd_drift discipline).  Output: rows r = 1.._GT_RMAX of
    ``(r, n_r, r_star_e6)``."""
    from ray.data.aggregate import Sum

    from .tokenizer import _bigram_partial

    ds = _read(sf_dir, "documents", ["text"])

    counts = (
        ds.map_batches(_bigram_partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="m"))
    )

    def _ff_partial(batch: pa.Table) -> pa.Table:
        m = batch.column("m").to_numpy(zero_copy_only=False).astype(np.int64)
        small = m[m <= _GT_RMAX + 1]
        bc = np.bincount(small, minlength=_GT_RMAX + 2)
        return pa.table({"nr": pa.array(bc[: _GT_RMAX + 2], pa.int64())})

    nr = np.zeros(_GT_RMAX + 2, dtype=object)
    for t in counts.map_batches(_ff_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        col = t.column("nr").to_numpy(zero_copy_only=False)
        for i in range(0, len(col), _GT_RMAX + 2):
            nr += col[i : i + _GT_RMAX + 2].astype(object)
    rows_r = list(range(1, _GT_RMAX + 1))
    n_r = [int(nr[r]) for r in rows_r]
    r_star = [
        _ols_e6((r + 1) * int(nr[r + 1]), int(nr[r])) if nr[r] > 0 else 0
        for r in rows_r
    ]
    return pa.table(
        {
            "r": pa.array(rows_r, pa.int64()),
            "n_r": pa.array(n_r, pa.int64()),
            "r_star_e6": pa.array(r_star, pa.int64()),
        }
    )


SQL_GOOD_TURING = rf"""
WITH l AS (
  SELECT regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''),
b AS (
  SELECT toks[i] || ' ' || toks[i+1] AS g
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)),
c AS (SELECT g, cast(count(*) AS BIGINT) AS m FROM b GROUP BY g),
ff AS (SELECT m AS r, cast(count(*) AS BIGINT) AS n_r FROM c
       WHERE m <= {_GT_RMAX + 1} GROUP BY m),
grid AS (SELECT k AS r FROM range(1, {_GT_RMAX + 1}) t(k))
SELECT grid.r,
       cast(coalesce(f1.n_r, 0) AS BIGINT) AS n_r,
       CASE WHEN coalesce(f1.n_r, 0) = 0 THEN 0
            ELSE (2000000 * ((grid.r + 1) * coalesce(f2.n_r, 0))
                  + f1.n_r) // (2 * f1.n_r) END AS r_star_e6
FROM grid
LEFT JOIN ff f1 ON f1.r = grid.r
LEFT JOIN ff f2 ON f2.r = grid.r + 1
"""


# =====================================================================
# heaps_law — vocabulary-growth exponent over doc-id checkpoints
# =====================================================================

_HEAPS_Q = 16


def q_heaps_law(sf_dir: str):
    """Heaps'-law vocabulary-growth fit V(N) ≈ K·N^β (Heaps 1978)
    over {_HEAPS_Q} doc-id-order checkpoints — the corpus-scaling
    audit that tells a curator whether vocabulary keeps growing
    (natural text, β ≈ 0.5) or has saturated (templated/synthetic
    text, β → 0), and the companion read-out to ``zipf_slope`` /
    ``chao1_richness``.  "Corpus order" is doc_id order — the one
    deterministic, partitioning-independent order the table carries.

    Two folds, no data-sized driver state:
    1. per-word FIRST checkpoint bucket: per-batch (word, min bucket)
       group partials → one vocabulary-bounded ``groupby(word).min``
       exchange (the ``oov_rate`` pass-1 discipline) → per-block
       bincount over the FIXED {_HEAPS_Q}-bin domain, driver fold;
       cumulative sum = V_k.
    2. tokens per bucket: per-batch {_HEAPS_Q}-bin bincount partials,
       driver fold, cumulative sum = N_k — zero keyed exchange.

    β comes from the quantized-log OLS convention shared with
    ``zipf_slope`` (e6 ln values — math.log and DuckDB ln are the
    same libm call — summed exactly; the final slope is ONE mirrored
    double expression).  Output: one row
    ``(n_docs, n_tokens, n_types, beta_e6)``."""
    from ray.data.aggregate import Max, Min

    from .curation import _explode_tokens

    meta = _read(sf_dir, "documents", ["doc_id"])
    n_docs = meta.count()
    span = int(meta.aggregate(Max("doc_id"))["max(doc_id)"]) + 1
    q = _HEAPS_Q

    def _bucket(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(per-token checkpoint bucket, token) for a (doc_id, text)
        batch."""
        rows, toks = _explode_tokens(batch)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = np.minimum(q - 1, ids[rows] * q // span).astype(np.int64)
        return b, toks

    # pass A — tokens per bucket: FIXED q-bin bincount partials,
    # driver fold, zero keyed exchange
    def _tok_partial(batch: pa.Table) -> pa.Table:
        b, _ = _bucket(batch)
        return pa.table(
            {"tb": pa.array([np.bincount(b, minlength=q)[:q].tolist()],
                            pa.list_(pa.int64()))}
        )

    tok_cum = np.zeros(q, dtype=object)
    for t in (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(_tok_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        for vec in t.column("tb").to_pylist():
            tok_cum += np.asarray(vec, dtype=object)

    # pass B — per-word first bucket: in-batch (w, min b) group
    # partials → ONE vocabulary-bounded exchange → q-bin fold
    def _wmin_partial(batch: pa.Table) -> pa.Table:
        b, toks = _bucket(batch)
        g = (
            pd.DataFrame({"w": toks, "b": b})
            .groupby("w", sort=False)["b"]
            .min()
            .reset_index()
        )
        return pa.table(
            {
                "w": pa.array(g["w"], pa.string()),
                "b": pa.array(g["b"].to_numpy(np.int64)),
            }
        )

    wmin = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(_wmin_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Min("b", alias_name="mb"))
    )

    def _vb_partial(batch: pa.Table) -> pa.Table:
        mb = batch.column("mb").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"vb": pa.array([np.bincount(mb, minlength=q)[:q].tolist()],
                            pa.list_(pa.int64()))}
        )

    first_bins = np.zeros(q, dtype=object)
    for t in wmin.map_batches(_vb_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for vec in t.column("vb").to_pylist():
            first_bins += np.asarray(vec, dtype=object)

    N = np.cumsum(tok_cum)
    V = np.cumsum(first_bins)
    pts = [(int(nn), int(vv)) for nn, vv in zip(N, V) if nn > 0 and vv > 0]
    lx = [_sq_e6(math.log(nn)) for nn, _ in pts]
    ly = [_sq_e6(math.log(vv)) for _, vv in pts]
    k = len(pts)
    sx, sy = sum(lx), sum(ly)
    sxx = sum(v * v for v in lx)
    sxy = sum(a * b for a, b in zip(lx, ly))
    beta = float(k * sxy - sx * sy) / float(k * sxx - sx * sx)
    beta_e6 = int(math.floor(abs(beta) * 1e6 + 0.5)) * (1 if beta >= 0 else -1)
    return pa.table(
        {
            "n_docs": pa.array([int(n_docs)], pa.int64()),
            "n_tokens": pa.array([int(N[-1])], pa.int64()),
            "n_types": pa.array([int(V[-1])], pa.int64()),
            "beta_e6": pa.array([beta_e6], pa.int64()),
        }
    )


def _sq_e6(v: float) -> int:
    """round(v·1e6) half away from zero — the zipf_slope quantized-log
    rule (stats._q_e6), re-stated here to avoid a cross-module private
    import (same libm-ln mirror argument applies)."""
    return int(math.floor(abs(v) * 1e6 + 0.5)) * (1 if v >= 0 else -1)


# =====================================================================
# kendall_w — coefficient of concordance across 3 document metrics
# =====================================================================


def q_kendall_w(sf_dir: str):
    """Kendall's coefficient of concordance W (Kendall & Babington
    Smith 1939) treating three per-document size/diversity metrics —
    token count, n_chars, distinct-word count — as m = 3 raters
    ranking all n documents: the "do my quality signals even agree on
    an ordering?" audit run before any rank-fused curation filter
    (and the multi-judge consistency read-out of an LLM-judge
    ensemble).  Tie-corrected:

        W = 12·S / (m²(n³−n) − m·ΣTⱼ),   Tⱼ = Σ(t³−t) over rater
                                          j's tie groups

    Doubled average ranks (the ``spearman_rho`` device) keep every
    quantity an exact bigint: with R2ᵢ = Σⱼ 2·avgrankⱼ(i) and
    S4 = Σᵢ (R2ᵢ − m(n+1))² = 4S, W = 3·S4 / (m²(n³−n) − m·ΣTⱼ) is a
    PURE integer rational, read out with the shared half-away e6 rule.

    Shape: pass 1 folds three per-metric value censuses on the driver
    (domains bounded by max document LENGTH — the ``kendall_tau``
    bounded-grid argument, never corpus-sized) and turns them into
    doubled-rank maps + tie sums; pass 2 broadcasts the three maps
    (``ray.put`` once) and streams one ``map_batches`` emitting a
    single decimal128 S4 partial per batch (per-doc squares overflow
    int64 at web scale — the ``cuped_adjust`` precedent), folded
    driver-side as Python bigints bounded by #batches.  Zero keyed
    exchange.  Output: one row ``(n, s4, t_sum, w_e6)``."""
    import ray

    from .curation import _explode_tokens

    m_raters = 3

    def _doc_metrics(batch: pa.Table) -> tuple[np.ndarray, ...]:
        rows, toks = _explode_tokens(batch)
        nb = batch.num_rows
        m1 = np.bincount(rows, minlength=nb)
        dd = pd.DataFrame({"r": rows, "w": toks}).drop_duplicates()
        m3 = np.bincount(dd["r"].to_numpy(), minlength=nb)
        m2 = batch.column("n_chars").to_numpy(zero_copy_only=False)
        return m1.astype(np.int64), m2.astype(np.int64), m3.astype(np.int64)

    def _census_partial(batch: pa.Table) -> pa.Table:
        ms = _doc_metrics(batch)
        out = {"j": [], "v": [], "c": []}
        for j, m in enumerate(ms):
            vals, cnt = np.unique(m, return_counts=True)
            out["j"].extend([j] * len(vals))
            out["v"].extend(vals.tolist())
            out["c"].extend(cnt.tolist())
        return pa.table(
            {
                "j": pa.array(out["j"], pa.int64()),
                "v": pa.array(out["v"], pa.int64()),
                "c": pa.array(out["c"], pa.int64()),
            }
        )

    cens: list[dict[int, int]] = [{} for _ in range(m_raters)]
    for t in (
        _read(sf_dir, "documents", ["text", "n_chars"])
        .map_batches(_census_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        for j, v, c in zip(
            t.column("j").to_pylist(),
            t.column("v").to_pylist(),
            t.column("c").to_pylist(),
        ):
            cens[j][v] = cens[j].get(v, 0) + c

    n = sum(cens[0].values())
    # doubled-rank maps (2·avgrank = 2·#below + #equal + 1) + tie sums
    rank_maps, t_sum = [], 0
    for j in range(m_raters):
        vals = np.array(sorted(cens[j]), dtype=np.int64)
        cnts = np.array([cens[j][int(v)] for v in vals], dtype=object)
        below = np.concatenate(([0], np.cumsum(cnts)[:-1]))
        dr = 2 * below + cnts + 1
        rank_maps.append((vals, dr.astype(np.int64)))
        t_sum += int(sum(int(c) ** 3 - int(c) for c in cnts))
    maps_ref = ray.put(rank_maps)
    center = m_raters * (n + 1)

    def _s4_partial(batch: pa.Table) -> pa.Table:
        maps = ray.get(maps_ref)
        ms = _doc_metrics(batch)
        r2 = np.zeros(batch.num_rows, dtype=np.int64)
        for (vals, dr), m in zip(maps, ms):
            r2 += dr[np.searchsorted(vals, m)]
        dev = r2.astype(object) - center
        s4 = int((dev * dev).sum())
        import decimal

        return pa.table(
            {"s4": pa.array([decimal.Decimal(s4)], pa.decimal128(38, 0))}
        )

    s4 = 0
    for t in (
        _read(sf_dir, "documents", ["text", "n_chars"])
        .map_batches(_s4_partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        s4 += sum(int(v) for v in t.column("s4").to_pylist())

    den = m_raters * m_raters * (n**3 - n) - m_raters * t_sum
    w_e6 = _ols_e6(3 * s4, den)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "s4": pa.array([s4], pa.int64()),
            "t_sum": pa.array([t_sum], pa.int64()),
            "w_e6": pa.array([w_e6], pa.int64()),
        }
    )


SQL_KENDALL_W = r"""
WITH m AS (
  SELECT doc_id,
         coalesce(len(list_filter(string_split_regex(lower(text), '\s+'),
                                  w -> w <> '')), 0) AS m1,
         n_chars AS m2,
         coalesce(len(list_distinct(
             list_filter(string_split_regex(lower(text), '\s+'),
                         w -> w <> ''))), 0) AS m3
  FROM documents),
c1 AS (SELECT m1 AS v, cast(count(*) AS BIGINT) AS c FROM m GROUP BY 1),
c2 AS (SELECT m2 AS v, cast(count(*) AS BIGINT) AS c FROM m GROUP BY 1),
c3 AS (SELECT m3 AS v, cast(count(*) AS BIGINT) AS c FROM m GROUP BY 1),
k1 AS (SELECT v, 2 * (sum(c) OVER (ORDER BY v) - c) + c + 1 AS dr FROM c1),
k2 AS (SELECT v, 2 * (sum(c) OVER (ORDER BY v) - c) + c + 1 AS dr FROM c2),
k3 AS (SELECT v, 2 * (sum(c) OVER (ORDER BY v) - c) + c + 1 AS dr FROM c3),
nn AS (SELECT cast(count(*) AS BIGINT) AS n FROM m),
r AS (SELECT m.doc_id,
             k1.dr + k2.dr + k3.dr AS r2
      FROM m JOIN k1 ON k1.v = m.m1 JOIN k2 ON k2.v = m.m2
             JOIN k3 ON k3.v = m.m3),
s AS (SELECT cast(sum(cast((r.r2 - 3 * (nn.n + 1)) AS HUGEINT)
                     * cast((r.r2 - 3 * (nn.n + 1)) AS HUGEINT))
              AS HUGEINT) AS s4
      FROM r, nn),
tt AS (SELECT (SELECT sum(c*c*c - c) FROM c1)
            + (SELECT sum(c*c*c - c) FROM c2)
            + (SELECT sum(c*c*c - c) FROM c3) AS t_sum)
SELECT nn.n,
       cast(s.s4 AS BIGINT) AS s4,
       cast(tt.t_sum AS BIGINT) AS t_sum,
       cast((2000000 * (3 * s.s4)
             + (9 * (cast(nn.n AS HUGEINT) * nn.n * nn.n - nn.n)
                - 3 * tt.t_sum))
            // (2 * (9 * (cast(nn.n AS HUGEINT) * nn.n * nn.n - nn.n)
                     - 3 * tt.t_sum)) AS BIGINT) AS w_e6
FROM nn, s, tt
"""


SQL_HEAPS_LAW = rf"""
WITH d AS (SELECT cast(count(*) AS BIGINT) AS ndocs,
                  cast(max(doc_id) AS BIGINT) + 1 AS span
           FROM documents),
tk AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '\s+')) AS w
  FROM documents),
t2 AS (SELECT w, least({_HEAPS_Q} - 1, doc_id * {_HEAPS_Q} // d.span) AS b
       FROM tk, d WHERE w <> ''),
tok AS (SELECT b, cast(count(*) AS BIGINT) AS nt FROM t2 GROUP BY b),
wmin AS (SELECT w, min(b) AS mb FROM t2 GROUP BY w),
vb AS (SELECT mb AS b, cast(count(*) AS BIGINT) AS nv FROM wmin GROUP BY mb),
grid AS (SELECT k AS b FROM range(0, {_HEAPS_Q}) t(k)),
cum AS (SELECT g.b,
               sum(coalesce(tok.nt, 0)) OVER (ORDER BY g.b) AS nn,
               sum(coalesce(vb.nv, 0)) OVER (ORDER BY g.b) AS vv
        FROM grid g
        LEFT JOIN tok ON tok.b = g.b
        LEFT JOIN vb ON vb.b = g.b),
pt AS (SELECT cast(round(ln(cast(nn AS DOUBLE)) * 1000000, 0) AS BIGINT) AS lx,
              cast(round(ln(cast(vv AS DOUBLE)) * 1000000, 0) AS BIGINT) AS ly
       FROM cum WHERE nn > 0 AND vv > 0),
s AS (SELECT cast(count(*) AS BIGINT) AS k, sum(lx) AS sx, sum(ly) AS sy,
             sum(lx * lx) AS sxx, sum(lx * ly) AS sxy
      FROM pt),
tot AS (SELECT max(nn) AS n_tokens, max(vv) AS n_types FROM cum)
SELECT d.ndocs AS n_docs,
       cast(tot.n_tokens AS BIGINT) AS n_tokens,
       cast(tot.n_types AS BIGINT) AS n_types,
       cast(round(cast(s.k * s.sxy - s.sx * s.sy AS DOUBLE)
                  / cast(s.k * s.sxx - s.sx * s.sx AS DOUBLE)
                  * 1000000, 0) AS BIGINT) AS beta_e6
FROM d, s, tot
"""


QUERIES = {
    "yule_k": q_yule_k,
    "chao1_richness": q_chao1_richness,
    "spearman_rho": q_spearman_rho,
    "mann_kendall": q_mann_kendall,
    "matrix_profile": q_matrix_profile,
    "haar_energy": q_haar_energy,
    "good_turing": q_good_turing,
    "heaps_law": q_heaps_law,
    "kendall_w": q_kendall_w,
}

ORACLE_SQL = {
    "yule_k": SQL_YULE_K,
    "chao1_richness": SQL_CHAO1,
    "spearman_rho": SQL_SPEARMAN,
    "mann_kendall": SQL_MANN_KENDALL,
    "matrix_profile": SQL_MATRIX_PROFILE,
    "haar_energy": SQL_HAAR_ENERGY,
    "good_turing": SQL_GOOD_TURING,
    "heaps_law": SQL_HEAPS_LAW,
    "kendall_w": SQL_KENDALL_W,
}
