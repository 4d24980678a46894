"""Round-3 continuation #13c: second-moment / tail / entropy
estimators — three statistics that reduce big inputs to tiny exact
summaries, each a ``queries()`` entry with a DuckDB oracle:

- ``gram_matrix``     exact integer Gram (Xᵀ X) of the e6-quantized
                      embedding matrix — the input PCA/whitening/
                      linear-probe steps actually consume (the
                      oracle-exact complement of the rows-only
                      ``embedding_pca``: quantize first, THEN take
                      moments, and the 64×64 matrix is hash-exact)
- ``hill_tail``       Hill (1975) tail-index estimator of per-user
                      activity — the MLE complement of the
                      regression-based ``zipf_slope``
- ``markov_entropy``  empirical entropy rate of the per-user
                      event-type Markov chain — the scalar read-out
                      of ``transition_probs``' matrix

Exactness: Gram entries are pure int64 sums of quantized products
(|q| ≤ ~2e6, 5000-row sums ≪ 2^63); Hill and entropy quantize each
ln term at e9 before integer summation (the ``psi_drift`` idiom) and
release integer numerator/denominator.

Scale shapes: the Gram pass emits ONE 64×64 partial per batch
(bounded exchange: 2080 upper-triangle cells × #batches — the
classic distributed covariance shape); Hill folds over the
activity-level census (``inequality.py`` — unbounded key
cardinality safe); the entropy pass reuses the user-sharded
consecutive-pair reduction (exchange ≤ |types|²).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read

_GRAM_DIM = 64
_GRAM_SCALE = 1e6


def q_gram_matrix(sf_dir: str):
    """Exact integer Gram matrix of the quantized embeddings (module
    docstring).  Output: (i, j, gram) upper triangle, 1-based dims."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", ["embedding"])

    def _partial(t: pa.Table) -> pa.Table:
        from ..functions.embed import fixed_list_to_numpy

        x = fixed_list_to_numpy(t.column("embedding"), dtype=np.float64)
        q = _i64_away_np(x, _GRAM_SCALE).astype(np.int64)
        g = q.T @ q  # (64, 64) int64 — exact
        iu, ju = np.triu_indices(_GRAM_DIM)
        return pa.table(
            {
                "i": pa.array((iu + 1).astype(np.int64)),
                "j": pa.array((ju + 1).astype(np.int64)),
                "gram": pa.array(g[iu, ju]),
            }
        )

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(Sum("gram", alias_name="gram"))
    )


# cast(... AS DOUBLE) BEFORE the multiply: embedding is FLOAT and
# DuckDB would otherwise scale in float32, mis-rounding ~0.4% of
# elements by one ulp (diagnosed: 0.1686684936*1e6 -> 168669 in f32)
SQL_GRAM = f"""
SELECT i.i, j.j,
       cast(sum(cast(round(cast(embedding[i.i] AS DOUBLE)
                           * {int(_GRAM_SCALE)}, 0) AS BIGINT)
                * cast(round(cast(embedding[j.j] AS DOUBLE)
                             * {int(_GRAM_SCALE)}, 0)
                       AS BIGINT)) AS BIGINT) AS gram
FROM embeddings,
     range(1, {_GRAM_DIM + 1}) i(i),
     range(1, {_GRAM_DIM + 1}) j(j)
WHERE j.j >= i.i
GROUP BY i.i, j.j
"""


def q_hill_tail(sf_dir: str):
    """Hill estimator of the activity tail index: with per-user event
    counts sorted descending (x₁ ≥ x₂ ≥ ...) and k = ⌊n/10⌋,
    H = (1/k)·Σ_{i≤k} ln(x_i / x_{k+1}) — heavy-tail exponent
    α ≈ 1/H.  Folds over the distinct-activity-level census
    (inequality.py machinery: exact at unbounded key cardinality),
    where the top-(k+1) value MULTISET is tie-order-independent, so
    no rank tie-break is needed on either engine.  Each ln term
    e9-quantized.  Output (n_users, k, hill_num_e9, hill_e6)."""
    from .inequality import _value_census

    cen = _value_census(sf_dir)  # ascending by v
    v = cen["v"].to_numpy(np.int64)
    c = cen["c"].to_numpy(np.int64)
    n = int(c.sum())
    k = n // 10
    # walk the census from the top until k+1 users are covered —
    # PER DISTINCT VALUE (VERDICT r3 #5: no O(k) multiset expansion;
    # equal values share one identical quantized ln term, so
    # count·round(ln(v/x_{k+1})·1e9) is exactly the expanded sum)
    vals: list[int] = []
    cnts: list[int] = []
    need = k + 1
    for vi, ci in zip(v[::-1], c[::-1]):
        take = min(int(ci), need)
        vals.append(int(vi))
        cnts.append(take)
        need -= take
        if need == 0:
            break
    xk1 = vals[-1]  # the walk stops exactly at rank k+1
    cnts[-1] -= 1   # rank k+1 itself is outside the top-k sum
    va = np.array(vals, dtype=np.float64)
    ca = np.array(cnts, dtype=np.int64)
    t9 = _i64_away_np(np.log(va / xk1), 1e9).astype(np.int64)
    num = int((ca * t9).sum())
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "k": pa.array([k], pa.int64()),
            "hill_num_e9": pa.array([num], pa.int64()),
            "hill_e6": pa.array([num // (k * 1000)], pa.int64()),
        }
    )


SQL_HILL = """
WITH u AS (SELECT user_id, cast(count(*) AS BIGINT) AS x
           FROM events GROUP BY user_id),
t AS (SELECT cast(count(*) AS BIGINT) AS n,
             cast(count(*) // 10 AS BIGINT) AS k FROM u),
r AS (SELECT x, row_number() OVER (ORDER BY x DESC, user_id) AS rn FROM u),
xk1 AS (SELECT r.x AS xk1 FROM r, t WHERE r.rn = t.k + 1),
terms AS (SELECT cast(round(ln(cast(r.x AS DOUBLE) / xk1.xk1)
                            * 1000000000, 0) AS BIGINT) AS t9
          FROM r, t, xk1 WHERE r.rn <= t.k)
SELECT t.n AS n_users, t.k AS k,
       (SELECT cast(sum(t9) AS BIGINT) FROM terms) AS hill_num_e9,
       (SELECT cast(sum(t9) AS BIGINT) FROM terms) // (t.k * 1000)
           AS hill_e6
FROM t
"""


def q_markov_entropy(sf_dir: str):
    """Empirical entropy rate of the per-user event-type chain:
    H = −Σ_{s,t} (n_{st}/N)·ln(n_{st}/n_{s·}) — the scalar that says
    how predictable the next event type is (0 = deterministic chain,
    ln|types| = memoryless uniform).  Pairs are consecutive events in
    (ts, event_id) order per user (the ``transition_probs`` pair
    reduction: user shard → vectorized adjacent rows → ≤|types|²
    exchange); each ln term e9-quantized, the fold runs over the
    bounded transition grid.  Output (n_pairs, h_num_e9, h_e6)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])

    def _key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "shard",
            pc.bit_wise_and(
                pc.cast(t.column("user_id"), pa.int64()), pa.scalar(255)
            ),
        )

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        order = np.lexsort(
            (g["event_id"].to_numpy(np.int64), us,
             g["user_id"].to_numpy(np.int64))
        )
        uid = g["user_id"].to_numpy(np.int64)[order]
        et = g["event_type"].to_numpy()[order]
        same = uid[1:] == uid[:-1]
        df = (
            pd.DataFrame({"s": et[:-1][same], "t": et[1:][same]})
            .groupby(["s", "t"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pd.DataFrame(
            {
                "s": df["s"],
                "t": df["t"],
                "n": df["n"].to_numpy(np.int64),
            }
        )

    grid = (
        ds.map_batches(_key, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_pairs, batch_format="pandas")
        .groupby(["s", "t"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: |types|^2
    )
    n = grid["n"].to_numpy(np.int64)
    ns = grid.groupby("s")["n"].transform("sum").to_numpy(np.int64)
    t9 = _i64_away_np(
        np.log(n.astype(np.float64) / ns.astype(np.float64)), 1e9
    ).astype(np.int64)
    num = -int((n * t9).sum())
    total = int(n.sum())
    return pa.table(
        {
            "n_pairs": pa.array([total], pa.int64()),
            "h_num_e9": pa.array([num], pa.int64()),
            "h_e6": pa.array([num // (total * 1000)], pa.int64()),
        }
    )


SQL_MARKOV_ENTROPY = """
WITH o AS (SELECT user_id, event_type,
                  lead(event_type) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) AS nxt
           FROM events),
g AS (SELECT event_type AS s, nxt AS t, cast(count(*) AS BIGINT) AS n
      FROM o WHERE nxt IS NOT NULL GROUP BY s, t),
w AS (SELECT n,
             cast(round(ln(cast(n AS DOUBLE)
                           / sum(n) OVER (PARTITION BY s))
                        * 1000000000, 0) AS BIGINT) AS t9
      FROM g),
a AS (SELECT cast(sum(n) AS BIGINT) AS total,
             cast(-sum(n * t9) AS BIGINT) AS num FROM w)
SELECT total AS n_pairs, num AS h_num_e9,
       cast(num // (total * 1000) AS BIGINT) AS h_e6
FROM a
"""



# =====================================================================
# ams_f2 — AMS tug-of-war sketch of the per-user activity F2 moment
# =====================================================================

#: counter count (4 groups × 16 for the median-of-means read-out)
_AMS_K = 64
_AMS_GROUP = 16


def _ams_signs(users: np.ndarray) -> np.ndarray:
    """(len(users) × 64) ±1 sign matrix: sign_j(u) = bit j of
    md5_number_lower(str(u)) — 64 four-ish-wise-independent-in-practice
    sign functions from ONE md5 per distinct user (the feature_hash
    hash discipline; exact SQL mirror via integer shifts)."""
    import hashlib

    h = np.fromiter(
        (
            int.from_bytes(hashlib.md5(str(int(u)).encode()).digest()[8:],
                           "little")
            for u in users
        ),
        dtype=np.uint64,
        count=len(users),
    )
    bits = (h[:, None] >> np.arange(_AMS_K, dtype=np.uint64)[None, :]) & np.uint64(1)
    return (bits.astype(np.int64) * 2 - 1)


def q_ams_f2(sf_dir: str):
    """Alon–Matias–Szegedy (STOC 1996) tug-of-war sketch of the
    second frequency moment of per-user event activity, with the exact
    F2 audit beside it.  64 counters c_j = Σ_u s_j(u)·cnt_u with ±1
    signs from one md5 per user; the estimator is the median of 4
    means of 16 squared counters — emitted as the INTEGER
    ``est_x32`` = G(2) + G(3) over the sorted group square-sums
    (= 32 × the estimate: each G is 16 × a mean, the median of an
    even count is the mid-pair average — kept as the doubled sum so
    no division happens).  Output: one row
    ``(n_events, f2_exact, est_x32)`` — all bigints, hash-exact.

    Scale shapes: the sketch pass is ZERO-exchange — per-batch
    (64-counter, n) partials fold on the driver (each batch hashes its
    DISTINCT users once); the exact audit keeps its keyed
    ``groupby(user)`` exchange because the user domain grows with
    data (the exchange discipline), then folds per-block
    sum-of-squares scalars."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["user_id"])

    def _sketch_partial(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(u, return_counts=True)
        c = _ams_signs(uniq).T @ cnt.astype(np.int64)  # (64,)
        return pa.table(
            {
                "j": pa.array(np.arange(_AMS_K, dtype=np.int64)),
                "c": pa.array(c.astype(np.int64)),
                "n": pa.array(
                    np.concatenate([[len(u)], np.zeros(_AMS_K - 1, np.int64)])
                ),
            }
        )

    counters = np.zeros(_AMS_K, dtype=object)
    n_events = 0
    for t in ds.map_batches(
        _sketch_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        counters[t.column("j").to_numpy(zero_copy_only=False)] += np.array(
            t.column("c").to_pylist(), dtype=object
        )
        n_events += sum(t.column("n").to_pylist())

    g = sorted(
        sum(int(counters[j]) ** 2 for j in range(k, k + _AMS_GROUP))
        for k in range(0, _AMS_K, _AMS_GROUP)
    )
    est_x32 = g[1] + g[2]

    # exact audit: keyed exchange (user domain grows with data)
    cnts = (
        ds.groupby("user_id")
        .aggregate(Count(alias_name="cnt"))
    )

    def _sq_partial(t: pa.Table) -> pa.Table:
        c = t.column("cnt").to_numpy(zero_copy_only=False).astype(object)
        return pa.table({"s": pa.array([int((c * c).sum())], pa.int64())})

    f2 = 0
    for t in cnts.map_batches(_sq_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        f2 += sum(t.column("s").to_pylist())
    return pa.table(
        {
            "n_events": pa.array([n_events], pa.int64()),
            "f2_exact": pa.array([f2], pa.int64()),
            "est_x32": pa.array([est_x32], pa.int64()),
        }
    )


SQL_AMS_F2 = f"""
WITH u AS (
  SELECT user_id, cast(count(*) AS BIGINT) AS cnt,
         md5_number_lower(cast(user_id AS VARCHAR)) AS h
  FROM events GROUP BY user_id),
c AS (
  SELECT j.j,
         cast(sum(cnt * (cast((h >> j.j) % 2 AS BIGINT) * 2 - 1))
              AS HUGEINT) AS cj
  FROM u, range({_AMS_K}) j(j) GROUP BY j.j),
g AS (
  SELECT j // {_AMS_GROUP} AS grp, sum(cj * cj) AS gs
  FROM c GROUP BY 1),
r AS (SELECT gs, row_number() OVER (ORDER BY gs) AS rn FROM g),
est AS (SELECT cast(sum(gs) AS BIGINT) AS est_x32 FROM r
        WHERE rn IN (2, 3))
SELECT (SELECT cast(sum(cnt) AS BIGINT) FROM u) AS n_events,
       (SELECT cast(sum(cast(cnt AS HUGEINT) * cnt) AS BIGINT) FROM u)
         AS f2_exact,
       est.est_x32
FROM est
"""


# =====================================================================
# corr_matrix — exact-moment Pearson correlation of lineitem numerics
# =====================================================================

#: (label, column, integer scale) — cents/pct grains shared with the
#: rest of the repo; fixed order pins the pair enumeration
_CORR_VARS = (
    ("qty", "l_quantity", 1.0),
    ("disc", "l_discount", 100.0),
    ("tax", "l_tax", 100.0),
    ("price", "l_extendedprice", 100.0),
)


def _lineitem_moments(sf_dir: str):
    """(n, four Σx, ten Σx·y) exact bigint moment scalars over the
    four lineitem numerics — per-batch object-dtype partials (price
    cross products overflow int64), driver fold, zero keyed exchange.
    Shared by ``corr_matrix`` and ``cronbach_alpha``."""
    ds = _read(sf_dir, "lineitem", [c for _, c, _ in _CORR_VARS])

    def _partial(t: pa.Table) -> pa.Table:
        cols = [
            _i64_away_np(
                t.column(c).to_numpy(zero_copy_only=False), s
            ).astype(object)
            for _, c, s in _CORR_VARS
        ]
        vals = [t.num_rows]
        for i in range(4):
            vals.append(int(cols[i].sum()))
        for i in range(4):
            for j in range(i, 4):
                vals.append(int((cols[i] * cols[j]).sum()))
        return pa.table(
            {
                "k": pa.array(np.arange(len(vals), dtype=np.int64)),
                "v": pa.array([str(v) for v in vals], pa.string()),
            }
        )

    acc = [0] * 15
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for k, v in zip(t.column("k").to_pylist(), t.column("v").to_pylist()):
            acc[k] += int(v)
    n = acc[0]
    s = acc[1:5]
    xy = {}
    k = 5
    for i in range(4):
        for j in range(i, 4):
            xy[(i, j)] = acc[k]
            k += 1
    return n, s, xy


def q_corr_matrix(sf_dir: str):
    """Pearson correlation matrix of the four lineitem numerics
    (quantity, discount_pct, tax_pct, price_cents) from EXACT integer
    moments: per-batch partials are 15 scalars (n, four Σx, ten
    Σx·y incl. squares) accumulated in Python bigints (price-cents
    cross products overflow int64 at ~1e5 rows — the yule_k
    object-dtype discipline), folded on the driver with zero keyed
    exchange.  Each pair's ``corr_e6`` is the spearman_rho mirrored
    double chain: num = n·Sxy − Sx·Sy, den = √((n·Sxx−Sx²)(n·Syy−Sy²))
    from identical bigints on both engines.  Output: 6 rows
    ``(var_a, var_b, n, corr_e6)``.

    Contrast ``corr_stats`` (analytics.py), the per-GROUP two-column
    correlation (one r per returnflag via a keyed exchange): this is
    the ungrouped all-pairs moment MATRIX — the gram_matrix shape
    applied to raw columns — with zero exchange."""
    n, s, xy = _lineitem_moments(sf_dir)
    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            num = n * xy[(i, j)] - s[i] * s[j]
            denx = n * xy[(i, i)] - s[i] * s[i]
            deny = n * xy[(j, j)] - s[j] * s[j]
            r = float(num) / math.sqrt(float(denx) * float(deny))
            e6 = int(math.floor(abs(r) * 1e6 + 0.5)) * (1 if r >= 0 else -1)
            rows.append((_CORR_VARS[i][0], _CORR_VARS[j][0], e6))
    return pa.table(
        {
            "var_a": pa.array([r[0] for r in rows], pa.string()),
            "var_b": pa.array([r[1] for r in rows], pa.string()),
            "n": pa.array([n] * len(rows), pa.int64()),
            "corr_e6": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _sql_corr() -> str:
    exprs = {
        "qty": "cast(round(l_quantity) AS HUGEINT)",
        "disc": "cast(round(l_discount * 100) AS HUGEINT)",
        "tax": "cast(round(l_tax * 100) AS HUGEINT)",
        "price": "cast(round(cast(l_extendedprice AS DOUBLE) * 100) AS HUGEINT)",
    }
    names = [k for k, _, _ in _CORR_VARS]
    arms = []
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = names[i], names[j]
            arms.append(f"""SELECT '{a}' AS var_a, '{b}' AS var_b,
       cast(n AS BIGINT) AS n,
       cast(CASE WHEN (n * s_{a}{b} - s_{a} * s_{b}) >= 0
         THEN floor(abs((n * s_{a}{b} - s_{a} * s_{b})::DOUBLE
              / sqrt((n * s_{a}{a} - s_{a} * s_{a})::DOUBLE
                     * (n * s_{b}{b} - s_{b} * s_{b})::DOUBLE)) * 1e6 + 0.5)
         ELSE -floor(abs((n * s_{a}{b} - s_{a} * s_{b})::DOUBLE
              / sqrt((n * s_{a}{a} - s_{a} * s_{a})::DOUBLE
                     * (n * s_{b}{b} - s_{b} * s_{b})::DOUBLE)) * 1e6 + 0.5)
       END AS BIGINT) AS corr_e6
FROM m""")
    sums = ",\n       ".join(
        [f"sum({exprs[k]}) AS s_{k}" for k in names]
        + [
            f"sum({exprs[names[i]]} * {exprs[names[j]]}) AS s_{names[i]}{names[j]}"
            for i in range(4)
            for j in range(i, 4)
        ]
    )
    return f"""
WITH m AS (
  SELECT cast(count(*) AS HUGEINT) AS n,
       {sums}
  FROM lineitem)
{chr(10).join(f"{arm}{chr(10)}UNION ALL" for arm in arms[:-1])}
{arms[-1]}
"""


SQL_CORR_MATRIX = _sql_corr()


# =====================================================================
# cronbach_alpha — internal-consistency reliability (pure integer)
# =====================================================================


def q_cronbach_alpha(sf_dir: str):
    """Cronbach's α (Cronbach 1951) treating the four lineitem
    numerics as a k = 4 item battery: α = k/(k−1)·(1 − ΣV_i/V_tot)
    where V_i = n·Σx_i² − S_i² (the n²-scaled item variance — the
    scale cancels in the ratio) and V_tot = n·Σ(Σ_i x_i)² − (Σ_i S_i)²
    expands over the SAME 15 moment scalars as ``corr_matrix``
    (Σtot² = Σ_ij Sxy with off-diagonals twice), so

        α = (4·(V_tot − ΣV_i)) / (3·V_tot)

    is a PURE integer rational (no double anywhere), read out with
    the shared half-away e6 division.  Contrast ``corr_matrix``: the
    pairwise correlation read-out of the same moments; α is the
    one-number reliability summary.  Output: one row ``(n_rows,
    alpha_e6)``.  Zero keyed exchange (moment fold shared with
    corr_matrix)."""
    from .patterns import _ols_e6

    n, s, xy = _lineitem_moments(sf_dir)
    v_items = sum(n * xy[(i, i)] - s[i] * s[i] for i in range(4))
    tot2 = sum(
        (1 if i == j else 2) * xy[(min(i, j), max(i, j))]
        for i in range(4)
        for j in range(i, 4)
    )
    s_tot = sum(s)
    v_tot = n * tot2 - s_tot * s_tot
    alpha_e6 = _ols_e6(4 * (v_tot - v_items), 3 * v_tot)
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "alpha_e6": pa.array([alpha_e6], pa.int64()),
        }
    )


def _sql_cronbach() -> str:
    exprs = {
        "qty": "cast(round(l_quantity) AS HUGEINT)",
        "disc": "cast(round(l_discount * 100) AS HUGEINT)",
        "tax": "cast(round(l_tax * 100) AS HUGEINT)",
        "price": "cast(round(cast(l_extendedprice AS DOUBLE) * 100) AS HUGEINT)",
    }
    names = [k for k, _, _ in _CORR_VARS]
    sums = ",\n       ".join(
        [f"sum({exprs[k]}) AS s_{k}" for k in names]
        + [
            f"sum({exprs[names[i]]} * {exprs[names[j]]})"
            f" AS s_{names[i]}{names[j]}"
            for i in range(4)
            for j in range(i, 4)
        ]
    )
    v_items = " + ".join(
        f"(n * s_{k}{k} - s_{k} * s_{k})" for k in names
    )
    tot2 = " + ".join(
        f"{1 if i == j else 2} * s_{names[i]}{names[j]}"
        for i in range(4)
        for j in range(i, 4)
    )
    s_tot = " + ".join(f"s_{k}" for k in names)
    return f"""
WITH m AS (
  SELECT cast(count(*) AS HUGEINT) AS n,
       {sums}
  FROM lineitem),
v AS (SELECT n,
             {v_items} AS vi,
             n * ({tot2}) - ({s_tot}) * ({s_tot}) AS vt
      FROM m)
SELECT cast(n AS BIGINT) AS n_rows,
       cast(CASE WHEN 4 * (vt - vi) >= 0
                 THEN (2000000 * (4 * (vt - vi)) + 3 * vt) // (2 * 3 * vt)
                 ELSE -((2000000 * (-(4 * (vt - vi))) + 3 * vt)
                        // (2 * 3 * vt))
            END AS BIGINT) AS alpha_e6
FROM v
"""


SQL_CRONBACH = _sql_cronbach()


# =====================================================================
# effective_dim + mmd_embeddings — embedding-geometry audits over
# exact e3-quantized second-moment matrices
# =====================================================================

_EMB_E3 = 1e3  #: audit grain (values ≤ ~0.6, so q ≤ ~600; e6 would
#: push n·G − s·sᵀ squared past HUGEINT — the silhouette mixed-grain
#: precedent, documented)
_EMB_DIM = 64


def _embed_moments(sf_dir: str):
    """Per-parity-group (n, column sums s, second-moment matrix
    P = Σ q qᵀ) over the e3-quantized embeddings — exact integer
    partials per batch (64 + 64² int64 cells), folded on the driver
    as Python bigints.  Shared by ``effective_dim`` (combined) and
    ``mmd_embeddings`` (per group).  Zero keyed exchange."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _partial(t: pa.Table) -> pa.Table:
        from ..functions.embed import fixed_list_to_numpy

        x = fixed_list_to_numpy(t.column("embedding"), dtype=np.float64)
        q = _i64_away_np(x, _EMB_E3).astype(np.int64)
        vid = t.column("vec_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        rows = []
        for g in (0, 1):
            qq = q[vid % 2 == g]
            p = (qq.T @ qq).reshape(-1)
            s = qq.sum(axis=0)
            rows.append((g, len(qq), s, p))
        return pa.table(
            {
                "g": pa.array([r[0] for r in rows], pa.int64()),
                "n": pa.array([r[1] for r in rows], pa.int64()),
                "s": pa.array([r[2].tolist() for r in rows]),
                "p": pa.array([r[3].tolist() for r in rows]),
            }
        )

    acc = {
        g: [0, np.zeros(_EMB_DIM, object),
            np.zeros(_EMB_DIM * _EMB_DIM, object)]
        for g in (0, 1)
    }
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for g, n, s, p in zip(
            t.column("g").to_pylist(),
            t.column("n").to_pylist(),
            t.column("s").to_pylist(),
            t.column("p").to_pylist(),
        ):
            acc[g][0] += int(n)
            acc[g][1] += np.array(s, dtype=object)
            acc[g][2] += np.array(p, dtype=object)
    return acc


def q_effective_dim(sf_dir: str):
    """Effective dimensionality (participation ratio) of the
    embedding cloud: PR = (Σλ)²/Σλ² = tr(C)²/‖C‖F² of the covariance
    — computable EXACTLY from integer moments with NO
    eigendecomposition, because with M = n·P − s·sᵀ (the n²-scaled
    centered scatter) both tr(M) and Σ M_ij² are exact bigints and
    the n-scales cancel in the ratio:

        pr_e6 = e6( tr(M)² / Σ_ij M_ij² )

    — a PURE integer rational (HUGEINT in the twin).  PR ∈ [1, 64]:
    ~64 ⇒ isotropic embeddings, small ⇒ collapsed/anisotropic — the
    representation-quality audit run before ANN/clustering stages
    (the oracle-exact complement of the rows-only
    ``embedding_pca``).  Output: one row ``(n_vecs, pr_e6)``.  Zero
    keyed exchange (shared ``_embed_moments`` fold)."""
    from .patterns import _ols_e6

    acc = _embed_moments(sf_dir)
    n = acc[0][0] + acc[1][0]
    s = acc[0][1] + acc[1][1]
    p = acc[0][2] + acc[1][2]
    m = n * p - np.outer(s, s).reshape(-1)
    tr = int(sum(m[i * _EMB_DIM + i] for i in range(_EMB_DIM)))
    frob = int(sum(int(v) * int(v) for v in m))
    pr_e6 = _ols_e6(tr * tr, frob)
    return pa.table(
        {
            "n_vecs": pa.array([n], pa.int64()),
            "pr_e6": pa.array([pr_e6], pa.int64()),
        }
    )


def q_mmd_embeddings(sf_dir: str):
    """Quadratic-kernel Maximum Mean Discrepancy (Gretton et al.
    2012) between even- and odd-``vec_id`` embedding halves — the
    distribution-shift audit for embedding streams.  With kernel
    k(x,y) = (x·y)², every pair-sum collapses to Frobenius products
    of the per-group second-moment matrices (Σ_{i,j∈A}(x_i·x_j)² =
    ‖P_A‖F², Σ_{A×B} = ⟨P_A, P_B⟩F — no pairwise pass at all), so

        MMD² = ‖P_A‖²/n_A² + ‖P_B‖²/n_B² − 2⟨P_A,P_B⟩/(n_A·n_B)

    is an exact bigint rational (cleared to n_A²n_B²·10¹² for the e3
    grain), read out at e9 (random halves ⇒ tiny MMD).  Output: one
    row ``(n_a, n_b, mmd_e9)``.  Zero keyed exchange (shared
    ``_embed_moments`` fold)."""
    acc = _embed_moments(sf_dir)
    na, sa, pa_ = acc[0]
    nb, sb, pb = acc[1]
    faa = int(sum(int(v) * int(v) for v in pa_))
    fbb = int(sum(int(v) * int(v) for v in pb))
    fab = int(sum(int(a) * int(b) for a, b in zip(pa_, pb)))
    num = nb * nb * faa + na * na * fbb - 2 * na * nb * fab
    den = na * na * nb * nb * 10**12
    mmd_e9 = (
        (2 * 10**9 * num + den) // (2 * den)
        if num >= 0
        else -((2 * 10**9 * (-num) + den) // (2 * den))
    )
    return pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "mmd_e9": pa.array([mmd_e9], pa.int64()),
        }
    )


# shared twin CTE: full 64×64 e3 gram + column sums, per parity group
_SQL_EMB_MOMENTS = f"""
q AS (
  SELECT vec_id % 2 AS g, i.i,
         cast(round(cast(embedding[i.i] AS DOUBLE) * 1000, 0) AS BIGINT)
           AS qv,
         vec_id
  FROM embeddings, range(1, {_EMB_DIM + 1}) i(i)),
gram AS (
  SELECT a.g, a.i AS i, b.i AS j,
         cast(sum(cast(a.qv AS HUGEINT) * b.qv) AS HUGEINT) AS p
  FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.g = b.g
  GROUP BY a.g, a.i, b.i),
cs AS (SELECT g, i, cast(sum(qv) AS BIGINT) AS s
       FROM q GROUP BY g, i),
nn AS (SELECT g, cast(count(DISTINCT vec_id) AS BIGINT) AS n
       FROM q GROUP BY g)
"""

SQL_EFFECTIVE_DIM = f"""
WITH {_SQL_EMB_MOMENTS},
tot AS (SELECT cast(sum(n) AS BIGINT) AS n FROM nn),
m AS (
  SELECT gr.i, gr.j,
         tot.n * cast(gr.p AS HUGEINT)
           - cast(sa.st AS HUGEINT) * sb.st AS mv
  FROM (SELECT i, j, sum(p) AS p FROM gram GROUP BY i, j) gr,
       (SELECT i, cast(sum(s) AS BIGINT) AS st FROM cs GROUP BY i) sa,
       (SELECT i AS j, cast(sum(s) AS BIGINT) AS st FROM cs GROUP BY i) sb,
       tot
  WHERE sa.i = gr.i AND sb.j = gr.j),
f AS (SELECT
        (SELECT cast(sum(mv) AS HUGEINT) FROM m WHERE i = j) AS tr,
        (SELECT cast(sum(mv * mv) AS HUGEINT) FROM m) AS frob)
SELECT (SELECT n FROM tot) AS n_vecs,
       cast((2000000 * (tr * tr) + frob) // (2 * frob) AS BIGINT) AS pr_e6
FROM f
"""

SQL_MMD = f"""
WITH {_SQL_EMB_MOMENTS},
fr AS (
  SELECT
    (SELECT cast(sum(p * p) AS HUGEINT) FROM gram WHERE g = 0) AS faa,
    (SELECT cast(sum(p * p) AS HUGEINT) FROM gram WHERE g = 1) AS fbb,
    (SELECT cast(sum(a.p * b.p) AS HUGEINT)
     FROM gram a JOIN gram b ON a.i = b.i AND a.j = b.j
     WHERE a.g = 0 AND b.g = 1) AS fab,
    (SELECT n FROM nn WHERE g = 0) AS na,
    (SELECT n FROM nn WHERE g = 1) AS nb),
z AS (SELECT na, nb,
             cast(nb AS HUGEINT) * nb * faa
               + cast(na AS HUGEINT) * na * fbb
               - 2 * cast(na AS HUGEINT) * nb * fab AS num,
             cast(na AS HUGEINT) * na * nb * nb
               * 1000000000000 AS den
      FROM fr)
SELECT na AS n_a, nb AS n_b,
       cast(CASE WHEN num >= 0
                 THEN (2000000000 * num + den) // (2 * den)
                 ELSE -((2000000000 * (-num) + den) // (2 * den))
            END AS BIGINT) AS mmd_e9
FROM z
"""


QUERIES = {
    "ams_f2": q_ams_f2,
    "gram_matrix": q_gram_matrix,
    "hill_tail": q_hill_tail,
    "markov_entropy": q_markov_entropy,
    "corr_matrix": q_corr_matrix,
    "cronbach_alpha": q_cronbach_alpha,
    "effective_dim": q_effective_dim,
    "mmd_embeddings": q_mmd_embeddings,
}

ORACLE_SQL = {
    "ams_f2": SQL_AMS_F2,
    "gram_matrix": SQL_GRAM,
    "hill_tail": SQL_HILL,
    "markov_entropy": SQL_MARKOV_ENTROPY,
    "corr_matrix": SQL_CORR_MATRIX,
    "cronbach_alpha": SQL_CRONBACH,
    "effective_dim": SQL_EFFECTIVE_DIM,
    "mmd_embeddings": SQL_MMD,
}
