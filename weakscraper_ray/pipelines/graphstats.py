"""Round-3 continuation #17 (batch 2): whole-graph structural
measures of a derived citation graph.

The graph here is the VARIABLE-DEGREE variant of the modular citation
rule (graph.py:52): node u emits out-edges dst = (u·KNUTH + j) % n for
j = 1..(1 + u % 5).  The fixed-out-degree rule the PageRank family
uses is 3-regular in BOTH directions (gcd(KNUTH, n) = 1 makes each j a
bijection), so degree-correlation measures are undefined on it; the
variable rule gives every node out-degree 1..5 and a data-dependent
in-degree while staying arithmetic (edges re-derived per batch, never
materialised).

- ``assortativity``  Newman's degree assortativity (Newman, PRL 2002):
                     the Pearson correlation of endpoint TOTAL degrees
                     (in + out) across all directed edges.  Disassortative
                     (r < 0) graphs hub-to-leaf like the web; r > 0
                     is social-network-like — the one-number
                     partitioner-skew read-out that complements
                     ``in_degree_hist``'s full distribution.
- ``rich_club``      the rich-club coefficient φ(k) (Colizza et al.,
                     Nature Physics 2006) over a fixed k-grid:
                     among nodes with total degree > k, the fraction
                     of possible directed links realised —
                     φ(k) = E_k / (N_k·(N_k−1)).

Exactness: both reduce to bounded censuses — six bigint moment sums
(assortativity) and a per-edge min-degree census + node-degree census
(rich_club) — folded exactly; assortativity's one mirrored double is
the Pearson read-out from identical integers, rich_club's φ uses the
shared half-away e6 integer division (pure rational, no float at all).

Scale shape (the ``clustering_coeff`` broadcast idiom): ONE keyed
exchange builds per-node in-degree (payload = (node, count) partials);
the dense total-degree vector is then broadcast ONCE via ``ray.put``
(int32, nodes × 4 bytes — the same per-node dense-state contract the
BSP substrate documents) and a second streaming pass over documents
re-derives each batch's out-edges arithmetically and folds scalar /
bounded-census partials on the driver.  Zero edge materialisation,
zero second exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .relational import _read
# NOTE: _ols_e6 must be imported LAZILY (inside functions): this
# module is imported by relational's tail, so when a Ray worker
# unpickles a class defined in patterns.py, patterns is the in-flight
# outermost import and a top-level `from .patterns import` here sees a
# partially initialized module (observed: every lexicon_scan actor
# died in a restart loop under the 4-CPU test session — the mlprep
# _WS lesson).


def _ols_e6(p: int, d: int) -> int:
    """Lazy proxy for patterns._ols_e6 — see import note above."""
    from .patterns import _ols_e6 as _f

    return _f(p, d)


#: Knuth multiplicative-hash constant (same literal as graph.py's
#: _PR_KNUTH; pinned locally so the relational↔graphstats import cycle
#: stays lazy — equality asserted in tests/test_round3o.py).
_GS_KNUTH = 2654435761
#: out-degree of node u is 1 + (u % _GS_MAXOUT) ∈ 1..5
_GS_MAXOUT = 5


def _var_edges(src: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(edge_src, edge_dst) arrays under the variable-degree rule —
    vectorized: level j keeps the srcs whose out-degree is ≥ j."""
    ss, dd = [], []
    for j in range(1, _GS_MAXOUT + 1):
        keep = (src % _GS_MAXOUT) >= (j - 1)
        s = src[keep]
        ss.append(s)
        dd.append((s * _GS_KNUTH + j) % n)
    return np.concatenate(ss), np.concatenate(dd)


def _out_deg(ids: np.ndarray) -> np.ndarray:
    return 1 + (ids % _GS_MAXOUT)


def _total_degree_ref(sf_dir: str) -> tuple[int, "ray.ObjectRef"]:
    """(n, ObjectRef of the dense int32 total-degree vector).  In-degree
    via the ``in_degree_hist`` level-1 exchange shape; out-degree is
    1 + (u % 5), added arithmetically."""
    from ray.data.aggregate import Sum

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()  # parquet-metadata count; no scan

    def _partial(t: pa.Table, n=n) -> pa.Table:
        src = t.column("doc_id").to_numpy()
        _, dst = _var_edges(src, n)
        doc = np.concatenate([src, dst])
        ones = np.concatenate(
            [
                np.zeros(len(src), dtype=np.int64),
                np.ones(len(dst), np.int64),
            ]
        )
        out = pa.table(
            {"doc_id": pa.array(doc, pa.int64()), "c": pa.array(ones, pa.int64())}
        )
        return out.group_by("doc_id").aggregate([("c", "sum")]).rename_columns(
            ["doc_id", "c"]
        )

    deg = (
        ds0.map_batches(_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("c", alias_name="indeg"))
    )
    degv = _out_deg(np.arange(n, dtype=np.int64)).astype(np.int32)
    for t in deg.iter_batches(batch_format="pyarrow", batch_size=None):
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        degv[ids] += t.column("indeg").to_numpy(zero_copy_only=False).astype(
            np.int32
        )
    return n, ray.put(degv)


#: SQL twin of the variable-degree graph + total-degree table, shared
#: by both oracles.
_SQL_DEG = f"""
nodes AS (SELECT doc_id FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n FROM nodes),
edges AS (
  SELECT n.doc_id AS src, (n.doc_id * {_GS_KNUTH} + j.j) % p.n AS dst
  FROM nodes n, p, range(1, {_GS_MAXOUT + 1}) j(j)
  WHERE j.j <= 1 + n.doc_id % {_GS_MAXOUT}
),
deg AS (
  SELECT n.doc_id,
         cast(count(e.dst) + 1 + n.doc_id % {_GS_MAXOUT} AS BIGINT) AS d
  FROM nodes n LEFT JOIN edges e ON e.dst = n.doc_id
  GROUP BY n.doc_id
)"""


# =====================================================================
# assortativity — Pearson r of endpoint degrees over directed edges
# =====================================================================


def q_assortativity(sf_dir: str):
    """Degree assortativity r of the derived citation graph: Pearson
    correlation of (total degree of source, total degree of target)
    over all ≈3n directed edges of the variable-degree rule.  Output:
    one row
    ``(m_edges, sx, sy, r_e6)`` — the moment sums are exact bigints;
    ``r_e6`` is the one mirrored double read-out."""
    n, deg_ref = _total_degree_ref(sf_dir)
    ds0 = _read(sf_dir, "documents", ["doc_id"])

    def _moments(t: pa.Table, n=n) -> pa.Table:
        degv = ray.get(deg_ref)
        src = t.column("doc_id").to_numpy()
        es, ed = _var_edges(src, n)
        x = degv[es].astype(np.int64)
        y = degv[ed].astype(np.int64)
        return pa.table(
            {
                "m": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    m = sx = sy = sxy = sxx = syy = 0
    for t in ds0.map_batches(_moments, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        m += sum(t.column("m").to_pylist())
        sx += sum(t.column("sx").to_pylist())
        sy += sum(t.column("sy").to_pylist())
        sxy += sum(t.column("sxy").to_pylist())
        sxx += sum(t.column("sxx").to_pylist())
        syy += sum(t.column("syy").to_pylist())
    num = m * sxy - sx * sy
    denx = m * sxx - sx * sx
    deny = m * syy - sy * sy
    r = float(num) / math.sqrt(float(denx) * float(deny))
    r_e6 = int(math.floor(abs(r) * 1e6 + 0.5)) * (1 if r >= 0 else -1)
    return pa.table(
        {
            "m_edges": pa.array([m], pa.int64()),
            "sx": pa.array([sx], pa.int64()),
            "sy": pa.array([sy], pa.int64()),
            "r_e6": pa.array([r_e6], pa.int64()),
        }
    )


SQL_ASSORTATIVITY = f"""
WITH {_SQL_DEG},
j AS (SELECT cast(a.d AS HUGEINT) AS x, cast(b.d AS HUGEINT) AS y
      FROM edges e JOIN deg a ON a.doc_id = e.src
                   JOIN deg b ON b.doc_id = e.dst),
s AS (SELECT cast(count(*) AS HUGEINT) AS m, sum(x) AS sx, sum(y) AS sy,
             sum(x * y) AS sxy, sum(x * x) AS sxx, sum(y * y) AS syy
      FROM j),
f AS (SELECT m, sx, sy,
             (m * sxy - sx * sy) AS num,
             (m * sxx - sx * sx) AS denx,
             (m * syy - sy * sy) AS deny
      FROM s)
SELECT cast(m AS BIGINT) AS m_edges,
       cast(sx AS BIGINT) AS sx,
       cast(sy AS BIGINT) AS sy,
       cast(CASE WHEN num >= 0
         THEN floor(1e6 * num::DOUBLE
                    / sqrt(denx::DOUBLE * deny::DOUBLE) + 0.5)
         ELSE -floor(1e6 * (-num)::DOUBLE
                    / sqrt(denx::DOUBLE * deny::DOUBLE) + 0.5)
       END AS BIGINT) AS r_e6
FROM f
"""


# =====================================================================
# rich_club — φ(k) over a fixed degree-threshold grid
# =====================================================================

_RC_KMAX = 16


def q_rich_club(sf_dir: str):
    """Rich-club coefficient φ(k) = E_k / (N_k·(N_k−1)) for
    k = 0..{kmax}: N_k = nodes with total degree > k, E_k = directed
    edges with BOTH endpoint degrees > k.  Pure rational — φ via the
    shared half-away e6 integer division; rows with N_k ≤ 1 drop
    (undefined club).  Output: ``(k, n_k, e_k, phi_e6)`` rows.

    E_k for every k comes from ONE bounded census — the per-edge
    min-endpoint-degree histogram — folded on the driver from the same
    broadcast-degree streaming pass as ``assortativity``; N_k comes
    from the node-degree histogram of the dense vector itself."""
    n, deg_ref = _total_degree_ref(sf_dir)
    ds0 = _read(sf_dir, "documents", ["doc_id"])

    def _min_census(t: pa.Table, n=n) -> pa.Table:
        degv = ray.get(deg_ref)
        src = t.column("doc_id").to_numpy()
        es, ed = _var_edges(src, n)
        md = np.minimum(degv[es], degv[ed]).astype(np.int64)
        vals, cnts = np.unique(md, return_counts=True)
        return pa.table(
            {
                "md": pa.array(vals, pa.int64()),
                "c": pa.array(cnts.astype(np.int64)),
            }
        )

    census: dict[int, int] = {}
    for t in ds0.map_batches(_min_census, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for v, c in zip(t.column("md").to_pylist(), t.column("c").to_pylist()):
            census[int(v)] = census.get(int(v), 0) + int(c)
    degv = ray.get(deg_ref)
    ks, nks, eks, phis = [], [], [], []
    for k in range(_RC_KMAX):
        n_k = int((degv > k).sum())
        if n_k <= 1:
            continue
        e_k = sum(c for v, c in census.items() if v > k)
        ks.append(k)
        nks.append(n_k)
        eks.append(e_k)
        phis.append(_ols_e6(e_k, n_k * (n_k - 1)))
    return pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "n_k": pa.array(nks, pa.int64()),
            "e_k": pa.array(eks, pa.int64()),
            "phi_e6": pa.array(phis, pa.int64()),
        }
    )


q_rich_club.__doc__ = q_rich_club.__doc__.format(kmax=_RC_KMAX - 1)

SQL_RICH_CLUB = f"""
WITH {_SQL_DEG},
em AS (SELECT least(a.d, b.d) AS md
       FROM edges e JOIN deg a ON a.doc_id = e.src
                    JOIN deg b ON b.doc_id = e.dst),
grid AS (SELECT k FROM range(0, {_RC_KMAX}) t(k)),
f AS (
  SELECT g.k,
         (SELECT cast(count(*) AS BIGINT) FROM deg WHERE deg.d > g.k)
           AS n_k,
         (SELECT cast(count(*) AS BIGINT) FROM em WHERE em.md > g.k)
           AS e_k
  FROM grid g)
SELECT cast(k AS BIGINT) AS k, n_k, e_k,
       cast((2000000 * e_k + n_k * (n_k - 1))
            // (2 * n_k * (n_k - 1)) AS BIGINT) AS phi_e6
FROM f
WHERE n_k > 1
"""


QUERIES = {
    "assortativity": q_assortativity,
    "rich_club": q_rich_club,
}

ORACLE_SQL = {
    "assortativity": SQL_ASSORTATIVITY,
    "rich_club": SQL_RICH_CLUB,
}
