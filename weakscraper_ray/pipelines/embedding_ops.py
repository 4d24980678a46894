"""Embedding-space operators: distributed exact PCA (the
whitening/compression step that precedes ANN indexing in production
similarity pipelines — public idiom: OPQ/PCA rotation before IVF, e.g.
Jégou et al., "Product Quantization for Nearest Neighbor Search",
TPAMI 2011) and an oracled per-dimension moment profile.

Scale shapes:

- ``embedding_dim_stats``: per-batch moment partials (one 64-row table
  per batch: dim, n, s, ss) → one tiny ``groupby(dim)`` exchange whose
  payload is 3 doubles per dimension per batch — never a vector.
- ``embedding_pca``: classic two-pass distributed PCA. Pass 1 computes
  per-batch Gram partials (n, Σx, ΣxᵀΣx as a d×d block); the driver
  reduces the ~d² floats per block (bounded by block count × 33 KB,
  NOT by corpus size), eigendecomposes the d×d covariance (trivial at
  any corpus scale — the matrix is d×d regardless of row count), and
  broadcasts (μ, W) once via ``ray.put``. Pass 2 is an embarrassingly
  parallel streaming projection. No all-to-all anywhere.

Determinism: partials are reduced in sorted order of each block's
minimum vec_id and eigenvector signs are fixed (largest-|component|
coordinate made positive), so the output is reproducible for a given
blocking. Exact float equality across DIFFERENT blockings is not
guaranteed (summation order), which is why ``embedding_pca`` is
rows-only for the driver; ``tests/test_round3b.py`` pins it against a
single-threaded numpy twin with tolerance plus orthonormality /
variance-spectrum invariants.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.embed import fixed_list_to_numpy
from .relational import _i64_away_np, _read

_DIM = 64
#: retained PCA components (the compressed ANN dimensionality)
_PCA_K = 8

# =====================================================================
# Per-dimension moment profile (oracled: integer e6 mirrors)
# =====================================================================


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension mean and population variance of the embedding
    table (×1e6, half-away rounded like the DuckDB twin) — the profile
    pass that sizes PCA/quantization decisions.

    Both sides accumulate float64 sums and compute
    ``ss/n - (s/n)^2`` op-for-op, so the only divergence is summation
    order (~1e-13 relative), far below the e6 rounding grain."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _partial(batch: pa.Table) -> pa.Table:
        x = fixed_list_to_numpy(batch.column("embedding"), np.float64)
        return pa.table(
            {
                "dim": pa.array(np.arange(_DIM, dtype=np.int32)),
                "n_part": pa.array(
                    np.full(_DIM, len(x), dtype=np.int64)
                ),
                "s": pa.array(x.sum(axis=0)),
                "ss": pa.array((x * x).sum(axis=0)),
            }
        )

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(
            Sum("n_part", alias_name="n"),
            Sum("s", alias_name="s_tot"),
            Sum("ss", alias_name="ss_tot"),
        )
    )

    def _final(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        s = batch.column("s_tot").to_numpy(zero_copy_only=False)
        ss = batch.column("ss_tot").to_numpy(zero_copy_only=False)
        mean = s / n
        var = ss / n - mean * mean  # op-order mirror of the SQL
        return pa.table(
            {
                "dim": batch.column("dim"),
                "n": batch.column("n"),
                "mean_e6": pa.array(_i64_away_np(mean, 1e6)),
                "var_e6": pa.array(_i64_away_np(var, 1e6)),
            }
        )

    return agg.map_batches(_final, batch_format="pyarrow")


SQL_EMBEDDING_DIM_STATS = f"""
SELECT cast(i - 1 AS BIGINT) AS dim,
       cast(count(*) AS BIGINT) AS n,
       cast(round(sum(cast(embedding[i] AS DOUBLE)) / count(*) * 1000000,
                  0) AS BIGINT) AS mean_e6,
       cast(round((sum(cast(embedding[i] AS DOUBLE) *
                       cast(embedding[i] AS DOUBLE)) / count(*)
                   - pow(sum(cast(embedding[i] AS DOUBLE)) / count(*), 2))
                  * 1000000, 0) AS BIGINT) AS var_e6
FROM embeddings, range(1, {_DIM + 1}) t(i)
GROUP BY i
"""


# =====================================================================
# Distributed exact PCA: Gram partials → driver eigh → broadcast proj
# =====================================================================


def _pca_partials(ds) -> list[dict]:
    """Per-block (min vec_id, n, Σx, XᵀX) partials, collected to the
    driver. The collected set is O(num_blocks × d²) — independent of
    row count — which is the standard legal driver materialization
    (same bound class as a groupby over a fixed key domain)."""

    def _gram(batch: pa.Table) -> pa.Table:
        x = fixed_list_to_numpy(batch.column("embedding"), np.float64)
        vid = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "block_key": pa.array([int(vid.min())], pa.int64()),
                "n": pa.array([len(x)], pa.int64()),
                "s": pa.array([x.sum(axis=0).tolist()]),
                "g": pa.array([(x.T @ x).reshape(-1).tolist()]),
            }
        )

    return ds.map_batches(_gram, batch_format="pyarrow").take_all()


def fit_pca(sf_dir: str, k: int = _PCA_K):
    """Fit the PCA model: returns (mu, W, eigvals) with W of shape
    (d, k), columns orthonormal, signs fixed deterministically."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    parts = sorted(_pca_partials(ds), key=lambda r: r["block_key"])
    n = sum(p["n"] for p in parts)
    s = np.sum([np.asarray(p["s"]) for p in parts], axis=0)
    g = np.sum(
        [np.asarray(p["g"]).reshape(_DIM, _DIM) for p in parts], axis=0
    )
    mu = s / n
    cov = g / n - np.outer(mu, mu)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1][:k]
    w = eigvecs[:, order]
    vals = eigvals[order]
    # deterministic sign: the largest-|component| coordinate is positive
    flip = w[np.abs(w).argmax(axis=0), np.arange(w.shape[1])] < 0
    w[:, flip] *= -1.0
    return mu, w, vals


def q_embedding_pca(sf_dir: str):
    """Project every embedding onto its corpus' top-k principal
    components — distributed exact PCA (two linear passes, no
    shuffle). Output: (vec_id, pc fixed_size_list<float32, k>).

    Rows-only for the driver (eigenvectors are float-summation-order
    sensitive across blockings); pinned in tests against a
    single-threaded twin with tolerance + spectral invariants."""
    mu, w, _ = fit_pca(sf_dir)
    model = ray.put((mu, w))

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _project(batch: pa.Table) -> pa.Table:
        m, proj = ray.get(model)
        x = fixed_list_to_numpy(batch.column("embedding"), np.float64)
        coords = ((x - m) @ proj).astype(np.float32)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "pc": pa.FixedSizeListArray.from_arrays(
                    pa.array(coords.reshape(-1), pa.float32()),
                    coords.shape[1],
                ),
            }
        )

    return ds.map_batches(_project, batch_format="pyarrow")


# =====================================================================
# Johnson–Lindenstrauss sign projection (oracle-exact dim reduction)
# =====================================================================

#: output dimensionality of the random projection
_RP_K = 16
#: affine-hash constants for the ±1 sign matrix — the repo's
#: "expressible verbatim in SQL" sketch-hash pattern (see cms_estimate)
_RP_A, _RP_B, _RP_C = 2654435761, 40503, 12345
_RP_P = 2147483647


def _rp_signs() -> np.ndarray:
    """(d_in × d_out) ±1 matrix: s(i,j) = +1 iff
    ((i·A + j·B + C) mod P) is even — Achlioptas-style database-
    friendly JL projection (Achlioptas, JCSS 2003) with the sign drawn
    from an affine hash instead of an RNG so the SQL twin can generate
    the SAME matrix."""
    i = np.arange(_DIM, dtype=np.int64)[:, None]
    j = np.arange(_RP_K, dtype=np.int64)[None, :]
    h = (i * _RP_A + j * _RP_B + _RP_C) % _RP_P
    return np.where(h % 2 == 0, 1, -1).astype(np.int64)


def q_embedding_rp(sf_dir: str):
    """Project every embedding from 64 → 16 dims with a deterministic
    ±1 Johnson–Lindenstrauss matrix — the cheap dimensionality-
    reduction step before LSH bucketing when PCA's data pass is too
    expensive.  INTEGER-EXACT (unusual for an embedding op): each
    component is e6-quantized FIRST, the projection is then a pure
    int64 matmul against the hash-generated sign matrix, so the result
    is partitioning-independent and hash-exact vs SQL.  Embarrassingly
    parallel — one streaming map, no exchange, nothing on the driver."""
    signs = _rp_signs()
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _project(batch: pa.Table, signs=signs) -> pa.Table:
        x = fixed_list_to_numpy(batch.column("embedding"), np.float64)
        q = _i64_away_np(x, 1e6)  # e6 ints; |q| ≤ ~2e6 → matmul ≤ 1.3e8
        out = q @ signs  # int64-exact
        vid = batch.column("vec_id").to_numpy(zero_copy_only=False)
        nr = len(vid)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vid, _RP_K).astype(np.int64)),
                "dim_out": pa.array(
                    np.tile(np.arange(_RP_K, dtype=np.int64), nr)
                ),
                "proj_e6": pa.array(out.reshape(-1)),
            }
        )

    return ds.map_batches(_project, batch_format="pyarrow")


SQL_EMBEDDING_RP = f"""
WITH q AS (
  SELECT vec_id, i - 1 AS i,
         cast(round(cast(embedding[i] AS DOUBLE) * 1000000, 0) AS BIGINT) AS e
  FROM embeddings, range(1, {_DIM + 1}) t(i))
SELECT q.vec_id, j.j AS dim_out,
       cast(sum(CASE WHEN ((q.i * {_RP_A} + j.j * {_RP_B} + {_RP_C})
                           % {_RP_P}) % 2 = 0
                     THEN q.e ELSE -q.e END) AS BIGINT) AS proj_e6
FROM q, range(0, {_RP_K}) j(j)
GROUP BY 1, 2
"""


# =====================================================================
# kNN label agreement (mislabel / label-noise detection)
# =====================================================================

#: neighbours per vector for the agreement vote
_LKA_K = 5


def q_label_knn_agreement(sf_dir: str):
    """Per-vector label-noise signal: of the k=5 cosine-nearest
    neighbours (self excluded), how many share the vector's label —
    the confident-learning-style read-out (Northcutt et al., JAIR
    2021) a curation pass runs before trusting a labeled set.

    Exactness: neighbour rank = (score rounded e4 DESC, vec_id ASC) —
    the green knn_cosine contract; Ray asks the brute-force stage for
    k+1 and drops self, which provably equals SQL's exclude-self
    top-k (self is either inside the k+1 or strictly dominated by it).
    The match count is integer.  This all-queries brute-force is the
    VERIFICATION path (every vector vs the broadcast matrix, O(N²/B)
    per batch); the production path at corpus scale is the same vote
    over IVF buckets (knn_ivf's partitioning), swap documented."""
    import pyarrow.parquet as pq

    from ..functions.similarity import knn_brute_force
    from .relational import _p

    qt = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding", "label"])
    ids = qt.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    labels = np.zeros(int(ids.max()) + 1, dtype=np.int64)
    labels[ids] = qt.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
    labels_ref = ray.put(labels)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    nn = knn_brute_force(
        ds,
        ids.tolist(),
        qt.column("embedding").to_pylist(),
        k=_LKA_K + 1,
    )

    def _vote(t: pa.Table, labels_ref=labels_ref) -> pa.Table:
        labels = ray.get(labels_ref)
        qid = t.column("query_id").to_numpy(zero_copy_only=False).astype(np.int64)
        vid = t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        sc = _i64_away_np(t.column("score").to_numpy(zero_copy_only=False), 1e4)
        keep = qid != vid  # drop self
        qid, vid, sc = qid[keep], vid[keep], sc[keep]
        # trim to k per query under the (score_e4 DESC, vec_id ASC) rank
        order = np.lexsort((vid, -sc, qid))
        qid, vid = qid[order], vid[order]
        first = np.ones(len(qid), dtype=bool)
        first[1:] = qid[1:] != qid[:-1]
        rank = np.arange(len(qid)) - np.maximum.accumulate(
            np.where(first, np.arange(len(qid)), 0)
        )
        keep = rank < _LKA_K
        qid, vid = qid[keep], vid[keep]
        df = pd.DataFrame(
            {
                "vec_id": qid,
                "match": (labels[vid] == labels[qid]).astype(np.int64),
            }
        )
        g = df.groupby("vec_id", sort=False).agg(
            n_match=("match", "sum"), n_neighbors=("match", "size")
        ).reset_index()
        return pa.table(
            {
                "vec_id": pa.array(g["vec_id"].to_numpy(np.int64)),
                "label": pa.array(labels[g["vec_id"].to_numpy(np.int64)]),
                "n_match": pa.array(g["n_match"].to_numpy(np.int64)),
                "n_neighbors": pa.array(g["n_neighbors"].to_numpy(np.int64)),
            }
        )

    # global_topk already produced ≤ k+1 rows per query in one group —
    # batches may split queries, but each query's rows stay within one
    # map_groups output block, so the per-batch vote never splits a query
    return nn.map_batches(_vote, batch_format="pyarrow", batch_size=None)


SQL_LABEL_KNN = f"""
WITH nn AS (
  SELECT query_id, vec_id FROM (
    SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
           row_number() OVER (
             PARTITION BY q.vec_id
             ORDER BY round(list_cosine_similarity(q.embedding, e.embedding)
                            * 10000, 0) DESC,
                      e.vec_id ASC) AS rn
    FROM embeddings q CROSS JOIN embeddings e
    WHERE e.vec_id <> q.vec_id)
  WHERE rn <= {_LKA_K})
SELECT nn.query_id AS vec_id,
       cast(max(ql.label) AS BIGINT) AS label,
       cast(sum(CASE WHEN nl.label = ql.label THEN 1 ELSE 0 END) AS BIGINT)
           AS n_match,
       cast(count(*) AS BIGINT) AS n_neighbors
FROM nn
JOIN embeddings ql ON ql.vec_id = nn.query_id
JOIN embeddings nl ON nl.vec_id = nn.vec_id
GROUP BY nn.query_id
"""


QUERIES = {
    "embedding_dim_stats": q_embedding_dim_stats,
    "embedding_pca": q_embedding_pca,
    "embedding_rp": q_embedding_rp,
    "label_knn_agreement": q_label_knn_agreement,
}

ORACLE_SQL = {
    "embedding_dim_stats": SQL_EMBEDDING_DIM_STATS,
    "embedding_rp": SQL_EMBEDDING_RP,
    "label_knn_agreement": SQL_LABEL_KNN,
}
