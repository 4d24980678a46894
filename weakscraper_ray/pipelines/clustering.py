"""Clustering family: integer-exact distributed k-means (Lloyd's
algorithm) over the embedding table — the corpus-organization step of
a training-data pipeline (topic balancing / dedup-cluster sampling /
IVF coarse quantizer training all start from exactly this loop; the
public idiom is Lloyd 1982 + the Spark MLlib "cache the working set,
broadcast the centroids" execution shape).

Why this is driver-hash-exact (the hard part for an iterative float
algorithm): ALL arithmetic is int64.

- Vectors are quantized once to e6 grain (``rint(x * 1e6)``); the
  quantizer is the only shared math between the Ray path and the
  oracle twin (same pattern as the simhash signature twin).
- Distances are exact integer squared-L2 via the expansion
  ``|x|^2 - 2 x·c + |c|^2`` (max |coord| ~2e6 → x·c ≤ 64·4e12 ≈
  2.6e14, comfortably inside int64). argmin ties resolve to the
  LOWEST cluster id on both sides (numpy argmin semantics, mirrored
  explicitly in the twin's per-cluster loop).
- Centroid update is elementwise ``sum // count`` (floor division of
  int64 sums). Integer sums are associative, so the update is
  independent of block partitioning — no float-summation hash risk
  anywhere in the loop.

Scale shape (iterative refinement on Ray Data):

- The quantized working set is materialized ONCE and re-scanned each
  iteration — the published iterative-ML execution shape (Spark RDD
  ``cache()`` for k-means); Ray's object store spills it under
  pressure, so the corpus need not fit in RAM.
- Each iteration is ONE streaming ``map_batches`` whose output is a
  K×(dim+1)-row partial (per-cluster int64 coordinate sums + count)
  per batch — the reduce payload is bounded by K·dim·#blocks, never
  by corpus size, so it is driver-reduced like ``embedding_pca``'s
  Gram partials (no exchange at all in the update step).
- Centroids (K×dim int64 ≈ 4 KB) are broadcast via closure capture —
  small-side broadcast, never a shuffle join.
- The final labeling pass is embarrassingly parallel and streams to
  the caller (assignments never collect on the driver).

At a real 100 TB run K and dim stay small (K ≤ 65k for IVF training);
the driver-side reduce is K·(dim+1)·#blocks int64s — for 1e5 blocks,
K=256, dim=64 that is ~1.3 GB, at which point the partial tables go
through one tiny ``groupby(cluster, dim).Sum`` exchange instead
(documented swap-in, same partial shape).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.embed import fixed_list_to_numpy
from .relational import _i64_away_np, _p, _read

_K = 8          #: cluster-count floor (IVF-coarse-quantizer scale)
#: SemDeDup scaling rule (round 5): cluster count grows with corpus so
#: per-cluster size stays bounded — the per-cluster similarity matmul
#: in semdedup/dedup_chain is O(size²), so a FIXED k makes that stage
#: quadratic in corpus size (measured: dedup_chain 32 s at 10× with
#: k=8). k = max(_K, n_vecs // _TARGET_CLUSTER) keeps cluster size
#: ≈ _TARGET_CLUSTER at any scale while yielding EXACTLY _K at every
#: oracle-tested SF (sf0.1 has 2000 vectors → 2000//250 = 8), so the
#: deterministic SQL twins are unchanged where they exist.
_TARGET_CLUSTER = 250
_ITERS = 4      #: fixed Lloyd iterations (deterministic, no tolerance)


def _k_for(n_vecs: int) -> int:
    return max(_K, n_vecs // _TARGET_CLUSTER)
_SCALE = 10**6  #: e6 quantization grain


def quantize_e6(mat: np.ndarray) -> np.ndarray:
    """float embedding matrix → int64 e6 grid (shared with the twin:
    one deterministic op, like the simhash signature twin)."""
    return np.rint(mat.astype(np.float64) * _SCALE).astype(np.int64)


def _init_centroids(base, k: int = _K) -> np.ndarray:
    """Deterministic init: the vectors of the k smallest vec_ids,
    taken from the already-quantized cached working set (no extra
    base-data pass). Distributed partial top-k per batch (k rows
    each), tiny driver combine — no sort exchange for a k-row
    answer."""

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        keep = np.argsort(ids, kind="stable")[:k]
        return batch.take(keep)

    cand = base.map_batches(_partial, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: r["vec_id"])
    return np.array([r["q"] for r in cand[:k]], dtype=np.int64)


def _assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n,) argmin cluster ids; exact int64 squared-L2 via the
    ``|x|^2 - 2 x·c + |c|^2`` expansion (ties → lowest id)."""
    cross = X @ C.T                     # (n, K) int64
    c2 = np.einsum("kd,kd->k", C, C)    # (K,)
    # |x|^2 is constant per row — drop it for the argmin
    return (c2[None, :] - 2 * cross).argmin(axis=1)


def kmeans_fit(sf_dir: str):
    """Shared Lloyd fit: (cached quantized working set, final int64
    centroids). Consumed by ``q_kmeans_clusters`` and by the SemDeDup
    pass in ``neardup.py`` — one fit, two read-outs."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _to_quantized(batch: pa.Table) -> pa.Table:
        x = quantize_e6(fixed_list_to_numpy(batch.column("embedding")))
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "q": pa.array(list(x), pa.list_(pa.int64())),
            }
        )

    # cache the quantized working set once; _ITERS + 2 scans follow
    base = ds.map_batches(_to_quantized, batch_format="pyarrow").materialize()

    # k scales with corpus size (cluster size stays ~_TARGET_CLUSTER);
    # == _K at every oracle-tested SF, so the SQL twins are unchanged
    C = _init_centroids(base, _k_for(base.count()))
    for _ in range(_ITERS):
        Cb = C  # rebind for closure capture (broadcast ~4 KB)

        def _partial(batch: pa.Table, C=Cb) -> pa.Table:
            X = fixed_list_to_numpy(batch.column("q"), dtype=np.int64).astype(
                np.int64
            )
            a = _assign(X, C)
            k, dim = C.shape
            sums = np.zeros((k, dim), dtype=np.int64)
            np.add.at(sums, a, X)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            # flattened partial: dim rows of coordinate sums + one
            # count row (dim = -1) per cluster
            cl = np.repeat(np.arange(k, dtype=np.int64), dim)
            dims = np.tile(np.arange(dim, dtype=np.int64), k)
            return pa.table(
                {
                    "cluster": pa.array(
                        np.concatenate([cl, np.arange(k, dtype=np.int64)])
                    ),
                    "dim": pa.array(
                        np.concatenate(
                            [dims, np.full(k, -1, dtype=np.int64)]
                        )
                    ),
                    "s": pa.array(
                        np.concatenate([sums.ravel(), counts])
                    ),
                }
            )

        parts = base.map_batches(_partial, batch_format="pyarrow").take_all()
        k, dim = C.shape
        sums = np.zeros((k, dim), dtype=np.int64)
        counts = np.zeros(k, dtype=np.int64)
        for r in parts:  # bounded: K*(dim+1) rows per block
            if r["dim"] < 0:
                counts[r["cluster"]] += r["s"]
            else:
                sums[r["cluster"], r["dim"]] += r["s"]
        nonempty = counts > 0
        C = C.copy()
        C[nonempty] = sums[nonempty] // counts[nonempty, None]

    return base, C


def q_kmeans_clusters(sf_dir: str):
    """(vec_id, cluster, dist_e12): final Lloyd assignment plus the
    exact int64 squared distance (e12 units = (e6 grain)^2)."""
    base, Cf = kmeans_fit(sf_dir)

    def _label(batch: pa.Table, C=Cf) -> pa.Table:
        X = fixed_list_to_numpy(batch.column("q"), dtype=np.int64).astype(
            np.int64
        )
        a = _assign(X, C)
        diff = X - C[a]
        dist = np.einsum("nd,nd->n", diff, diff)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cluster": pa.array(a.astype(np.int64)),
                "dist_e12": pa.array(dist),
            }
        )

    return base.map_batches(_label, batch_format="pyarrow")


# =====================================================================
# DBSCAN — density-based clustering with core/border/noise roles
# =====================================================================

_DBSCAN_MINPTS = 4  #: deg (incl. self) threshold for a core point
#: eps² in (e6 grain)² units, pinned per corpus scale (the k-distance
#: elbow moves with point density, so a single eps degenerates at one
#: of the test scales: 1.35e12 ≈ cos 0.325 keeps 500-point corpora at
#: a 160/200/140 core/border/noise mix, 1.28e12 keeps the 2000-point
#: corpus at 1203/652/145 with 6 clusters instead of one giant blob)
_DBSCAN_EPS2_SMALL = 1_350_000_000_000  # n <= _DBSCAN_GATE
_DBSCAN_EPS2_LARGE = 1_280_000_000_000
_DBSCAN_GATE = 1000


def _dbscan_matrix(sf_dir: str):
    """(ids, quantized matrix, eps²) — the embedding side-table is
    the SMALL side here (the ``q_embedding_neardup_exact`` broadcast
    idiom: read once on the driver, ``ray.put`` once, read per
    actor); quantization is the shared half-away e6 rule so the SQL
    twin's round() is bit-identical."""
    t = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    q = _i64_away_np(
        fixed_list_to_numpy(t.column("embedding"), dtype=np.float64), 1e6
    )
    # sort by vec_id so column order == id order: the labeling pass
    # reads "first core neighbor" (argmax) as "MIN-id core neighbor"
    order = np.argsort(ids, kind="stable")
    ids, q = ids[order], q[order]
    eps2 = _DBSCAN_EPS2_SMALL if len(ids) <= _DBSCAN_GATE else _DBSCAN_EPS2_LARGE
    return ids, q.astype(np.int64), eps2


def q_dbscan_clusters(sf_dir: str):
    """Exact DBSCAN (Ester et al. 1996) over the quantized embedding
    table, with the deterministic border rule (a border point joins
    the cluster of its MINIMUM-id core neighbor — textbook DBSCAN
    leaves border assignment scan-order-dependent, which would never
    driver-hash).  All arithmetic is int64: squared L2 via the
    |x|²+|y|²−2x·y expansion on the e6 grid, eps² an integer
    threshold, deg (incl. self) ≥ minPts = 4 marks cores.  Output:
    (vec_id, role ∈ {core, border, noise}, cluster_id = min vec_id of
    the core component, −1 for noise).

    Shape (three streaming passes over the embedding table, each
    against the ONE broadcast quantized matrix):

    1. degree pass → per-batch (vec_id, is_core) — core flags fold on
       the driver (N booleans, the bounded-census discipline);
    2. edge pass → core-core neighbor pairs (a < b) plus one
       (u, u) self-loop per core so singleton clusters survive;
       components via :func:`weakscraper_ray.functions.dedup.
       cluster_pairs` (driver union-find under its logged 1M-edge
       gate, distributed min-label propagation above it);
    3. labeling pass → roles + cluster ids per batch from the
       broadcast core mask / label vector; the output streams.

    The O(N·batch) adjacency sweep against a broadcast matrix is the
    exact-oracle path (same contract as ``embedding_neardup_exact``);
    at 100 TB the scale path is the bucketed LSH candidate generation
    already used by ``embedding_neardup`` — swap pass 1/2's pair
    source, keep passes' folds."""
    ids, q, eps2 = _dbscan_matrix(sf_dir)
    n = len(ids)
    ref = ray.put({"ids": ids, "q": q})

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _quant(batch: pa.Table) -> pa.Table:
        x = _i64_away_np(
            fixed_list_to_numpy(batch.column("embedding"), dtype=np.float64),
            1e6,
        )
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "qv": pa.array(list(x.astype(np.int64)), pa.list_(pa.int64())),
            }
        )

    base = ds.map_batches(_quant, batch_format="pyarrow").materialize()

    def _adj_block(batch: pa.Table):
        """(bids, boolean batch × all adjacency) vs the broadcast."""
        m = ray.get(ref)
        X = fixed_list_to_numpy(batch.column("qv"), dtype=np.int64)
        bids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        d2 = (
            np.einsum("nd,nd->n", X, X)[:, None]
            + np.einsum("nd,nd->n", m["q"], m["q"])[None, :]
            - 2 * (X @ m["q"].T)
        )
        return bids, m["ids"], d2 <= eps2

    def _degree(batch: pa.Table) -> pa.Table:
        bids, _, adj = _adj_block(batch)
        return pa.table(
            {
                "vec_id": pa.array(bids, pa.int64()),
                "is_core": pa.array(
                    adj.sum(axis=1) >= _DBSCAN_MINPTS, pa.bool_()
                ),
            }
        )

    core_mask = np.zeros(n, dtype=bool)  # vec_ids are dense 0..n-1
    for t in base.map_batches(_degree, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        core_mask[t.column("vec_id").to_numpy(zero_copy_only=False)] = (
            t.column("is_core").to_numpy(zero_copy_only=False)
        )
    mask_ref = ray.put(core_mask)

    def _core_edges(batch: pa.Table) -> pa.Table:
        mask = ray.get(mask_ref)
        bids, aids, adj = _adj_block(batch)
        bcore = mask[bids]
        # (a < b) core-core pairs, owned by the lower-id side
        pair = adj & bcore[:, None] & mask[aids][None, :] & (
            bids[:, None] < aids[None, :]
        )
        bi, oi = np.nonzero(pair)
        a = np.concatenate([bids[bi], bids[bcore]])  # + self-loops
        b = np.concatenate([aids[oi], bids[bcore]])
        return pa.table(
            {
                "vec_a": pa.array(a, pa.int64()),
                "vec_b": pa.array(b, pa.int64()),
            }
        )

    from ..functions.dedup import cluster_pairs

    comp = cluster_pairs(
        base.map_batches(_core_edges, batch_format="pyarrow"),
        a_col="vec_a",
        b_col="vec_b",
        id_col="vec_id",
    )
    labels = np.full(n, -1, dtype=np.int64)
    for r in comp.take_all():  # bounded by #cores
        labels[r["vec_id"]] = r["cluster_id"]
    label_ref = ray.put(labels)

    def _label(batch: pa.Table) -> pa.Table:
        mask = ray.get(mask_ref)
        lab = ray.get(label_ref)
        bids, aids, adj = _adj_block(batch)
        bcore = mask[bids]
        # min-id core neighbor per non-core row (border anchor)
        core_adj = adj & mask[aids][None, :]
        any_core = core_adj.any(axis=1)
        first = core_adj.argmax(axis=1)  # aids ascend ⇒ argmax = min id
        role = np.where(
            bcore, "core", np.where(any_core, "border", "noise")
        )
        cluster = np.where(
            bcore,
            lab[bids],
            np.where(any_core, lab[aids[first]], np.int64(-1)),
        )
        return pa.table(
            {
                "vec_id": pa.array(bids, pa.int64()),
                "role": pa.array(role.astype(str), pa.string()),
                "cluster_id": pa.array(cluster.astype(np.int64)),
            }
        )

    return base.map_batches(_label, batch_format="pyarrow")


SQL_DBSCAN = f"""
WITH RECURSIVE qv AS (
  SELECT vec_id,
         list_transform(embedding,
           v -> cast(round(cast(v AS DOUBLE) * 1000000, 0) AS BIGINT)) AS v
  FROM embeddings),
par AS (SELECT CASE WHEN (SELECT count(*) FROM embeddings) <= {_DBSCAN_GATE}
                    THEN {_DBSCAN_EPS2_SMALL}
                    ELSE {_DBSCAN_EPS2_LARGE} END AS eps2),
nb AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM qv a, qv b, par
  WHERE a.vec_id <> b.vec_id
    AND list_inner_product(a.v, a.v) + list_inner_product(b.v, b.v)
        - 2 * list_inner_product(a.v, b.v) <= par.eps2),
deg AS (SELECT u, count(*) + 1 AS deg FROM nb GROUP BY u),
cores AS (SELECT q.vec_id FROM qv q LEFT JOIN deg ON deg.u = q.vec_id
          WHERE coalesce(deg.deg, 1) >= {_DBSCAN_MINPTS}),
ce AS (SELECT nb.u, nb.v FROM nb
       JOIN cores cu ON cu.vec_id = nb.u
       JOIN cores cv ON cv.vec_id = nb.v),
reach(u, v) AS (
  SELECT vec_id, vec_id FROM cores
  UNION
  SELECT r.u, e.v FROM reach r JOIN ce e ON e.u = r.v),
comp AS (SELECT u AS vec_id, min(v) AS cluster_id FROM reach GROUP BY u),
border AS (
  SELECT nb.u AS vec_id, min(nb.v) AS anchor
  FROM nb JOIN cores c ON c.vec_id = nb.v
  WHERE nb.u NOT IN (SELECT vec_id FROM cores)
  GROUP BY nb.u)
SELECT q.vec_id,
       CASE WHEN comp.vec_id IS NOT NULL THEN 'core'
            WHEN border.vec_id IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role,
       cast(CASE WHEN comp.vec_id IS NOT NULL THEN comp.cluster_id
                 WHEN border.vec_id IS NOT NULL THEN bc.cluster_id
                 ELSE -1 END AS BIGINT) AS cluster_id
FROM qv q
LEFT JOIN comp ON comp.vec_id = q.vec_id
LEFT JOIN border ON border.vec_id = q.vec_id
LEFT JOIN comp bc ON bc.vec_id = border.anchor
"""


# =====================================================================
# Greedy k-center coreset selection (farthest-point traversal)
# =====================================================================

#: number of coreset exemplars selected
_KC_K = 8


def q_kcenter_select(sf_dir: str):
    """Greedy k-center (farthest-point) coreset over the embedding
    table — the diversity-maximizing data-selection primitive
    (Gonzalez 1985 2-approximation; the 'coreset for active learning /
    balanced finetuning subset' idiom).  Seed = the minimum vec_id;
    each of the K−1 rounds is ONE streaming ``map_batches`` over the
    cached quantized working set emitting a single batch-local
    farthest candidate (dist DESC, vec_id ASC) — the driver merges
    #blocks one-row partials and broadcasts the grown center set via
    closure (≤ K·dim int64s).  All distances are exact int64
    squared-L2 on the e6 grid, so the selection order is
    partitioning-independent and hash-exact against the
    single-threaded twin (same argument as k-means above).  Emits
    (rank, vec_id, radius2_e12): radius2 of rank r = the covering
    radius² of the first r centers — the classic k-center quality
    curve."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _to_quantized(batch: pa.Table) -> pa.Table:
        x = quantize_e6(fixed_list_to_numpy(batch.column("embedding")))
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "q": pa.array(list(x), pa.list_(pa.int64())),
            }
        )

    base = ds.map_batches(_to_quantized, batch_format="pyarrow").materialize()

    def _seed_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        keep = np.argsort(ids, kind="stable")[:1]
        return batch.take(keep)

    cand = base.map_batches(_seed_partial, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: r["vec_id"])
    seed = cand[0]
    centers = np.array([seed["q"]], dtype=np.int64)
    out_rank = [0]
    out_id = [int(seed["vec_id"])]
    out_r2 = [0]

    for rank in range(1, _KC_K):
        Cb = centers

        def _far_partial(batch: pa.Table, C=Cb) -> pa.Table:
            X = fixed_list_to_numpy(batch.column("q"), dtype=np.int64).astype(
                np.int64
            )
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            # exact min squared distance to the current centers
            d = np.full(len(X), np.iinfo(np.int64).max, dtype=np.int64)
            for c in C:
                diff = X - c
                np.minimum(d, np.einsum("nd,nd->n", diff, diff), out=d)
            i = np.lexsort((ids, -d))[0]  # farthest, tie → min vec_id
            return pa.table(
                {
                    "vec_id": pa.array([int(ids[i])], pa.int64()),
                    "d": pa.array([int(d[i])], pa.int64()),
                    "q": pa.array([X[i].tolist()], pa.list_(pa.int64())),
                }
            )

        parts = base.map_batches(_far_partial, batch_format="pyarrow").take_all()
        parts.sort(key=lambda r: (-r["d"], r["vec_id"]))
        best = parts[0]
        centers = np.vstack([centers, np.asarray(best["q"], dtype=np.int64)])
        out_rank.append(rank)
        out_id.append(int(best["vec_id"]))
        out_r2.append(int(best["d"]))

    import pandas as pd

    return pd.DataFrame(
        {
            "rank": pd.array(out_rank, dtype="int64"),
            "vec_id": pd.array(out_id, dtype="int64"),
            "radius2_e12": pd.array(out_r2, dtype="int64"),
        }
    )


# =====================================================================
# Product quantization ANN (PQ codebooks + asymmetric distance)
# =====================================================================

_PQ_M = 8       #: subspaces (64-dim embeddings → 8×8)
_PQ_DSUB = 8    #: dims per subspace
_PQ_KSUB = 16   #: centroids per subspace codebook
_PQ_ITERS = 2   #: Lloyd iterations per codebook
_PQ_NQ = 8      #: queries = vec_id < _PQ_NQ (knn_cosine convention)
_PQ_K = 10      #: neighbours returned per query


def q_pq_topk(sf_dir: str):
    """Product-quantization ANN (Jégou, Douze & Schmid 2011): train an
    M=8 × k=16 codebook grid by per-subspace integer Lloyd's (one
    streaming partial pass per iteration covering ALL subspaces — the
    reduce payload is M·k·(d_sub+1) int64s per batch), then answer the
    standard query set by ASYMMETRIC DISTANCE: each query broadcasts
    an M×k lookup table (||q_m − C_m[j]||², exact int64 on the e6
    grid), every batch scores its vectors by M table lookups per
    vector — the memory-bandwidth shape that makes PQ the 100 TB ANN
    path (codes are 8 bytes/vector; raw floats never rescan).  Batch-
    local top-K partials (dist ASC, vec_id ASC) merge on the driver
    over NQ·K·#blocks rows.  Integer end-to-end → hash-exact vs the
    single-threaded twin."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _to_quantized(batch: pa.Table) -> pa.Table:
        x = quantize_e6(fixed_list_to_numpy(batch.column("embedding")))
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "q": pa.array(list(x), pa.list_(pa.int64())),
            }
        )

    base = ds.map_batches(_to_quantized, batch_format="pyarrow").materialize()

    # --- codebook init: subvectors of the _PQ_KSUB smallest vec_ids
    def _init_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        keep = np.argsort(ids, kind="stable")[:_PQ_KSUB]
        return batch.take(keep)

    cand = base.map_batches(_init_partial, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: r["vec_id"])
    seed = np.array([r["q"] for r in cand[:_PQ_KSUB]], dtype=np.int64)
    # C[m]: (k, d_sub) codebook of subspace m
    C = [
        seed[:, m * _PQ_DSUB : (m + 1) * _PQ_DSUB].copy() for m in range(_PQ_M)
    ]

    def _sub_assign(Xm: np.ndarray, Cm: np.ndarray) -> np.ndarray:
        cross = Xm @ Cm.T
        c2 = np.einsum("kd,kd->k", Cm, Cm)
        return (c2[None, :] - 2 * cross).argmin(axis=1)

    for _ in range(_PQ_ITERS):
        Cb = [c.copy() for c in C]

        def _partial(batch: pa.Table, C=Cb) -> pa.Table:
            X = fixed_list_to_numpy(batch.column("q"), dtype=np.int64).astype(
                np.int64
            )
            ms, cl, dims, s = [], [], [], []
            for m in range(_PQ_M):
                Xm = X[:, m * _PQ_DSUB : (m + 1) * _PQ_DSUB]
                a = _sub_assign(Xm, C[m])
                sums = np.zeros((_PQ_KSUB, _PQ_DSUB), dtype=np.int64)
                np.add.at(sums, a, Xm)
                counts = np.bincount(a, minlength=_PQ_KSUB).astype(np.int64)
                k_ids = np.repeat(np.arange(_PQ_KSUB, dtype=np.int64), _PQ_DSUB)
                d_ids = np.tile(np.arange(_PQ_DSUB, dtype=np.int64), _PQ_KSUB)
                ms.append(np.full(len(k_ids) + _PQ_KSUB, m, dtype=np.int64))
                cl.append(
                    np.concatenate([k_ids, np.arange(_PQ_KSUB, dtype=np.int64)])
                )
                dims.append(
                    np.concatenate([d_ids, np.full(_PQ_KSUB, -1, dtype=np.int64)])
                )
                s.append(np.concatenate([sums.ravel(), counts]))
            return pa.table(
                {
                    "m": pa.array(np.concatenate(ms)),
                    "cluster": pa.array(np.concatenate(cl)),
                    "dim": pa.array(np.concatenate(dims)),
                    "s": pa.array(np.concatenate(s)),
                }
            )

        parts = base.map_batches(_partial, batch_format="pyarrow").take_all()
        sums = np.zeros((_PQ_M, _PQ_KSUB, _PQ_DSUB), dtype=np.int64)
        counts = np.zeros((_PQ_M, _PQ_KSUB), dtype=np.int64)
        for r in parts:
            if r["dim"] < 0:
                counts[r["m"], r["cluster"]] += r["s"]
            else:
                sums[r["m"], r["cluster"], r["dim"]] += r["s"]
        for m in range(_PQ_M):
            nonempty = counts[m] > 0
            C[m] = C[m].copy()
            C[m][nonempty] = sums[m][nonempty] // counts[m][nonempty, None]

    # --- queries: exact quantized subvectors of vec_id < _PQ_NQ
    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qsel = qt.filter(pc.less(qt.column("vec_id"), _PQ_NQ))
    q_ids = qsel.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    Qx = quantize_e6(
        np.array(qsel.column("embedding").to_pylist(), dtype=np.float64)
    )
    # LUT[q, m, j] = ||q_m - C_m[j]||²  (exact int64)
    lut = np.zeros((len(q_ids), _PQ_M, _PQ_KSUB), dtype=np.int64)
    for m in range(_PQ_M):
        Qm = Qx[:, m * _PQ_DSUB : (m + 1) * _PQ_DSUB]
        diff = Qm[:, None, :] - C[m][None, :, :]
        lut[:, m, :] = np.einsum("qkd,qkd->qk", diff, diff)
    Cf = [c.copy() for c in C]

    def _adc_partial(batch: pa.Table, C=Cf, lut=lut, q_ids=q_ids) -> pa.Table:
        X = fixed_list_to_numpy(batch.column("q"), dtype=np.int64).astype(np.int64)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        codes = np.empty((len(X), _PQ_M), dtype=np.int64)
        for m in range(_PQ_M):
            codes[:, m] = _sub_assign(X[:, m * _PQ_DSUB : (m + 1) * _PQ_DSUB], C[m])
        out_q, out_v, out_d = [], [], []
        for qi in range(len(q_ids)):
            adc = np.zeros(len(X), dtype=np.int64)
            for m in range(_PQ_M):
                adc += lut[qi, m, codes[:, m]]
            order = np.lexsort((ids, adc))[:_PQ_K]  # dist ASC, vec_id ASC
            out_q.append(np.full(len(order), q_ids[qi], dtype=np.int64))
            out_v.append(ids[order])
            out_d.append(adc[order])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "adc_e12": pa.array(np.concatenate(out_d)),
            }
        )

    parts = base.map_batches(_adc_partial, batch_format="pyarrow").to_pandas()
    out = (
        parts.sort_values(["query_id", "adc_e12", "vec_id"], kind="mergesort")
        .groupby("query_id", sort=True)
        .head(_PQ_K)
        .reset_index(drop=True)
    )
    return out.astype({"query_id": "int64", "vec_id": "int64", "adc_e12": "int64"})


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    """Expected-twin oracle (independent single-threaded Lloyd's /
    greedy traversal in weakscraper_ray.oracles; merged by
    registry.oracle_sql)."""
    from .. import oracles

    out = _sql_cluster_quality(sf_dir)
    out.update({
        "kmeans_clusters": (
            "SELECT vec_id, cluster, dist_e12 "
            f"FROM read_parquet('{oracles.kmeans_twin(sf_dir)}')"
        ),
        "kcenter_select": (
            "SELECT rank, vec_id, radius2_e12 "
            f"FROM read_parquet('{oracles.kcenter_twin(sf_dir)}')"
        ),
        "pq_topk": (
            "SELECT query_id, vec_id, adc_e12 "
            f"FROM read_parquet('{oracles.pq_twin(sf_dir)}')"
        ),
    })
    return out


# =====================================================================
# cluster_medoids + silhouette_score — cluster quality read-outs
# =====================================================================


def _labels_and_quantized(sf_dir: str):
    """(ids, half-away-e6 quantized matrix, labels) — labels from the
    shared Lloyd fit (rint-quantized per kmeans' own convention, green
    vs its twin), DISTANCES from the half-away quantizer so the SQL
    twin's round() mirrors them exactly (the dbscan/gram discipline;
    mixing the two grains is sound because labels are an opaque
    partition here)."""
    base, Cf = kmeans_fit(sf_dir)
    lab_rows = base.map_batches(
        lambda t: pa.table(
            {
                "vec_id": t.column("vec_id"),
                "cluster": pa.array(
                    _assign(
                        fixed_list_to_numpy(t.column("q"), dtype=np.int64),
                        Cf,
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    ).take_all()  # N small rows (id, label) — bounded metadata
    lab = {r["vec_id"]: r["cluster"] for r in lab_rows}
    ids, q, _ = _dbscan_matrix(sf_dir)
    labels = np.array([lab[int(i)] for i in ids], dtype=np.int64)
    return ids, q, labels


def q_cluster_medoids(sf_dir: str):
    """Medoid of every Lloyd cluster: the member minimizing the total
    squared distance to its cluster (ties → smaller vec_id) — the
    representative-document selection step of cluster-based curation
    (a medoid, unlike the integer centroid, IS a corpus member).  All
    arithmetic exact int64 (pairwise dist² ≤ 4e12, sums ≤ 8e15).
    Output: one row per cluster ``(cluster, medoid, total_d2)``.

    Shape: labels from the shared fit; ONE streaming pass vs the
    broadcast quantized matrix accumulates per-member totals
    batch-locally (each batch row needs only its own cluster's
    members — a masked matmul), partial argmins fold on the driver
    (K rows per batch)."""
    import ray

    ids, q, labels = _labels_and_quantized(sf_dir)
    ref = ray.put({"ids": ids, "q": q, "labels": labels})
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _totals(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        X = _i64_away_np(
            fixed_list_to_numpy(batch.column("embedding"), dtype=np.float64),
            1e6,
        ).astype(np.int64)
        bids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(m["ids"], bids)
        blab = m["labels"][pos]
        d2 = (
            np.einsum("nd,nd->n", X, X)[:, None]
            + np.einsum("nd,nd->n", m["q"], m["q"])[None, :]
            - 2 * (X @ m["q"].T)
        )
        same = blab[:, None] == m["labels"][None, :]
        tot = (d2 * same).sum(axis=1)  # includes self (0)
        return pa.table(
            {
                "cluster": pa.array(blab, pa.int64()),
                "vec_id": pa.array(bids, pa.int64()),
                "total_d2": pa.array(tot.astype(np.int64)),
            }
        )

    best: dict[int, tuple[int, int]] = {}
    for t in ds.map_batches(_totals, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for cl, vid, td in zip(
            t.column("cluster").to_pylist(),
            t.column("vec_id").to_pylist(),
            t.column("total_d2").to_pylist(),
        ):
            cur = best.get(cl)
            if cur is None or (td, vid) < cur:
                best[cl] = (td, vid)
    cls = sorted(best)
    return pa.table(
        {
            "cluster": pa.array(cls, pa.int64()),
            "medoid": pa.array([best[c][1] for c in cls], pa.int64()),
            "total_d2": pa.array([best[c][0] for c in cls], pa.int64()),
        }
    )


def q_silhouette_score(sf_dir: str):
    """Silhouette (Rousseeuw 1987) of the Lloyd clustering under
    SQUARED Euclidean distance (the common fast variant — a √ per
    pair would re-introduce float means): per point,
    a = mean dist² to own cluster (n−1 denominator; singleton → s=0),
    b = min over other clusters of mean dist², both e3-quantized by
    the shared half-away rule BEFORE the min/compare, and
    s_e6 = e6((b−a)/max(a,b)) — every step integer.  Output: one row
    per cluster ``(cluster, n, sum_s_e6)`` plus the corpus row
    (cluster = −1) — the mean silhouette is sum_s_e6 / (10⁶·n).

    Shape: same broadcast-matrix pass as the medoids; per-batch
    partial (cluster, n, Σs) rows fold on the driver (K+1 rows per
    batch)."""
    import ray

    ids, q, labels = _labels_and_quantized(sf_dir)
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    ref = ray.put({"ids": ids, "q": q, "labels": labels, "counts": counts})
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _partial(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        X = _i64_away_np(
            fixed_list_to_numpy(batch.column("embedding"), dtype=np.float64),
            1e6,
        ).astype(np.int64)
        bids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(m["ids"], bids)
        blab = m["labels"][pos]
        d2 = (
            np.einsum("nd,nd->n", X, X)[:, None]
            + np.einsum("nd,nd->n", m["q"], m["q"])[None, :]
            - 2 * (X @ m["q"].T)
        )
        kk = len(m["counts"])
        # per-row per-cluster distance sums: one matmul vs a one-hot
        onehot = (
            m["labels"][None, :] == np.arange(kk)[:, None]
        ).astype(np.int64)
        sums = d2 @ onehot.T  # (batch, K)
        s_vals = np.zeros(len(bids), dtype=np.int64)
        for r in range(len(bids)):
            c = int(blab[r])
            n_own = int(m["counts"][c])
            if n_own <= 1:
                continue  # singleton: s = 0 by convention
            a_q = (2000 * int(sums[r][c]) + (n_own - 1)) // (
                2 * (n_own - 1)
            )
            b_q = None
            for oc in range(kk):
                if oc == c or m["counts"][oc] == 0:
                    continue
                cand = (
                    2000 * int(sums[r][oc]) + int(m["counts"][oc])
                ) // (2 * int(m["counts"][oc]))
                if b_q is None or cand < b_q:
                    b_q = cand
            diff = b_q - a_q
            den = max(a_q, b_q)
            if den == 0:
                continue
            s = (
                (2_000_000 * diff + den) // (2 * den)
                if diff >= 0
                else -((2_000_000 * -diff + den) // (2 * den))
            )
            s_vals[r] = s
        df = (
            pd.DataFrame({"cluster": blab, "s": s_vals})
            .groupby("cluster", sort=False)
            .agg(n=("s", "size"), sum_s=("s", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "cluster": pa.array(df["cluster"].to_numpy(np.int64)),
                "n": pa.array(df["n"].to_numpy(np.int64)),
                "sum_s": pa.array(df["sum_s"].to_numpy(np.int64)),
            }
        )

    acc: dict[int, list[int]] = {}
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for cl, n, ss in zip(
            t.column("cluster").to_pylist(),
            t.column("n").to_pylist(),
            t.column("sum_s").to_pylist(),
        ):
            e = acc.setdefault(cl, [0, 0])
            e[0] += n
            e[1] += ss
    rows = sorted(acc.items())
    rows.append((-1, [sum(v[0] for _, v in rows), sum(v[1] for _, v in rows)]))
    return pa.table(
        {
            "cluster": pa.array([r[0] for r in rows], pa.int64()),
            "n": pa.array([r[1][0] for r in rows], pa.int64()),
            "sum_s_e6": pa.array([r[1][1] for r in rows], pa.int64()),
        }
    )


def _sql_cluster_quality(sf_dir: str) -> dict[str, str]:
    from .. import oracles

    twin = oracles.kmeans_twin(sf_dir)
    base = f"""
WITH lab AS (SELECT vec_id, cluster FROM read_parquet('{twin}')),
qv AS (
  SELECT e.vec_id, l.cluster,
         list_transform(e.embedding,
           v -> cast(round(cast(v AS DOUBLE) * 1000000, 0) AS BIGINT)) AS v
  FROM embeddings e JOIN lab l ON l.vec_id = e.vec_id),
d AS (SELECT a.vec_id AS i, a.cluster AS ci, b.vec_id AS j,
             b.cluster AS cj,
             cast(list_inner_product(a.v, a.v)
                  + list_inner_product(b.v, b.v)
                  - 2 * list_inner_product(a.v, b.v) AS BIGINT) AS d2
      FROM qv a JOIN qv b ON a.vec_id <> b.vec_id)
"""
    medoids = base + """
, tot AS (SELECT i, ci AS cluster, cast(sum(d2) AS BIGINT) AS total_d2
          FROM d WHERE ci = cj GROUP BY 1, 2),
rk AS (SELECT cluster, i, total_d2,
              row_number() OVER (PARTITION BY cluster
                                 ORDER BY total_d2 ASC, i ASC) AS rn
       FROM tot)
SELECT cluster, i AS medoid, total_d2 FROM rk WHERE rn = 1
"""
    sil = base + """
, csz AS (SELECT cluster, cast(count(*) AS BIGINT) AS n FROM lab
          GROUP BY 1),
own AS (SELECT d.i, d.ci, cast(sum(d.d2) AS HUGEINT) AS sa,
               cast(csz.n AS HUGEINT) AS n_own
        FROM d JOIN csz ON csz.cluster = d.ci
        WHERE d.ci = d.cj GROUP BY 1, 2, 4),
aq AS (SELECT i, ci, n_own,
              (2000 * sa + (n_own - 1)) // (2 * (n_own - 1)) AS a_q
       FROM own WHERE n_own > 1),
oth AS (SELECT d.i, d.cj,
               (2000 * cast(sum(d.d2) AS HUGEINT)
                + cast(csz.n AS HUGEINT))
               // (2 * cast(csz.n AS HUGEINT)) AS cand
        FROM d JOIN csz ON csz.cluster = d.cj
        WHERE d.ci <> d.cj GROUP BY d.i, d.cj, csz.n),
bq AS (SELECT i, min(cand) AS b_q FROM oth GROUP BY i),
sv AS (SELECT aq.i, aq.ci AS cluster,
              cast(CASE WHEN greatest(aq.a_q, bq.b_q) = 0 THEN 0
                   WHEN bq.b_q >= aq.a_q
                   THEN (2000000 * (bq.b_q - aq.a_q)
                         + greatest(aq.a_q, bq.b_q))
                        // (2 * greatest(aq.a_q, bq.b_q))
                   ELSE -((2000000 * (aq.a_q - bq.b_q)
                           + greatest(aq.a_q, bq.b_q))
                          // (2 * greatest(aq.a_q, bq.b_q))) END
                   AS BIGINT) AS s
       FROM aq JOIN bq ON bq.i = aq.i),
per AS (SELECT l.cluster,
               cast(count(*) AS BIGINT) AS n,
               cast(coalesce(sum(sv.s), 0) AS BIGINT) AS sum_s
        FROM lab l LEFT JOIN sv ON sv.i = l.vec_id
        GROUP BY 1)
SELECT cluster, n, sum_s AS sum_s_e6 FROM per
UNION ALL
SELECT -1, cast(sum(n) AS BIGINT), cast(sum(sum_s) AS BIGINT) FROM per
"""
    return {"cluster_medoids": medoids, "silhouette_score": sil}


# =====================================================================
# Mutual k-NN graph (reciprocal nearest neighbours)
# =====================================================================

_MKNN_K = 5


def q_mutual_knn(sf_dir: str):
    """Mutual (reciprocal) k-NN graph over the quantized embeddings:
    the pairs (a, b) where EACH is in the other's top-k by similarity
    — the symmetrized neighbourhood graph that seeds density peaks /
    SNN clustering and near-dup verification (a one-directional kNN
    edge is often a hub artifact; mutuality filters hubs).
    Similarity = exact int64 dot of the half-away-e6 quantized
    vectors (unit-norm corpus ⇒ dot ≈ cosine, < 2⁵³ so the SQL
    ``list_inner_product`` double holds it exactly); top-k ties break
    to the smaller vec_id on both engines.  Output: (vec_a, vec_b,
    dot_q) with vec_a < vec_b.

    Shape: ONE streaming pass against the dbscan-shared broadcast
    matrix emits k directed edges per point; mutuality is one
    bounded (N·k)-row canonical-pair exchange with count == 2 as the
    reciprocity test (both directions carry the same symmetric
    dot)."""
    from ray.data.aggregate import Count, Min

    ids, q, _ = _dbscan_matrix(sf_dir)
    ref = ray.put({"ids": ids, "q": q})
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _edges(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        X = _i64_away_np(
            fixed_list_to_numpy(batch.column("embedding"), dtype=np.float64),
            1e6,
        ).astype(np.int64)
        bids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        dots = X @ m["q"].T  # (batch, N) exact int64
        # mask self-matches: ids are sorted, find own column.
        # Sentinel must survive negation — int64.min wraps under the
        # later -dots and would steal a top-k slot; |dot| ≤ ~1e12, so
        # -1e18 is safely below every real similarity
        self_col = np.searchsorted(m["ids"], bids)
        dots[np.arange(len(bids)), self_col] = -(10**18)
        # top-k per row by (dot DESC, id ASC).  Candidates = every
        # column whose dot reaches the k-th largest VALUE (no fixed
        # argpartition margin: with exact integer dots a tie class at
        # the boundary can be arbitrarily wide, and a clipped margin
        # could drop the smaller-id winner — the BruteForceTopK
        # lesson), then one exact lexsort of that slice
        k = _MKNN_K
        srcs, nbrs, dd = [], [], []
        for r in range(len(bids)):
            row = dots[r]
            thresh = np.partition(row, len(row) - k)[len(row) - k]
            cols = np.where(row >= thresh)[0]
            order = np.lexsort((m["ids"][cols], -row[cols]))[:k]
            pick = cols[order]
            srcs.extend([int(bids[r])] * k)
            nbrs.extend(m["ids"][pick].tolist())
            dd.extend(dots[r][pick].tolist())
        a = np.minimum(srcs, nbrs)
        b = np.maximum(srcs, nbrs)
        return pa.table(
            {
                "vec_a": pa.array(a, pa.int64()),
                "vec_b": pa.array(b, pa.int64()),
                "dot_q": pa.array(dd, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(_edges, batch_format="pyarrow")
        .groupby(["vec_a", "vec_b"])
        .aggregate(Count(alias_name="n"), Min("dot_q", alias_name="dot_q"))
    )
    return agg.map_batches(
        lambda t: t.filter(pc.equal(t.column("n"), 2)).select(
            ["vec_a", "vec_b", "dot_q"]
        ),
        batch_format="pyarrow",
    )


SQL_MUTUAL_KNN = f"""
WITH q AS (
  SELECT vec_id,
         list_transform(embedding,
           v -> cast(round(cast(v AS DOUBLE) * 1000000, 0) AS BIGINT)) AS v
  FROM embeddings),
s AS (SELECT a.vec_id AS src, b.vec_id AS nbr,
             cast(list_inner_product(a.v, b.v) AS BIGINT) AS dot
      FROM q a JOIN q b ON a.vec_id <> b.vec_id),
r AS (SELECT src, nbr, dot,
             row_number() OVER (PARTITION BY src
                                ORDER BY dot DESC, nbr ASC) AS rn
      FROM s),
e AS (SELECT src, nbr, dot FROM r WHERE rn <= {_MKNN_K})
SELECT a.src AS vec_a, a.nbr AS vec_b, a.dot AS dot_q
FROM e a JOIN e b ON a.src = b.nbr AND a.nbr = b.src
WHERE a.src < a.nbr
"""


QUERIES = {
    "kmeans_clusters": q_kmeans_clusters,
    "kcenter_select": q_kcenter_select,
    "pq_topk": q_pq_topk,
    "dbscan_clusters": q_dbscan_clusters,
    "mutual_knn": q_mutual_knn,
    "cluster_medoids": q_cluster_medoids,
    "silhouette_score": q_silhouette_score,
}
ORACLE_SQL: dict[str, str] = {
    "dbscan_clusters": SQL_DBSCAN,
    "mutual_knn": SQL_MUTUAL_KNN,
}
