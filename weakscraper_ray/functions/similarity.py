"""Similarity search over an embedding column (``list<float>``).

- Brute-force cosine top-k: the query matrix is broadcast ONCE
  (``ray.put`` driver-side → read per actor in ``__init__``), each
  batch does one numpy matmul against it, emits per-batch local top-k
  partials, and a final tiny groupby keeps the global top-k — the
  classic partial-topk pattern, no full shuffle of scores.
- LSH-bucketed variant (scale path): hyperplane buckets (multi-probe
  by flipping one bit) so each query only scores its bucket's
  candidates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def round_e4_away(x: np.ndarray) -> np.ndarray:
    """``round(x * 10000)`` with ties HALF AWAY FROM ZERO — the exact
    semantics of DuckDB's ``round()`` in the knn oracle's ``ORDER BY``.
    ``np.round``/``pandas.round`` are half-to-even, which silently
    diverges on exact .5 ties (ADVICE r2); copysign+floor matches the
    oracle for negative cosines too."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) * 10000.0 + 0.5), x)


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine vs a broadcast query matrix.

    Emits (query_id, vec_id, score) for each batch's LOCAL top-k; the
    caller reduces with a groupby(query_id) global top-k over the tiny
    partial set.
    """

    def __init__(self, queries_ref, k: int = 10, column: str = "embedding"):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.query_ids = np.asarray(q["ids"], dtype=np.int64)
        qm = np.asarray(q["matrix"], dtype=np.float64)
        self.qunit = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
        self.k = k
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .embed import fixed_list_to_numpy

        mat = fixed_list_to_numpy(batch.column(self.column), dtype=np.float64)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = self.qunit @ unit.T  # (Q, n) one matmul per batch
        n = sims.shape[1]
        k = min(self.k, n)
        # local top-k per query under the SAME ordering the global
        # reducer uses — (rounded score desc, vec_id asc) — so a vector
        # tied after rounding can't be cut at the batch boundary and
        # then win globally (ADVICE r1). The candidate set is EVERY
        # vector whose rounded score >= the k-th largest rounded score
        # in the row (ADVICE r2: a fixed +8 margin could still drop a
        # smaller-vec_id tie when >8 vectors share the boundary value);
        # rounding is monotone, so this set provably contains the top-k
        # under the (rounded desc, vec_id asc) order.
        rounded = round_e4_away(sims)
        kth = np.partition(rounded, n - k, axis=1)[:, n - k]
        rows_q, rows_v, rows_s = [], [], []
        for qi in range(sims.shape[0]):
            cand = np.nonzero(rounded[qi] >= kth[qi])[0]
            order = np.lexsort((ids[cand], -rounded[qi, cand]))[:k]
            sel = cand[order]
            rows_q.append(np.full(k, self.query_ids[qi]))
            rows_v.append(ids[sel])
            rows_s.append(sims[qi, sel])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(rows_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(rows_v), pa.int64()),
                "score": pa.array(np.concatenate(rows_s), pa.float64()),
            }
        )


def global_topk(group: pd.DataFrame, k: int = 10) -> pd.DataFrame:
    """Reduce partial top-ks: rank by (rounded score desc, vec_id asc)
    for deterministic tie-breaks that match a SQL oracle (half-away
    rounding, same as the oracle's ``round()`` — see round_e4_away)."""
    g = group.copy()
    g["score"] = round_e4_away(g["score"].to_numpy()) / 10000.0
    g = g.sort_values(["score", "vec_id"], ascending=[False, True], kind="mergesort")
    return g.head(k)


def knn_brute_force(ds, query_ids, query_matrix, k: int = 10, batch_size: int = 4096):
    """Full brute-force pipeline: broadcast queries → partial top-k →
    tiny global reduce. Returns a Dataset of (query_id, vec_id, score)."""
    ref = ray.put({"ids": list(query_ids), "matrix": np.asarray(query_matrix)})
    partials = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs=dict(queries_ref=ref, k=k),
        batch_format="pyarrow",
        batch_size=batch_size,
        # autoscaling pool: never pin a pool to the whole cluster — a
        # fixed pool equal to num_cpus starves the read stage
        concurrency=(1, 4),
        num_cpus=1,
    )
    return partials.groupby("query_id").map_groups(
        lambda g: global_topk(g, k), batch_format="pandas"
    )


# ---------------------------------------------------------------- IVF

def kmeans_centroids(sample: np.ndarray, k: int = 16, iters: int = 10,
                     seed: int = 42) -> np.ndarray:
    """Deterministic mini k-means on a driver-side SAMPLE (the classic
    IVF training step — the sample is small; training never touches the
    full dataset)."""
    rng = np.random.RandomState(seed)
    pick = rng.choice(len(sample), size=min(k, len(sample)), replace=False)
    cents = sample[pick].astype(np.float64)
    for _ in range(iters):
        d = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents


class IvfAssigner:
    """Actor stage: assign each vector to its nearest centroid (the IVF
    inverted-list key). Centroids broadcast once per actor."""

    def __init__(self, centroids_ref, column: str = "embedding"):
        c = ray.get(centroids_ref) if isinstance(centroids_ref, ray.ObjectRef) else centroids_ref
        self.cents = np.asarray(c, dtype=np.float64)
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .embed import fixed_list_to_numpy

        mat = fixed_list_to_numpy(batch.column(self.column), dtype=np.float64)
        d = ((mat[:, None, :] - self.cents[None, :, :]) ** 2).sum(axis=2)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "list_id": pa.array(d.argmin(axis=1).astype(np.int64)),
                "embedding": batch.column(self.column),
            }
        )


def ivf_topk_in_list(group: pd.DataFrame, query_unit: np.ndarray,
                     query_ids: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Within one inverted list: score members against every query that
    probes this list (single-probe demo: every query scores only its
    own nearest list's members)."""
    mat = np.asarray(group["embedding"].to_list(), dtype=np.float64)
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    sims = query_unit @ unit.T
    ids = group["vec_id"].to_numpy()
    rounded = round_e4_away(sims) / 10000.0
    rows = []
    for qi in range(len(query_ids)):
        order = np.argsort(-sims[qi])[:k]
        for vi in order:
            rows.append((int(query_ids[qi]), int(ids[vi]), float(rounded[qi, vi])))
    return pd.DataFrame(rows, columns=["query_id", "vec_id", "score"])
